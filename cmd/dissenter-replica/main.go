// Command dissenter-replica serves the Dissenter web app read-only
// from an out-of-process replica of a primary's store. It tails the
// primary's replication stream (cmd/dissenter-platform's /replication/
// mount), applies every event into its own platform.DB through the
// normal write paths — so its rankings, fragment views, and rendered
// pages are maintained by exactly the code that maintains the
// primary's — and keeps its own WAL+snapshot directory, so a killed
// replica restarts from local state and resumes the stream at its
// durable offset.
//
// Usage:
//
//	dissenter-replica -primary http://localhost:8080/replication [-addr :8081] [-dir ./replica-data]
//
// Routes: the Dissenter web app's read surface (/user/..., /discussion,
// /comment/..., /trends, /leaderboard); the mutating endpoints answer
// 403 (write on the primary). This file builds that surface and hands
// it to (*replica.Replica).Root, which wires the process as a fleet
// member: the replication loop, /replication-status (the lag shape the
// gateway's prober consumes), /readyz failing once the replica has been
// disconnected longer than -stale-after, lags the primary's head by
// more than -max-lag events or has lost its local persistence, the
// X-Served-Stale: 1 label on what it keeps serving meanwhile, and the
// WAL flush after the drain. httpguard.Root.Run is its life and its
// exit status.
//
// The probe sessions "nsfw-probe" and "off-probe" are pre-registered
// with the same view settings as the primary's, so differential crawls
// can hit either process interchangeably.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"time"

	"dissenter/internal/dissenterweb"
	"dissenter/internal/platform"
	"dissenter/internal/replica"
)

func main() {
	addr := flag.String("addr", ":8081", "listen address")
	primary := flag.String("primary", "http://localhost:8080/replication", "primary's replication mount")
	dir := flag.String("dir", "./replica-data", "local persistence directory")
	urlLimit := flag.Int("url-rate-limit", 0, "per-URL requests per minute (0 = unlimited)")
	staleAfter := flag.Duration("stale-after", 30*time.Second, "readiness: how long a disconnected replica still counts as ready (0 = never fails this check)")
	maxLag := flag.Uint64("max-lag", 65536, "readiness: maximum events behind the primary's last-seen head (0 = unchecked)")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (opt-in: exposes runtime internals)")
	flag.Parse()

	rep, err := replica.Open(*dir, *primary, replica.Options{Logf: log.Printf})
	if err != nil {
		log.Fatalf("open replica: %v", err)
	}
	// One Server per store: Root calls this at start and again whenever
	// a snapshot bootstrap replaces the store.
	root := rep.Root(func(db *platform.DB) http.Handler {
		web := dissenterweb.NewServer(db,
			dissenterweb.ReadOnly(),
			dissenterweb.WithURLRateLimit(*urlLimit, time.Minute),
		)
		web.RegisterProbeSessions()
		log.Printf("serving store at seq %d", db.EventSeq())
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/" {
				c := db.Census()
				fmt.Fprintf(w, "dissenter-replica: seq %d (durable %d), %d Gab users, %d comments on %d URLs\n",
					db.EventSeq(), rep.Durable(), c.GabUsers, c.Comments, c.URLs)
				return
			}
			web.ServeHTTP(w, r)
		})
	}, *staleAfter, *maxLag)
	root.Addr, root.Pprof = *addr, *pprofOn
	log.Printf("replica of %s serving read-only on %s (data in %s)", *primary, *addr, *dir)
	if err := root.Run(); err != nil {
		log.Fatal(err)
	}
}
