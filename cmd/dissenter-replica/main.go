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
// 403 (write on the primary). /replication-status reports the
// machine-readable lag shape (replica.StatusJSON: role, head, applied,
// lag, durable, connection state, persister health) that the gateway's
// prober consumes; the primary mirrors the same shape.
// /healthz answers liveness; /readyz answers 503
// once the replica has been disconnected longer than -stale-after, is
// lagging the primary's head by more than -max-lag events, or its
// local persistence has failed sticky.
//
// A not-ready replica KEEPS SERVING reads — stale answers beat shed
// ones for this read-mostly corpus — readiness only steers the load
// balancer; degraded responses carry an X-Served-Stale: 1 header so
// callers can tell. SIGINT/SIGTERM drain in-flight requests, then
// flush the local WAL before exit (exit status: httpguard.Root.Run).
//
// The probe sessions "nsfw-probe" and "off-probe" are pre-registered
// with the same view settings as the primary's, so differential crawls
// can hit either process interchangeably.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"sync/atomic"
	"time"

	"dissenter/internal/dissenterweb"
	"dissenter/internal/httpguard"
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

	// The serving stack is rebuilt whenever the replica (re)binds its
	// store — at open, and after a snapshot bootstrap replaces the DB
	// instance. A fresh Server over the fresh store means no cache entry
	// can describe state the new store never saw; the coherence view
	// NewServer attaches keeps it coherent from then on.
	var handler atomic.Value // holds http.Handler
	bind := func(db *platform.DB) {
		web := dissenterweb.NewServer(db,
			dissenterweb.ReadOnly(),
			dissenterweb.WithURLRateLimit(*urlLimit, time.Minute),
		)
		web.RegisterProbeSessions()
		handler.Store(http.Handler(web))
		log.Printf("serving store at seq %d", db.EventSeq())
	}

	rep, err := replica.Open(*dir, *primary, replica.Options{
		OnState: bind,
		Logf:    log.Printf,
	})
	if err != nil {
		log.Fatalf("open replica: %v", err)
	}
	ready := func() error { return rep.Ready(*staleAfter, *maxLag) }
	health := httpguard.NewHealth(httpguard.Check{Name: "replication", Probe: ready})

	// The replication loop outlives the HTTP drain (in-flight reads
	// keep getting fresher pages) and ends in the close hook.
	runCtx, stopRun := context.WithCancel(context.Background())
	runDone := make(chan struct{})
	go func() {
		rep.Run(runCtx)
		close(runDone)
	}()

	app := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Serve-stale: degraded replication never sheds reads, it just
		// labels them, so callers (and tests) can tell a fresh page
		// from a possibly-behind one.
		if ready() != nil {
			w.Header().Set("X-Served-Stale", "1")
		}
		if r.URL.Path == "/" {
			c := rep.DB().Census()
			fmt.Fprintf(w, "dissenter-replica: seq %d (durable %d), %d Gab users, %d comments on %d URLs\n",
				rep.Seq(), rep.Durable(), c.GabUsers, c.Comments, c.URLs)
			return
		}
		handler.Load().(http.Handler).ServeHTTP(w, r)
	})

	root := httpguard.Root{
		Addr:   *addr,
		Health: health,
		Pprof:  *pprofOn,
		Exempt: map[string]http.Handler{
			// The machine-readable lag shape the gateway's prober
			// consumes; the primary mirrors the same shape, so the
			// prober decodes one struct for the whole fleet.
			"/replication-status": http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				replica.ServeStatus(w, rep.StatusJSON())
			}),
		},
		App: app,
		Close: func() error {
			stopRun()
			<-runDone
			return rep.Close()
		},
	}
	log.Printf("replica of %s serving read-only on %s (data in %s)", *primary, *addr, *dir)
	if err := root.Run(); err != nil {
		log.Fatal(err)
	}
}
