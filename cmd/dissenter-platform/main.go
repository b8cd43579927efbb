// Command dissenter-platform serves the complete simulated deployment —
// the Gab API, the Dissenter web app, the YouTube pages, a
// Perspective-style scoring endpoint, and a Pushshift-style Reddit API —
// on one HTTP listener, so crawlers (ours or yours) have something real
// to measure.
//
// Usage:
//
//	dissenter-platform [-addr :8080] [-scale 0.015625] [-seed 1] [-data DIR]
//
// With -data DIR the store is durable: on startup the directory's
// newest snapshot plus WAL tail are restored (falling back to corpus
// generation on an empty directory), and from then on every event is
// group-committed to the WAL by a write-behind persister that rotates
// WAL→snapshot so neither the files nor the in-memory event log grow
// without bound (see internal/eventlog). Use the same -scale/-seed as
// the run that created the directory, so the auxiliary simulators
// (YouTube, Reddit) describe the same world.
//
// Routes (internal/deployment's route test requests one page of each
// simulator through the same mux):
//
//	/api/v1/accounts/...        Gab API (enumeration, relations)
//	/user/... /discussion /comment/...   Dissenter web app
//	/trends /discussion/begin            Gab Trends portal + URL submission
//	/discussion/vote                     up/down voting on a comment page
//	/discussion/comment                  live comment posting (POST, session-authenticated)
//	/leaderboard                         net-vote leaderboard (Figure 5's ordering)
//	/watch /channel/... /user-yt/...     YouTube simulator (youtube.com/user/<name> is /user-yt/<name>)
//	/v1/comments:analyze        Perspective-style scoring
//	/reddit/... /api/user/...   Pushshift-style Reddit API
//	/                           census banner
//	/replication/events         replication stream (internal/replica.Publisher)
//	/replication/snapshot       replication bootstrap snapshot
//	/replication-status         fleet lag shape (replica.StatusJSON, role "primary")
//	/healthz /readyz            liveness / traffic-steering readiness
//	/debug/pprof/...            runtime profiling (only with -pprof)
//
// Operations: the simulator mux is deployment.Mux — the one the
// reproduction, examples/live-crawl and the crawl tests serve too; this
// file adds the banner and hands it to replica.PrimaryRoot, which wires
// the process as the fleet's primary (readiness = the persister's
// health, the replication and status mounts outside admission control,
// the WAL flush after the drain); httpguard.Root.Run is its life and
// its exit status. Past -max-inflight concurrent requests the mux's
// routes are shed with 503 + Retry-After rather than queued.
//
// deployment.Mux pre-registers three sessions: "nsfw-probe" (NSFW view
// enabled) and "off-probe" (offensive view enabled) for the
// differential crawl, and "writer" (bound to an active Dissenter
// account) for posting through POST /discussion/comment; send any as a
// "session" cookie.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"time"

	"dissenter/internal/deployment"
	"dissenter/internal/dissenterweb"
	"dissenter/internal/eventlog"
	"dissenter/internal/gabapi"
	"dissenter/internal/replica"
	"dissenter/internal/synth"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	scale := flag.Float64("scale", synth.DefaultScale, "corpus scale (1.0 = paper scale)")
	seed := flag.Int64("seed", 1, "generation seed")
	gabLimit := flag.Int("gab-rate-limit", 0, "Gab API requests per 5-minute window (0 = unlimited)")
	urlLimit := flag.Int("url-rate-limit", 0, "Dissenter per-URL requests per minute (0 = unlimited; platform used 10)")
	dataDir := flag.String("data", "", "persistence directory (restore on start, WAL+snapshot while running; empty = in-memory only)")
	maxInflight := flag.Int("max-inflight", 1024, "admission control: concurrent requests before shedding with 503 (0 = unbounded)")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (opt-in: exposes runtime internals)")
	flag.Parse()

	log.Printf("generating corpus at scale %.5f (seed %d)...", *scale, *seed)
	out := synth.Generate(synth.NewConfig(*scale, *seed))
	db := out.DB

	var pers *eventlog.Persister
	if *dataDir != "" {
		restored, skipped, err := eventlog.RestoreDir(*dataDir)
		if err != nil {
			log.Fatalf("restore %s: %v", *dataDir, err)
		}
		if restored != nil {
			db = restored
			log.Printf("restored store from %s at seq %d (%d unknown records skipped)", *dataDir, db.EventSeq(), skipped)
		}
		pers, err = eventlog.StartPersister(db, *dataDir, eventlog.Options{
			OnError: func(err error, sticky bool) {
				log.Printf("persist (sticky=%v): %v", sticky, err)
			},
		})
		if err != nil {
			log.Fatalf("start persister: %v", err)
		}
		log.Printf("persisting events to %s", *dataDir)
	}
	census := db.Census()
	log.Printf("generated: %d Gab users, %d Dissenter users, %d comments on %d URLs",
		census.GabUsers, census.DissenterUsers, census.Comments, census.URLs)

	mux := deployment.Mux(out.YouTube, db, *seed,
		[]gabapi.Option{gabapi.WithRateLimit(*gabLimit, 5*time.Minute)},
		[]dissenterweb.Option{dissenterweb.WithURLRateLimit(*urlLimit, time.Minute)})
	sessionBanner := "sessions: nsfw-probe, off-probe"
	if active := db.ActiveUsers(); len(active) > 0 {
		sessionBanner += fmt.Sprintf(", writer (posts as @%s)", active[0].Username)
	}
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprintf(w, "dissenter-platform: %d Gab users, %d Dissenter users, %d comments\n",
			census.GabUsers, census.DissenterUsers, census.Comments)
		fmt.Fprintf(w, "max Gab ID: %d\n%s\n", db.MaxGabID(), sessionBanner)
	})

	root := replica.PrimaryRoot(db, pers, mux)
	root.Addr, root.MaxInflight, root.Pprof = *addr, *maxInflight, *pprofOn
	log.Printf("serving on %s (max Gab ID %d)", *addr, db.MaxGabID())
	if err := root.Run(); err != nil {
		log.Fatal(err)
	}
}
