// Command dissenter-gateway is the fleet's HTTP front door: it routes
// writes to the primary and fans reads across the replica pool, using
// active health probes and passive outlier detection to keep requests
// away from dead or lagging backends.
//
// Usage:
//
//	dissenter-gateway -primary http://localhost:8080 \
//	    -replica http://localhost:8081 -replica http://localhost:8082 \
//	    [-addr :8079] [-max-lag 4096]
//
// Routing (see internal/gateway for the full state machine):
//
//   - Writes — any non-GET/HEAD request, plus the GET-shaped mutations
//     /discussion/begin, /discussion/vote, /discussion/comment — go to
//     the primary, one attempt, never replayed.
//   - Reads prefer fresh replicas (probed, ready, lag ≤ -max-lag),
//     then never-probed ones, then stale replicas (the response gains
//     X-Served-Stale: 1), then the primary; 503 only when every
//     backend is ejected.
//   - Failed reads retry on the next candidate while the global retry
//     budget (-retry-budget-ratio/-retry-budget-burst) and per-request
//     cap (-retry-attempts) allow.
//   - A backend that fails -eject-after consecutive probes or proxied
//     requests is ejected; only a fully successful probe round (the
//     half-open trial) re-admits it.
//
// Endpoints, wired by (*gateway.Gateway).Root: /healthz (liveness),
// /readyz (503 once every backend is ejected — a fronting balancer
// should stop sending traffic), /gateway/status (JSON: retry-budget
// counters and every backend's standing), /debug/pprof/ with -pprof.
// Everything else proxies, behind -max-inflight. httpguard.Root.Run is
// the process's life and its exit status.
package main

import (
	"context"
	"flag"
	"log"
	"time"

	"dissenter/internal/gateway"
)

func main() {
	addr := flag.String("addr", ":8079", "listen address")
	primary := flag.String("primary", "http://localhost:8080", "primary's base URL (writes, read fallback)")
	var replicas []string
	flag.Func("replica", "replica base URL (repeatable)", func(v string) error {
		replicas = append(replicas, v)
		return nil
	})
	maxLag := flag.Uint64("max-lag", 4096, "events behind the fleet head before a replica's reads go stale-labeled (0 = never)")
	probeInterval := flag.Duration("probe-interval", time.Second, "active health probe period")
	probeTimeout := flag.Duration("probe-timeout", 2*time.Second, "per-probe timeout")
	ejectAfter := flag.Int("eject-after", 3, "consecutive failures before a backend is ejected")
	retryAttempts := flag.Int("retry-attempts", 3, "max backends tried per read")
	retryRatio := flag.Float64("retry-budget-ratio", 0.1, "global retries allowed per read admitted")
	retryBurst := flag.Int("retry-budget-burst", 10, "global retries allowed before the ratio binds")
	maxInflight := flag.Int("max-inflight", 1024, "concurrent proxied requests before shedding (0 = unlimited)")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (opt-in: exposes runtime internals)")
	flag.Parse()
	if len(replicas) == 0 {
		log.Printf("no -replica given: all reads will hit the primary")
	}

	gw := gateway.New(*primary, replicas, gateway.Options{
		MaxLag:           *maxLag,
		ProbeInterval:    *probeInterval,
		ProbeTimeout:     *probeTimeout,
		EjectAfter:       *ejectAfter,
		RetryAttempts:    *retryAttempts,
		RetryBudgetRatio: *retryRatio,
		RetryBudgetBurst: *retryBurst,
		Logf:             log.Printf,
	})

	// One synchronous round before serving, so the first request routes
	// on probed state instead of the never-probed tier; then the
	// background prober takes over until the process exits (requests
	// still draining keep routing on fresh state).
	gw.ProbeNow(context.Background())
	go gw.Run(context.Background())

	root := gw.Root()
	root.Addr, root.MaxInflight, root.Pprof = *addr, *maxInflight, *pprofOn
	log.Printf("gateway on %s: primary %s, %d replica(s)", *addr, *primary, len(replicas))
	if err := root.Run(); err != nil {
		log.Fatal(err)
	}
}
