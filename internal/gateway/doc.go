// Package gateway is the fleet's front door: one HTTP process that
// routes writes to the primary and fans reads across the replica
// pool, so the loss of any single backend is a routing decision
// instead of a user-visible outage.
//
// # Topology
//
//	clients ──> gateway ──writes──> primary  (cmd/dissenter-platform)
//	                └─────reads───> replicas (cmd/dissenter-replica, N≥0)
//
// Mutations (any non-GET/HEAD method, plus the app's GET-shaped write
// endpoints /discussion/begin, /discussion/vote, /discussion/comment)
// go to the primary, exactly once — a write that may have reached the
// store is never replayed. Reads prefer fresh replicas, degrade to
// stale ones, and fall back to the primary only when no replica can
// answer at all (see "Read routing" below).
//
// # Health: active probes + passive outlier detection
//
// Two signals feed every backend's standing:
//
//   - ACTIVE: a probe round (Run's periodic loop, or ProbeNow for a
//     deterministic test) hits each backend's /replication-status and
//     /readyz. The status payload (replica.StatusJSON — one shape on
//     primary and replica alike) yields the applied cursor; the
//     gateway computes each backend's lag against the FLEET head (the
//     max over every backend's head/applied), because a disconnected
//     replica's self-reported head goes stale and its self-reported
//     lag underestimates reality.
//
//   - PASSIVE: every proxied request's outcome (transport error or
//     5xx = failure, anything else = success) feeds the same
//     per-backend failure counter the probes do.
//
// # The ejection state machine (per-backend circuit breaker)
//
//		          EjectAfter consecutive failures
//		 ADMITTED ────────────────────────────────> EJECTED
//		 (serving)                                  (no user traffic)
//		     ^                                          │
//		     │         probe succeeds                   │ probe round =
//		     └──────────────────────────────────────────┘ half-open trial
//
//	  - ADMITTED: the backend receives user traffic. Failures —
//	    probe or proxy alike — increment a consecutive-failure counter;
//	    any success resets it. At Options.EjectAfter consecutive
//	    failures the backend is ejected.
//
//	  - EJECTED: the backend receives NO user traffic; only the active
//	    prober still talks to it. Each probe is the half-open trial: a
//	    fully successful round (status decoded, /readyz answered)
//	    re-admits the backend and resets the counter; a failed round
//	    leaves it ejected. Passive traffic can therefore never flap an
//	    ejected backend back in — re-admission goes through the probe,
//	    and only through the probe.
//
// There is no separate half-open state with trial user requests: the
// probe IS the trial, which keeps re-admission deterministic under
// test and spares users from being the canary.
//
// # Read routing
//
// Read candidates are ordered into tiers, round-robin within each:
//
//  1. FRESH replicas: admitted, probe-reachable, /readyz OK, and lag
//     within Options.MaxLag (0 = no bound).
//  2. UNKNOWN replicas: admitted but never successfully probed (e.g.
//     before the first probe round) — tried after fresh ones, not
//     marked stale because their lag is unknown.
//  3. STALE replicas: admitted but failing the freshness bar. A read
//     answered from this tier carries X-Served-Stale: 1 — a stale
//     page beats a 5xx, and the header says which one you got. Stale
//     replicas are deliberately preferred over the primary: shielding
//     the primary from read load is the pool's whole purpose, and a
//     whole-pool lag excursion must not become a primary hug of death.
//  4. The PRIMARY, if admitted: the last resort that keeps reads at
//     zero failures when every replica is gone.
//
// A failed read attempt (connection error, mid-body cut, or 5xx —
// including a 503 shed by an overloaded backend) fails over to the
// next candidate. Responses are buffered before the first byte is
// committed to the client, so failover works even when a backend
// dies mid-response.
//
// # Retry budget
//
// Failover retries are GET/HEAD-only and doubly bounded: per request
// by Options.RetryAttempts total attempts, and globally by a retry
// budget — retries may not exceed Options.RetryBudgetBurst plus
// Options.RetryBudgetRatio × total reads admitted. When the budget is
// spent, requests get one attempt and fail honestly; a dying fleet
// sees load shrink toward 1× instead of multiplying every user
// request into a storm of retries. The budget is a pure function of
// the request sequence (no clocks), so schedules over it are
// deterministic.
//
// # Serving
//
// Gateway.Root is the gateway as an httpguard.Root — the proxy behind
// admission control, /gateway/status outside it, readiness =
// ReadyCheck — and is what the binary runs. It starts no prober:
// the binary calls ProbeNow and Run, a fault schedule scripts ProbeNow.
package gateway
