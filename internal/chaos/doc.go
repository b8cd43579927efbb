// Package chaos holds the scripted fault-injection suite for the
// durability, replication, and serving stack (run via `make chaos`).
//
// Every scenario is a deterministic schedule over internal/faultinject
// seams — no random kills, no timing races. Each pins one recovery
// invariant:
//
//   - disk full during rotation: group commits keep landing on the old
//     WAL, a failed attempt re-arms a record floor later (not on the
//     next batch), rotation succeeds once space returns, nothing acked
//     is lost
//   - torn/sticky fsync: transient faults are absorbed by bounded
//     retry; a sticky one flips /readyz while /healthz stays 200
//   - partition mid-stream: a replica cut mid-frame reconnects with
//     backoff and converges byte-identically once the fault clears
//   - flapping primary during bootstrap: the 410→snapshot path
//     survives dropped connections and converges
//   - disconnected replica: readiness fails, reads keep serving stale
//   - drain: shutdown finishes in-flight requests and flushes the WAL
//   - replica killed mid-request: the gateway's buffered failover hides
//     a mid-body tear, ejects the dead backend, and re-admits it only
//     through the half-open probe — zero failed reads
//   - primary flap during write load: writes fail fast (never replayed)
//     and stay shed until the probe re-admits; reads never fail
//   - whole-pool lag excursion: reads degrade to stale-labeled 200s
//     from the pool, the primary's read surface takes zero requests
//
// Fleet members are the role Roots the binaries run —
// replica.PrimaryRoot and Replica.Root, served through Root.Serve over
// faultinject listeners — with scripted handlers as their app, so a
// schedule exercises the wiring it is about.
//
// The package has no non-test API; this file exists so the directory
// is a buildable package.
package chaos
