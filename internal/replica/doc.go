// Package replica moves the read path out of the primary's process:
// a Publisher exposes a platform.DB's event stream and snapshot over
// HTTP, and a Replica tails that stream into its own DB — applying
// every event through the normal write paths (platform.DB.ApplyEvent),
// so the replica's materialized views and page fragments are
// maintained by exactly the code that maintains the primary's, and a
// read-only web server mounted on the replica's DB serves
// byte-identical pages.
//
// Topology
//
//	primary process                     replica process
//	┌──────────────────────┐            ┌──────────────────────┐
//	│ platform.DB (writes) │            │ platform.DB (reads)  │
//	│   │ events           │            │   ▲ ApplyEvent       │
//	│   ├─ eventlog.       │  HTTP      │   │                  │
//	│   │  Persister → WAL │  chunked   │ replica.Replica      │
//	│   └─ replica.        │  stream    │   │                  │
//	│      Publisher ──────┼────────────┼───┘                  │
//	└──────────────────────┘            │ eventlog.Persister   │
//	                                    │   → replica's WAL    │
//	                                    └──────────────────────┘
//
// Protocol. Two endpoints, mounted wherever the Publisher is routed
// (PrimaryRoot mounts it at /replication/):
//
//   - GET <mount>/events?since=N streams the events after sequence
//     point N as eventlog codec frames (see that package's wire
//     format) over a chunked response that stays open: when the log
//     is drained the publisher blocks on DB.AwaitEvents and flushes
//     each new batch as it lands. Every frame carries its sequence
//     number, so the stream is resumable: a replica reconnecting
//     after any failure asks for since=<its own EventSeq> and misses
//     nothing, and duplicate frames delivered across a reconnect are
//     dropped by sequence comparison.
//   - GET <mount>/snapshot returns an eventlog snapshot of a fresh
//     consistent checkpoint — the bootstrap path.
//
// The publisher answers 410 Gone on /events when the requested tail
// no longer exists: the prefix was compacted away (since <
// EventBase), the store was seeded with construction-time entities
// that never were events (since == 0 on a Seeded store, unless the
// client marks boot=1 — "my since=0 is a bootstrapped snapshot of
// your seed, not an empty store"), or the requested point is past the
// primary's head (a primary that crashed and lost its unsynced
// tail). 410 tells the replica to bootstrap: fetch /snapshot, decode
// it as it arrives (eventlog.ReadSnapshot checks its checksum before
// any of it reaches FromCheckpoint), rebuild from the checkpoint, wipe
// and restart its local persistence at the snapshot's sequence point,
// and — in the same attempt, with no reconnect wait — open /events
// from there. A bootstrap is progress; a 410 on the stream it earned
// is an ordinary failure and backs off like one, so a primary that
// compacts past every snapshot it serves cannot make a replica spin.
//
// Durability. The replica runs its own eventlog.Persister over its
// own directory, so a killed replica restarts from its local
// snapshot+WAL (eventlog.RestoreDir) and re-enters the stream at its
// durable offset — it never needs the primary's history twice unless
// the primary compacted past it. The write-behind window that can
// lose a primary's unsynced tail costs a replica nothing: its source
// of truth is the stream, re-fetched from whatever point its own WAL
// proves durable.
//
// Version skew. Unknown event types in the stream are skipped (the
// codec counts them) and the cursor accounting inside one connection
// stays correct; across a reconnect a replica that skipped events
// re-requests from its own sequence number, which has fallen behind
// the primary's by the skipped count. Mixed-version replication is
// therefore read-your-stream consistent only within a connection;
// upgrade replicas before primaries.
//
// Degradation. Reconnects back off exponentially with jitter — waits
// double from Options.ReconnectWait up to 32 times it, spread
// over [d/2, d] so a replica fleet cut by the same fault doesn't
// reconnect in lockstep — and any progress (a cursor advanced by
// applied events or a bootstrap, or a clean stream close) resets the
// wait to base. Status reports the
// connection state, applied/durable cursors, last-seen primary head
// (from the stream's X-Replication-Head header), and time since
// disconnect; Ready folds those into a single readiness verdict
// (stale-after and max-lag thresholds, plus the local persister's
// sticky error). Readiness is load-balancer advice, not an admission
// gate: a not-ready replica keeps serving its last-applied state —
// stale answers beat shed ones for this read-mostly corpus (Root
// labels them X-Served-Stale: 1).
//
// Serving. root.go wires both roles as an httpguard.Root, once:
// PrimaryRoot (the publisher and the status page outside admission,
// readiness = the persister, Close = its flush) and Replica.Root (the
// replication loop, a handler per store swapped when a bootstrap
// replaces it, the stale label, Close = end the loop then flush). The
// binaries, the fault schedules and the crash-recovery child all
// serve those.
//
// Fault seams. Options.Client accepts any http.Client, so a
// faultinject.Transport can script connection refusals, mid-frame
// stream cuts, and stalls; Options.FS threads a faultinject.FS into
// the replica's local persistence. The scripted schedules live in
// internal/chaos (partition mid-stream, flapping primary during
// bootstrap, serve-stale) and in this package's fan-out and
// crash-recovery tests.
package replica
