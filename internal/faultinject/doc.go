// Package faultinject makes failure a first-class, scriptable input.
//
// The durability and replication stack (internal/eventlog,
// internal/replica) reaches the outside world through exactly two
// seams: the filesystem and the HTTP transport. This package wraps
// both behind deterministic, schedule-driven injectors so tests can
// script the failures the paper's platform lived under — disk full
// mid-rotation, a torn fsync, a flapping primary, a connection cut
// mid-frame — and assert the system degrades instead of lying.
//
// # Schedules, not randomness
//
// An Injector holds an ordered list of Rules. Every operation that
// reaches a wrapped seam is matched against the rules by operation
// kind and path substring; each rule keeps its own count of matching
// calls and fires inside its [After, After+Count) window of that
// count. A schedule is therefore a pure function of the operation
// sequence — re-running the same test replays the same faults at the
// same points, with no sleeps, no clocks, and no seeds to tune.
// Multiple windows over the same operation express flapping; Count=0
// leaves a fault latched until Clear.
//
// # The two seams
//
//   - FS / File: the filesystem surface eventlog writes and restores
//     through. Injector.FS wraps any FS (usually OS) and can fail or
//     delay OpenFile/ReadDir/Stat (OpOpen), Read (OpRead: every byte
//     WAL replay and snapshot restore read), Write (including short
//     writes: half the buffer lands, then the error — a torn frame on
//     disk), Sync (the fsync barrier), Rename, Remove, and Truncate.
//     ErrNoSpace is the conventional disk-full error.
//
//   - Transport / Listener: the HTTP surface replication streams
//     over. Injector.Transport wraps an http.RoundTripper and can
//     refuse connections (OpRoundTrip), stall or cut response bodies
//     after a byte budget (OpBodyRead + CutAfter — a partition
//     mid-frame), or delay them. Injector.Listener wraps a
//     net.Listener for the server side: dropped accepts (OpAccept)
//     and connections that die after writing CutAfter bytes
//     (OpConnWrite).
//
// Every fired fault is recorded; Fired returns the trace so tests can
// assert a schedule actually executed the failure it scripted.
package faultinject
