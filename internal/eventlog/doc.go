// Package eventlog gives the platform's event pipeline a durable,
// versioned binary form: the codec that puts platform.Event values on
// a wire or a disk, the write-ahead log (WAL) that makes dispatched
// events crash-safe, the snapshot format that bounds WAL replay and
// in-memory log growth, and the Persister that ties the three to a
// live platform.DB. internal/replica streams the same encoded records
// over HTTP, so "a WAL file" and "a replication stream" are one
// format.
//
// # Record format (codec.go)
//
// Every event is one self-delimiting, checksummed frame:
//
//	u32  payload length (big-endian)
//	u32  CRC-32C (Castagnoli) of the payload
//	payload:
//	    u8       codec version (CodecVersion)
//	    string   event wire name (uvarint length + bytes)
//	    uvarint  sequence number (1-based position in dispatch order)
//	    body     event-specific fields
//
// Bodies are built from four primitives: uvarint/varint
// (encoding/binary), length-prefixed UTF-8 strings, raw 12-byte
// ObjectIDs, and times as varint Unix seconds + uvarint nanoseconds
// (the zero time is preserved exactly). Bool sets (user flags, view
// filters, comment labels) are bit-packed in declared field order.
//
// # Compatibility rule
//
// The encoding is a public contract with two growth paths:
//
//   - New fields are APPENDED to a body and default to their zero
//     value when absent: decoders read the fields they know and treat
//     a body that ends cleanly at a field boundary as "the rest are
//     zero", and ignore trailing bytes they do not understand. Fields
//     are never reordered, retyped, or removed within a version.
//   - New event types get new wire names. A decoder skips records
//     whose name (or whole codec version) it does not know — counting
//     them via Decoder.Skipped, never failing — so old readers survive
//     new writers' streams and WAL files.
//
// Corruption is different from unfamiliarity: a frame whose checksum
// mismatches, whose length field is implausible, or whose body is cut
// mid-field is an error, because the transport (disk, TCP) promised
// integrity. The WAL opener and the replication stream share one
// reader (Decoder) and differ only in what they do with a bad frame: a
// replica drops the stream and resumes at its cursor, the WAL opener
// truncates at the last whole record (a torn tail write). A read error
// is neither: it fails the open.
//
// # Snapshot format (snapshot.go)
//
// A snapshot is a platform.Checkpoint — a consistent cut of the base
// entities at a known sequence point, vote deltas folded in — encoded
// as:
//
//	"DSNP" magic, u8 version, uvarint sequence point,
//	four sections (users, urls, comments, follow edges), each a
//	uvarint count followed by length-prefixed entity bodies,
//	u32 CRC-32C of everything above.
//
// WriteSnapshot is the only encoder: it streams entity by entity
// through a buffered writer under a running checksum, so the
// rotation's file, the replication bootstrap response and
// EncodeSnapshot's in-memory form are one code path, which allocates
// O(1) objects per snapshot (EncodeSnapshot adds a copy of each 64 kB
// flush and the result they are joined into). ReadSnapshot is the only decoder, its
// mirror image: it parses entity by entity from a buffered reader as
// the bytes arrive, so a bootstrapping replica decodes while the
// primary encodes, and RestoreDir streams a snapshot file through it
// alike; it returns nothing until the checksum and the end of the
// stream are verified. Counts on the wire bound loops, not allocations
// — records, like a frame's payload, land in buffers grown as the bytes
// arrive — so a corrupt or hostile header costs what its bytes cost.
//
// # Files on disk (wal.go, persist.go)
//
// A persistence directory holds at steady state one snapshot and one
// WAL, both named by the sequence point they start from:
//
//	snap-<seq>.snap   state through event <seq>
//	wal-<seq>.wal     header ("DWAL", version, uvarint base), then
//	                  records <seq>+1, <seq>+2, ... as frames
//
// The Persister is a write-behind group-commit loop: it tails the
// in-memory event log (DB.AwaitEvents/EventsSince), appends each new
// batch to the WAL, fsyncs once per batch, and — when the rotation rule
// holds — cuts a fresh checkpoint, streams it tmp+rename+dir-sync,
// starts a new WAL at the checkpoint's sequence point, deletes the old
// pair, and calls DB.CompactLog so the in-memory log stops growing.
// The rule is geometric (rotateDiv in persist.go): the WAL holds at
// least Options.RotateEvery records AND four times its bytes reach the
// bytes of the snapshot it extends, so the store's size sets how much
// log must accumulate before re-encoding the store is worth it. A
// rotation that fails (a full disk) is attempted again a record floor
// later, never per batch. RestoreDir inverts the layout: newest valid
// snapshot, then WAL replay through DB.ApplyEvent.
//
// The group commit is paced (commitGap in persist.go, 1 ms): a commit
// starts no sooner than commitGap after the previous one started, so
// under load each fsync covers every event dispatched in the last
// commitGap instead of the few that arrived during the previous fsync,
// and a write that reaches an idle persister commits at once. Close
// never waits on the pace. Writes are acknowledged before they are
// durable either way; the pacing widens that window by at most
// commitGap. A replica's persister runs the same loop, so it paces too;
// the Publisher streams from memory and does not.
package eventlog
