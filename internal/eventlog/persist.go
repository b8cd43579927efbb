package eventlog

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dissenter/internal/faultinject"
	"dissenter/internal/platform"
)

// Directory layout: one snapshot plus one WAL at steady state, each
// named by the sequence point it starts from (zero-padded so
// lexicographic order is numeric order).

func snapPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("snap-%020d.snap", seq))
}

func walPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%020d.wal", seq))
}

// parseSeq extracts the sequence point from a snap-/wal- file name,
// reporting ok=false for names that are not ours.
func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	seq, err := strconv.ParseUint(name[len(prefix):len(name)-len(suffix)], 10, 64)
	return seq, err == nil
}

// listSeqs returns the sequence points of all matching files in dir,
// ascending.
func listSeqs(fsys faultinject.FS, dir, prefix, suffix string) ([]uint64, error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, e := range entries {
		if seq, ok := parseSeq(e.Name(), prefix, suffix); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// syncDir fsyncs the directory itself, making renames and creates
// durable.
func syncDir(fsys faultinject.FS, dir string) error {
	d, err := fsys.OpenFile(dir, os.O_RDONLY, 0)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeSnapshotFile writes cp durably — tmp file, fsync, rename into
// place, fsync the directory — and reports the snapshot's byte size.
// A failure at any step removes the tmp file, so no partial snapshot
// is ever left under a name RestoreDir reads.
func writeSnapshotFile(fsys faultinject.FS, dir string, cp platform.Checkpoint) (int64, error) {
	path := snapPath(dir, cp.Seq)
	tmp := path + ".tmp"
	f, err := fsys.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, err
	}
	size, err := WriteSnapshot(f, cp)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(tmp, path)
	}
	if err != nil {
		fsys.Remove(tmp)
		return 0, err
	}
	return size, syncDir(fsys, dir)
}

// readSnapshotFile streams one snapshot file through ReadSnapshot.
func readSnapshotFile(fsys faultinject.FS, path string) (platform.Checkpoint, error) {
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return platform.Checkpoint{}, err
	}
	defer f.Close()
	return ReadSnapshot(f)
}

// RestoreDir rebuilds a store from a persistence directory: the newest
// readable snapshot (FromCheckpoint), then the WAL tail past it
// replayed through the normal write paths (DB.ApplyEvent), with any
// torn tail truncated; a WAL read error fails it. A directory with no
// state (or that does not exist) returns (nil, 0, nil) — the caller
// starts from whatever seed it has. skipped counts WAL records dropped
// because their event type or codec version is unknown.
func RestoreDir(dir string) (db *platform.DB, skipped int, err error) {
	return RestoreDirFS(faultinject.OS, dir)
}

// RestoreDirFS is RestoreDir through an injectable filesystem.
func RestoreDirFS(fsys faultinject.FS, dir string) (db *platform.DB, skipped int, err error) {
	snaps, err := listSeqs(fsys, dir, "snap-", ".snap")
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, nil
		}
		return nil, 0, err
	}

	// Newest readable snapshot wins; older ones are the fallback if the
	// newest was half-written without its rename (which tmp+rename
	// prevents), the disk corrupted it or a read of it failed.
	var base uint64
	var rerr error
	for i := len(snaps) - 1; i >= 0 && db == nil; i-- {
		var cp platform.Checkpoint
		if cp, rerr = readSnapshotFile(fsys, snapPath(dir, snaps[i])); rerr == nil {
			db = platform.FromCheckpoint(cp)
			base = cp.Seq
		}
	}
	if db == nil && len(snaps) > 0 {
		return nil, 0, fmt.Errorf("eventlog: %s: no readable snapshot among %d: %w", dir, len(snaps), rerr)
	}

	// Pick the newest WAL starting at or before the snapshot. At steady
	// state that is the snapshot's own WAL; after a rotation that made
	// its snapshot durable but died before creating the fresh WAL, it is
	// the previous WAL, whose tail past the snapshot still holds durable
	// events that must not be lost. Records the snapshot already covers
	// are skipped by sequence number. A WAL whose header never became
	// whole (a crash inside CreateWAL) never accepted an append, so it
	// is skipped in favor of the next older one.
	wals, err := listSeqs(fsys, dir, "wal-", ".wal")
	if err != nil {
		return nil, 0, err
	}
	var cands []uint64
	for _, seq := range wals {
		if seq <= base {
			cands = append(cands, seq)
		}
	}
	fresh := db == nil
	if fresh {
		if len(cands) == 0 {
			return nil, 0, nil
		}
		// No snapshot was ever cut; a WAL from sequence 0 alone is a
		// complete history for a store born empty.
		db = platform.New(nil, nil, nil, nil)
	}

	opened := false
	for i := len(cands) - 1; i >= 0 && !opened; i-- {
		w, skip, werr := OpenWALFS(fsys, walPath(dir, cands[i]), func(rec Record) error {
			if rec.Seq > base {
				db.ApplyEvent(rec.Event)
			}
			return nil
		})
		if werr != nil {
			if errors.Is(werr, errBadWALHeader) {
				continue
			}
			return nil, 0, werr
		}
		skipped = skip
		w.Close()
		opened = true
	}
	if fresh && !opened {
		return nil, 0, nil
	}
	return db, skipped, nil
}

// Options tunes a Persister.
type Options struct {
	// RotateEvery is the record floor of the rotation rule: the
	// Persister cuts a snapshot, starts a fresh WAL and compacts the
	// in-memory log once the WAL holds at least this many records AND
	// its bytes reach 1/rotateDiv of the snapshot's. The floor keeps a
	// small store from rotating on every batch (and spaces the retries
	// of a failed rotation); the byte condition decides on a large
	// one. Default 4096.
	RotateEvery int
	// FS is the filesystem every durability operation goes through.
	// Nil means the real filesystem; tests pass an Injector-wrapped FS
	// to script disk faults.
	FS faultinject.FS
	// RetryLimit bounds how many times a failed group commit is
	// retried (reopening the WAL between attempts) before the loop
	// goes sticky-failed. 0 means the default (4); negative disables
	// retries entirely.
	RetryLimit int
	// RetryWait is the base delay between commit retries; each retry
	// doubles it, capped at 32x. 0 means the default (25ms).
	RetryWait time.Duration
	// OnError observes durability failures as they happen: transient
	// commit errors about to be retried and rotation failures the loop
	// absorbs arrive with sticky=false; the terminal error that stops
	// the loop arrives with sticky=true. Called from the persister
	// goroutine — keep it fast and non-blocking.
	OnError func(err error, sticky bool)
}

// rotateDiv is the geometric rotation rule's one constant: a WAL is
// rotated once it has grown to 1/rotateDiv of the snapshot it extends,
// so a snapshot — a full encoding of a store that never shrinks — is
// written only after the log has earned it. Two bounds follow. Per
// byte logged a rotation rewrites at most rotateDiv bytes of old
// snapshot plus the logged entities' own snapshot form (under one
// byte), so bytes written stay under 2 + rotateDiv per byte logged at
// any store size (a fixed record count measured 47–52 at 300k
// entities, growing with the store). And recovery replays at most
// 1/rotateDiv of the snapshot plus one batch. Like respcache's
// rebaselineDiv it is a constant: nothing needs a second value.
const rotateDiv = 4

// commitGap paces the group commit: the loop starts a commit no sooner
// than commitGap after the previous one started, so a busy store pays
// one fsync per commitGap instead of one per handful of events (3–4 on
// comment_storm, where the primary's and the replica's fsyncs kept both
// cores busy). An idle persister commits at once, Close never waits on
// it, and since a write is acknowledged before it is durable it costs no
// ack latency: the ack-to-durable window grows by at most commitGap.
// Like rotateDiv it is a constant: nothing needs a second value.
const commitGap = time.Millisecond

// errLogCompacted means the in-memory log no longer reaches back to
// the durable point — unrecoverable by retrying, since the events are
// simply gone.
var errLogCompacted = errors.New("eventlog: event log compacted past the durable point")

// Persister is the write-behind durability loop for one DB: it tails
// the in-memory event log, group-commits batches to the WAL — paced, a
// commit starting no sooner than commitGap after the previous one — and
// rotates WAL→snapshot by the geometric rule (rotateDiv), so the WAL
// and the in-memory log stay within a fixed fraction of the snapshot
// and a write costs what it adds. Write-behind means a write is
// acknowledged to HTTP clients before it is durable (the pacing widens
// that window by at most commitGap); a primary crash can lose the
// unsynced tail — the replication design accepts this (the paper's
// workload is a measurement simulation, not a bank), and a REPLICA
// never loses anything, because its source of truth is the primary's
// stream, which it re-fetches from its durable offset on restart.
//
// Transient I/O errors do not kill the loop: a failed group commit is
// retried up to Options.RetryLimit times with capped exponential
// backoff, reopening the WAL between attempts (the buffered writer
// holds sticky errors; reopening also repairs any torn tail the
// failure left). Only after the retry budget is spent does the
// Persister fail sticky — observable via Err and the OnError hook, so
// a serving layer can flip readiness instead of silently dropping
// durability.
type Persister struct {
	db        *platform.DB
	dir       string
	fs        faultinject.FS
	rotate    uint64 // Options.RotateEvery: the record floor
	retries   int
	retryWait time.Duration
	onError   func(err error, sticky bool)

	wal       *WAL
	walBroken bool
	snapBytes int64  // size of the snapshot p.wal extends
	rotateAt  uint64 // durable point from which the record floor is met
	durable   atomic.Uint64
	stop      chan struct{}
	done      chan struct{}

	mu  sync.Mutex
	err error
}

// StartPersister attaches a durability loop to db, persisting into
// dir. The directory must either be empty/new, or hold the state db
// was just restored from (RestoreDir) — the WAL on disk must end at or
// before db's current head, and start at db's compaction base.
// An empty directory gets an initial snapshot of db's current state
// (covering any construction-time seed, which the event stream alone
// would not), so the directory is self-contained from the start. A
// degraded directory (snapshot without its WAL, from a crashed
// rotation) is healed the same way: fresh snapshot, fresh WAL,
// superseded files removed.
func StartPersister(db *platform.DB, dir string, opt Options) (*Persister, error) {
	if opt.RotateEvery <= 0 {
		opt.RotateEvery = 4096
	}
	if opt.FS == nil {
		opt.FS = faultinject.OS
	}
	if opt.RetryLimit == 0 {
		opt.RetryLimit = 4
	} else if opt.RetryLimit < 0 {
		opt.RetryLimit = 0
	}
	if opt.RetryWait <= 0 {
		opt.RetryWait = 25 * time.Millisecond
	}
	if err := opt.FS.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	p := &Persister{
		db:        db,
		dir:       dir,
		fs:        opt.FS,
		rotate:    uint64(opt.RotateEvery),
		retries:   opt.RetryLimit,
		retryWait: opt.RetryWait,
		onError:   opt.OnError,
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}

	base := db.EventBase()
	if _, err := p.fs.Stat(walPath(dir, base)); err == nil {
		// Resuming a directory the store was restored from: scan the
		// WAL (no replay — db already reflects it) to find the durable
		// point and position for append. A never-completed header (a
		// crash inside CreateWAL) falls through to the healing branch.
		w, _, err := OpenWALFS(p.fs, walPath(dir, base), nil)
		if err != nil && !errors.Is(err, errBadWALHeader) {
			return nil, err
		}
		if w != nil {
			if head := db.EventSeq(); w.LastSeq() > head {
				w.Close()
				return nil, fmt.Errorf("eventlog: %s: WAL ends at %d beyond the store head %d — restore the store from this directory first", dir, w.LastSeq(), head)
			}
			p.wal = w
			p.rotateAt = base + p.rotate
			// The snapshot this WAL extends sets the byte threshold, as
			// it did for the process that wrote it; a WAL from sequence 0
			// of a store born empty has none, and any size rotates it.
			if st, err := p.fs.Stat(snapPath(dir, base)); err == nil {
				p.snapBytes = st.Size()
			}
		}
	}
	if p.wal == nil {
		// Fresh or degraded directory: a rotation from no WAL at all cuts
		// the initial snapshot (so seed entities are covered), opens the
		// WAL right after it, and drops anything superseded.
		if err := p.rotateFiles(); err != nil {
			return nil, err
		}
	}
	p.durable.Store(p.wal.LastSeq())
	go p.loop()
	return p, nil
}

// Durable returns the highest sequence number guaranteed on disk.
func (p *Persister) Durable() uint64 { return p.durable.Load() }

// Err returns the loop's sticky error, if it has stopped on one.
func (p *Persister) Err() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

func (p *Persister) fail(err error) {
	p.mu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.mu.Unlock()
}

func (p *Persister) notify(err error, sticky bool) {
	if p.onError != nil {
		p.onError(err, sticky)
	}
}

// Close drains outstanding events to the WAL, fsyncs, and stops the
// loop. It returns the loop's sticky error, if any.
func (p *Persister) Close() error {
	close(p.stop)
	<-p.done
	return p.Err()
}

type commitResult int

const (
	commitOK commitResult = iota
	commitStopped
	commitFailed
)

func (p *Persister) loop() {
	defer close(p.done)
	var started time.Time // when the previous commit started
	for {
		if !p.db.AwaitEvents(p.durable.Load(), p.stop) || !p.pace(started) {
			p.drain()
			p.closeWAL()
			return
		}
		started = time.Now()
		switch p.commitRetry() {
		case commitStopped:
			p.drain()
			p.closeWAL()
			return
		case commitFailed:
			p.closeWAL()
			return
		}
		if durable := p.durable.Load(); durable >= p.rotateAt && p.wal.Size()*rotateDiv >= p.snapBytes {
			if err := p.rotateFiles(); err != nil {
				// Rotation failing is degradation, not death: the old
				// WAL keeps group-committing. An attempt encodes the
				// whole store and a full disk fails every one, so the
				// next waits for another record floor of log, not for
				// the next batch.
				p.rotateAt = durable + p.rotate
				p.notify(fmt.Errorf("eventlog: rotation failed (will retry): %w", err), false)
			}
		}
	}
}

// pace waits out the rest of commitGap since the commit that started at
// started, and reports false if Close cut the wait short.
func (p *Persister) pace(started time.Time) bool {
	wait := commitGap - time.Since(started)
	if wait <= 0 {
		return true
	}
	t := time.NewTimer(wait)
	defer t.Stop()
	select {
	case <-p.stop:
		return false
	case <-t.C:
		return true
	}
}

// commitBatch appends everything past the durable point and fsyncs
// once — the group commit. Events dispatched while the fsync runs ride
// in the next batch.
func (p *Persister) commitBatch() error {
	durable := p.durable.Load()
	evs, ok := p.db.EventsSince(durable)
	if !ok {
		// Only this loop compacts, always at or below the durable
		// point, so a missing prefix means the DB was compacted behind
		// our back.
		return fmt.Errorf("%w: %d", errLogCompacted, durable)
	}
	for i, ev := range evs {
		if err := p.wal.Append(Record{Seq: durable + 1 + uint64(i), Event: ev}); err != nil {
			return err
		}
	}
	if err := p.wal.Sync(); err != nil {
		return err
	}
	p.durable.Store(durable + uint64(len(evs)))
	return nil
}

// commitRetry is commitBatch with the retry policy wrapped around it:
// on failure the WAL is marked broken (its buffered writer holds
// sticky errors and the file may end in a torn frame), and each
// attempt first repairs it by reopening. Backoff doubles per attempt,
// capped at 32x the base wait; the stop channel cuts the wait short.
func (p *Persister) commitRetry() commitResult {
	wait := p.retryWait
	for attempt := 0; ; attempt++ {
		err := p.recoverIfBroken()
		if err == nil {
			if err = p.commitBatch(); err == nil {
				return commitOK
			}
			if errors.Is(err, errLogCompacted) {
				// Not an I/O fault — the events are gone. Retrying
				// cannot help.
				p.fail(err)
				p.notify(err, true)
				return commitFailed
			}
			p.walBroken = true
		}
		if attempt >= p.retries {
			err = fmt.Errorf("eventlog: group commit failed after %d attempts: %w", attempt+1, err)
			p.fail(err)
			p.notify(err, true)
			return commitFailed
		}
		p.notify(fmt.Errorf("eventlog: group commit failed (attempt %d of %d, retrying): %w", attempt+1, p.retries+1, err), false)
		select {
		case <-p.stop:
			return commitStopped
		case <-time.After(wait):
		}
		if wait < 32*p.retryWait {
			wait *= 2
		}
	}
}

// recoverIfBroken repairs the WAL after a failed commit: close the
// handle (ignoring its own errors — the writer is sticky), reopen with
// torn-tail truncation, fsync what survived, and reset the durable
// point to the recovered tail. Recovered frames that were flushed but
// never synced become durable here, so the durable point only moves
// forward.
func (p *Persister) recoverIfBroken() error {
	if !p.walBroken {
		return nil
	}
	p.wal.abort()
	w, _, err := OpenWALFS(p.fs, p.wal.Path(), nil)
	if err != nil {
		return err
	}
	if err := w.Sync(); err != nil {
		w.abort()
		return err
	}
	p.wal = w
	p.durable.Store(w.LastSeq())
	p.walBroken = false
	return nil
}

// drain is the shutdown commit: one repair attempt, one batch,
// failures recorded for Close to report.
func (p *Persister) drain() {
	if p.wal == nil {
		return
	}
	if err := p.recoverIfBroken(); err != nil {
		p.fail(err)
		return
	}
	if err := p.commitBatch(); err != nil {
		p.walBroken = true
		p.fail(err)
	}
}

func (p *Persister) closeWAL() {
	if p.wal == nil {
		return
	}
	if p.walBroken {
		p.wal.abort()
		return
	}
	if err := p.wal.Close(); err != nil {
		p.fail(err)
	}
}

// removeBelow deletes snapshots and WALs superseded by the sequence
// point seq. Best-effort: leftovers cost disk, not correctness.
func (p *Persister) removeBelow(seq uint64) {
	if snaps, err := listSeqs(p.fs, p.dir, "snap-", ".snap"); err == nil {
		for _, s := range snaps {
			if s < seq {
				p.fs.Remove(snapPath(p.dir, s))
			}
		}
	}
	if wals, err := listSeqs(p.fs, p.dir, "wal-", ".wal"); err == nil {
		for _, s := range wals {
			if s < seq {
				p.fs.Remove(walPath(p.dir, s))
			}
		}
	}
}

// rotateFiles cuts a checkpoint, makes it durable, starts a fresh WAL
// at its sequence point, removes the superseded files, and compacts
// the in-memory log. A crash or fault between any two steps leaves a
// directory RestoreDir still reads correctly: the newest snapshot plus
// the newest WAL at or before it cover everything the old pair did.
// StartPersister initializes a fresh or degraded directory through the
// same sequence, with no old WAL to retire.
func (p *Persister) rotateFiles() error {
	cp := p.db.Checkpoint()
	size, err := writeSnapshotFile(p.fs, p.dir, cp)
	if err != nil {
		return err
	}
	newWAL, err := CreateWALFS(p.fs, walPath(p.dir, cp.Seq), cp.Seq)
	if err != nil {
		return err
	}
	if err := syncDir(p.fs, p.dir); err != nil {
		newWAL.Close()
		p.fs.Remove(newWAL.Path())
		return err
	}
	if p.wal != nil {
		p.wal.Close()
	}
	p.wal = newWAL
	p.snapBytes = size
	p.rotateAt = cp.Seq + p.rotate
	p.durable.Store(cp.Seq)
	p.removeBelow(cp.Seq)
	p.db.CompactLog(cp.Seq)
	return nil
}
