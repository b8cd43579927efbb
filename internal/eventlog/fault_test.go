package eventlog

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"dissenter/internal/faultinject"
	"dissenter/internal/ids"
	"dissenter/internal/platform"
)

// faultStore builds a one-URL store whose sequence advances by exactly
// one per Vote call — the metronome the fault schedules count against.
func faultStore(t *testing.T) (*platform.DB, ids.ObjectID) {
	t.Helper()
	db := platform.New(nil, nil, nil, nil)
	gen := ids.NewGenerator(0xFA017)
	at := time.Unix(1_580_300_000, 0).UTC()
	cu := &platform.CommentURL{ID: gen.NewAt(at), URL: "https://example.test/fault", FirstSeen: at}
	db.SubmitURL(cu)
	return db, cu.ID
}

// errLog collects OnError notifications across goroutines.
type errLog struct {
	mu        sync.Mutex
	transient []error
	sticky    []error
}

func (l *errLog) hook(err error, sticky bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if sticky {
		l.sticky = append(l.sticky, err)
	} else {
		l.transient = append(l.transient, err)
	}
}

func (l *errLog) counts() (transient, sticky int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.transient), len(l.sticky)
}

// waitSticky blocks until the persister records a sticky error.
func waitSticky(t *testing.T, p *Persister) error {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if err := p.Err(); err != nil {
			return err
		}
		if time.Now().After(deadline) {
			t.Fatal("persister never went sticky")
		}
		time.Sleep(time.Millisecond)
	}
}

// assertRestoredEqual restores dir and requires byte-identical state
// (deterministic snapshot encoding) against want.
func assertRestoredEqual(t *testing.T, dir string, want *platform.DB) {
	t.Helper()
	restored, _, err := RestoreDir(dir)
	if err != nil {
		t.Fatalf("RestoreDir: %v", err)
	}
	if restored == nil {
		t.Fatal("RestoreDir found no state")
	}
	if got, exp := EncodeSnapshot(restored.Checkpoint()), EncodeSnapshot(want.Checkpoint()); !bytes.Equal(got, exp) {
		t.Fatalf("restored state diverged: seq %d vs %d, %d vs %d bytes",
			restored.EventSeq(), want.EventSeq(), len(got), len(exp))
	}
	if err := restored.Validate(); err != nil {
		t.Fatalf("restored store invalid: %v", err)
	}
}

// TestCommitRetrySurvivesTransientSyncFault pins the retry path: one
// injected fsync failure mid-commit is absorbed — the WAL is reopened,
// the durable point catches up, the loop stays healthy, and the hook
// saw exactly the transient error.
func TestCommitRetrySurvivesTransientSyncFault(t *testing.T) {
	dir := t.TempDir()
	db, url := faultStore(t)
	boom := errors.New("transient fsync fault")
	// wal sync #1 is CreateWAL's header sync; #2 is the first group
	// commit — the one the schedule fails.
	inj := faultinject.NewInjector(
		faultinject.Rule{Op: faultinject.OpSync, Path: "wal-", After: 1, Count: 1, Err: boom},
	)
	log := &errLog{}
	p, err := StartPersister(db, dir, Options{
		FS: inj.FS(nil), RetryWait: time.Millisecond, OnError: log.hook,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		db.Vote(url, 1, 0)
	}
	waitDurable(t, p, db.EventSeq())
	if err := p.Err(); err != nil {
		t.Fatalf("transient fault went sticky: %v", err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	transient, sticky := log.counts()
	if transient == 0 || sticky != 0 {
		t.Fatalf("notifications: %d transient, %d sticky; want >=1 transient, 0 sticky", transient, sticky)
	}
	if n := inj.FireCount(faultinject.OpSync); n != 1 {
		t.Fatalf("sync fault fired %d times, want 1", n)
	}
	assertRestoredEqual(t, dir, db)
}

// TestTornWriteRepairedOnRetry pins torn-tail repair inside the retry:
// a short write lands half a frame on disk, the reopen truncates it,
// and the recommit makes the batch whole. No torn page survives.
func TestTornWriteRepairedOnRetry(t *testing.T) {
	dir := t.TempDir()
	db, url := faultStore(t)
	// wal write #1 is CreateWAL's header; #2 is the first batch flush,
	// which tears halfway.
	inj := faultinject.NewInjector(
		faultinject.Rule{Op: faultinject.OpWrite, Path: "wal-", After: 1, Count: 1, ShortWrite: true, Err: faultinject.ErrNoSpace},
	)
	log := &errLog{}
	p, err := StartPersister(db, dir, Options{
		FS: inj.FS(nil), RetryWait: time.Millisecond, OnError: log.hook,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		db.Vote(url, 1, 0)
	}
	waitDurable(t, p, db.EventSeq())
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if n := inj.FireCount(faultinject.OpWrite); n != 1 {
		t.Fatalf("write fault fired %d times, want 1", n)
	}
	// The recovered WAL must replay cleanly end to end: the torn frame
	// was truncated, then rewritten whole.
	assertRestoredEqual(t, dir, db)
}

// TestStickyAfterRetryBudget pins the terminal path: a latched fsync
// fault outlasts the retry budget, the loop fails sticky (Err set, a
// sticky notification, Close reporting it), and the durable point
// freezes at the last good commit instead of lying.
func TestStickyAfterRetryBudget(t *testing.T) {
	dir := t.TempDir()
	db, url := faultStore(t)
	boom := errors.New("disk gone")
	inj := faultinject.NewInjector(
		faultinject.Rule{Op: faultinject.OpSync, Path: "wal-", After: 1, Err: boom},
	)
	log := &errLog{}
	p, err := StartPersister(db, dir, Options{
		FS: inj.FS(nil), RetryLimit: 2, RetryWait: time.Millisecond, OnError: log.hook,
	})
	if err != nil {
		t.Fatal(err)
	}
	durableBefore := p.Durable()
	db.Vote(url, 1, 0)
	serr := waitSticky(t, p)
	if !errors.Is(serr, boom) {
		t.Fatalf("sticky error = %v, want wrapped %v", serr, boom)
	}
	if got := p.Durable(); got != durableBefore {
		t.Fatalf("durable moved to %d under a latched fault, want %d", got, durableBefore)
	}
	transient, sticky := log.counts()
	if transient != 2 || sticky != 1 {
		t.Fatalf("notifications: %d transient, %d sticky; want 2 transient (the retries), 1 sticky", transient, sticky)
	}
	if cerr := p.Close(); !errors.Is(cerr, boom) {
		t.Fatalf("Close = %v, want the sticky error", cerr)
	}
}

// TestRotationFaultDegradesNotFatal pins that rotation failure is
// degradation: with snapshot writes failing, group commits keep
// landing on the old WAL and the loop stays healthy; a failed attempt
// is not repeated on the next batch but re-armed a record floor later
// (each attempt encodes the whole store); and once the fault clears
// and the WAL passes the re-arm point, it rotates.
func TestRotationFaultDegradesNotFatal(t *testing.T) {
	dir := t.TempDir()
	db, url := faultStore(t)
	// Snapshot write #1 is StartPersister's initial snapshot; every one
	// after that (the rotations) hits injected ENOSPC until Clear.
	inj := faultinject.NewInjector(
		faultinject.Rule{Op: faultinject.OpWrite, Path: ".snap", After: 1, Err: faultinject.ErrNoSpace},
	)
	log := &errLog{}
	const floor = 4
	p, err := StartPersister(db, dir, Options{
		RotateEvery: floor, FS: inj.FS(nil), RetryWait: time.Millisecond, OnError: log.hook,
	})
	if err != nil {
		t.Fatal(err)
	}
	base := db.EventBase()
	// One vote per group commit, so the number of batches is known: the
	// rotation is due from the 4th on, and an attempt per batch would
	// make 7 of them.
	const votes = 10
	for i := 0; i < votes; i++ {
		db.Vote(url, 1, 0)
		waitDurable(t, p, db.EventSeq())
	}
	if err := p.Err(); err != nil {
		t.Fatalf("rotation fault killed the loop: %v", err)
	}
	// An attempt follows the commit that made its batch durable, so
	// the first may still be ahead of us.
	deadline := time.Now().Add(10 * time.Second)
	for inj.FireCount(faultinject.OpWrite) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("rotation never hit the injected fault")
		}
		time.Sleep(time.Millisecond)
	}
	transient, sticky := log.counts()
	if transient == 0 || sticky != 0 {
		t.Fatalf("notifications: %d transient, %d sticky; want >=1 transient, 0 sticky", transient, sticky)
	}
	if transient > votes/floor {
		t.Fatalf("%d rotation attempts over %d single-record batches; want one per %d records", transient, votes, floor)
	}

	// Fault clears; a further record floor of writes carries the WAL
	// past the re-arm point, the rotation fires and the WAL base
	// finally advances.
	inj.Clear()
	for i := 0; i < floor; i++ {
		db.Vote(url, 1, 0)
	}
	waitDurable(t, p, db.EventSeq())
	deadline = time.Now().Add(10 * time.Second)
	for {
		wals, lerr := listSeqs(faultinject.OS, dir, "wal-", ".wal")
		if lerr == nil && len(wals) > 0 && wals[len(wals)-1] > base {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("WAL base never advanced past %d after the fault cleared (wals: %v)", base, wals)
		}
		time.Sleep(time.Millisecond)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	assertRestoredEqual(t, dir, db)
}

// TestDegradedRotationRestore pins the layout a rotation that made its
// snapshot durable but failed before creating the fresh WAL leaves
// behind: RestoreDir must combine the newest snapshot with the OLD
// WAL's tail past it — losing that tail would drop acked, durable
// events.
func TestDegradedRotationRestore(t *testing.T) {
	dir, db, url := degradedDir(t)
	// Every acked event survives: snapshot + old-WAL tail.
	assertRestoredEqual(t, dir, db)

	// And StartPersister heals the degraded directory back to steady
	// state: one snapshot, one WAL at the head.
	restored, _, err := RestoreDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := StartPersister(restored, dir, Options{})
	if err != nil {
		t.Fatalf("StartPersister on degraded dir: %v", err)
	}
	restored.Vote(url, 1, 0)
	waitDurable(t, p2, restored.EventSeq())
	if err := p2.Close(); err != nil {
		t.Fatal(err)
	}
	assertRestoredEqual(t, dir, restored)
}

// degradedDir persists a faultStore whose rotations each make their
// snapshot durable and then fail to create the fresh WAL, and returns
// the directory: the initial snapshot, at least one newer one, and the
// original WAL holding every event past the first.
func degradedDir(t *testing.T) (string, *platform.DB, ids.ObjectID) {
	t.Helper()
	dir := t.TempDir()
	db, url := faultStore(t)
	boom := errors.New("create refused")
	// wal opens #1-2 are StartPersister's Stat probe and the initial
	// CreateWAL; every later one (rotation's CreateWAL) fails, so each
	// rotation durably writes its snapshot and then aborts.
	inj := faultinject.NewInjector(
		faultinject.Rule{Op: faultinject.OpOpen, Path: "wal-", After: 2, Err: boom},
	)
	log := &errLog{}
	p, err := StartPersister(db, dir, Options{
		RotateEvery: 4, FS: inj.FS(nil), RetryWait: time.Millisecond, OnError: log.hook,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		db.Vote(url, 1, 0)
	}
	waitDurable(t, p, db.EventSeq())
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if n := inj.FireCount(faultinject.OpOpen); n == 0 {
		t.Fatal("rotation never hit the injected fault")
	}
	snaps, err := listSeqs(faultinject.OS, dir, "snap-", ".snap")
	if err != nil || len(snaps) < 2 {
		t.Fatalf("want a newer snapshot beside the initial one, got %v (%v)", snaps, err)
	}
	wals, err := listSeqs(faultinject.OS, dir, "wal-", ".wal")
	if err != nil || len(wals) != 1 || wals[0] != db.EventBase() {
		t.Fatalf("want only the original WAL at base %d, got %v (%v)", db.EventBase(), wals, err)
	}
	return dir, db, url
}

// TestRestoreWALReadError pins that a read error is never taken for a
// torn tail: a fault on the WAL's first read (its header) or on a later
// one (mid-frame, past the reader's first buffer) makes RestoreDirFS
// return the error and leaves the WAL byte for byte as it was, where a
// torn-tail verdict would have truncated acked events away.
func TestRestoreWALReadError(t *testing.T) {
	dir := t.TempDir()
	db, url := faultStore(t)
	p, err := StartPersister(db, dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ { // about 7 kB of frames
		db.Vote(url, 1, 0)
	}
	waitDurable(t, p, db.EventSeq())
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	wal := walPath(dir, db.EventBase())
	before, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("read fault")
	for _, after := range []int{0, 1} {
		inj := faultinject.NewInjector(faultinject.Rule{Op: faultinject.OpRead, Path: "wal-", After: after, Err: boom})
		restored, _, err := RestoreDirFS(inj.FS(nil), dir)
		if !errors.Is(err, boom) || restored != nil {
			t.Fatalf("read %d of the WAL failing: RestoreDirFS returned a store: %v, error %v; want only the fault", after+1, restored != nil, err)
		}
		if inj.FireCount(faultinject.OpRead) == 0 {
			t.Fatalf("read %d of the WAL: the fault never fired", after+1)
		}
		if now, err := os.ReadFile(wal); err != nil || !bytes.Equal(now, before) {
			t.Fatalf("read %d of the WAL failing changed the file: %d bytes, was %d (%v)", after+1, len(now), len(before), err)
		}
	}
	assertRestoredEqual(t, dir, db)
}

// TestRestoreSnapshotReadError pins restore's fallback on a snapshot it
// cannot read: with an older snapshot beside it, restore takes that one
// and the WAL tail past it and still equals the store; with none,
// restore fails instead of returning an empty store.
func TestRestoreSnapshotReadError(t *testing.T) {
	boom := errors.New("read fault")
	dir, db, _ := degradedDir(t)
	snaps, err := listSeqs(faultinject.OS, dir, "snap-", ".snap")
	if err != nil {
		t.Fatal(err)
	}
	newest := filepath.Base(snapPath(dir, snaps[len(snaps)-1]))
	inj := faultinject.NewInjector(faultinject.Rule{Op: faultinject.OpRead, Path: newest, Err: boom})
	restored, _, err := RestoreDirFS(inj.FS(nil), dir)
	if err != nil || restored == nil {
		t.Fatalf("RestoreDirFS with %s unreadable: %v; want the older snapshot's store", newest, err)
	}
	if inj.FireCount(faultinject.OpRead) == 0 {
		t.Fatal("the fault on the newest snapshot never fired")
	}
	if got, want := EncodeSnapshot(restored.Checkpoint()), EncodeSnapshot(db.Checkpoint()); !bytes.Equal(got, want) {
		t.Fatalf("restored from the older snapshot: seq %d, want %d", restored.EventSeq(), db.EventSeq())
	}

	dir = t.TempDir()
	db, url := faultStore(t)
	p, err := StartPersister(db, dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	db.Vote(url, 1, 0)
	waitDurable(t, p, db.EventSeq())
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	inj = faultinject.NewInjector(faultinject.Rule{Op: faultinject.OpRead, Path: ".snap", Err: boom})
	if restored, _, err := RestoreDirFS(inj.FS(nil), dir); !errors.Is(err, boom) || restored != nil {
		t.Fatalf("RestoreDirFS with its one snapshot unreadable returned a store: %v, error %v; want only the fault", restored != nil, err)
	}
	if inj.FireCount(faultinject.OpRead) == 0 {
		t.Fatal("the fault on the only snapshot never fired")
	}
}

// TestRestoreSkipsTornCreateWAL pins header-tear tolerance: a crash
// inside CreateWAL leaves a WAL file whose header never became whole.
// Such a file never held a record, so restore must skip past it to the
// older WAL instead of failing — and StartPersister must heal it.
func TestRestoreSkipsTornCreateWAL(t *testing.T) {
	dir := t.TempDir()
	db, url := faultStore(t)
	p, err := StartPersister(db, dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		db.Vote(url, 1, 0)
	}
	waitDurable(t, p, db.EventSeq())
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	// Hand-craft the crash window: the rotation snapshot became durable
	// and CreateWAL tore mid-header.
	db.Vote(url, 1, 0) // an event only the new snapshot covers
	if _, err := writeSnapshotFile(faultinject.OS, dir, db.Checkpoint()); err != nil {
		t.Fatal(err)
	}
	torn := walPath(dir, db.EventSeq())
	if err := os.WriteFile(torn, []byte("DWA"), 0o644); err != nil {
		t.Fatal(err)
	}

	assertRestoredEqual(t, dir, db)

	restored, _, err := RestoreDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := StartPersister(restored, dir, Options{})
	if err != nil {
		t.Fatalf("StartPersister with a torn CreateWAL header: %v", err)
	}
	restored.Vote(url, 1, 0)
	waitDurable(t, p2, restored.EventSeq())
	if err := p2.Close(); err != nil {
		t.Fatal(err)
	}
	assertRestoredEqual(t, dir, restored)
}

// TestCompactionBehindPersisterIsImmediatelySticky pins that losing
// the in-memory prefix is not retried: no amount of waiting brings the
// events back, so the first attempt goes straight to sticky.
func TestCompactionBehindPersisterIsImmediatelySticky(t *testing.T) {
	dir := t.TempDir()
	db, url := faultStore(t)
	// Once the first vote is durable, a latched WAL write fault keeps
	// durable from advancing, so the compaction below always lands
	// behind it (without the fault, a persister that commits both votes
	// first never sees the gap).
	inj := faultinject.NewInjector()
	log := &errLog{}
	p, err := StartPersister(db, dir, Options{
		FS: inj.FS(nil), RetryLimit: 50, RetryWait: time.Millisecond, OnError: log.hook,
	})
	if err != nil {
		t.Fatal(err)
	}
	db.Vote(url, 1, 0)
	waitDurable(t, p, db.EventSeq())
	inj.SetRules(faultinject.Rule{Op: faultinject.OpWrite, Path: "wal-", Err: faultinject.ErrNoSpace})
	// Compact beyond what the persister will see next: the next batch
	// finds its prefix gone and must fail sticky despite the generous
	// retry budget.
	db.Vote(url, 1, 0)
	db.Vote(url, 1, 0)
	db.CompactLog(db.EventSeq())
	serr := waitSticky(t, p)
	if !errors.Is(serr, errLogCompacted) {
		t.Fatalf("sticky error = %v, want errLogCompacted", serr)
	}
	if !strings.Contains(serr.Error(), "compacted") {
		t.Fatalf("sticky error %q does not name compaction", serr)
	}
	_, sticky := log.counts()
	if sticky != 1 {
		t.Fatalf("%d sticky notifications, want 1", sticky)
	}
	p.Close()
}
