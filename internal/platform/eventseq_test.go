package platform

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"dissenter/internal/ids"
)

// TestEventLogCompaction is the ISSUE-6 regression test: EventSeq and
// EventsSince must stay correct after snapshot+truncation — head =
// snapshot base + retained tail, never just the resident events.
func TestEventLogCompaction(t *testing.T) {
	db := freshReplayTarget()
	base := time.Unix(1_540_000_000, 0)
	for i := 0; i < 10; i++ {
		db.AddUser(&User{GabID: ids.GabID(9000 + i), Username: fmt.Sprintf("compact-%d", i), CreatedAt: base})
	}
	if got := db.EventSeq(); got != 10 {
		t.Fatalf("EventSeq = %d before compaction, want 10", got)
	}

	if dropped := db.CompactLog(6); dropped != 6 {
		t.Fatalf("CompactLog(6) dropped %d, want 6", dropped)
	}
	if got := db.EventBase(); got != 6 {
		t.Fatalf("EventBase = %d after CompactLog(6), want 6", got)
	}
	if got := db.EventSeq(); got != 10 {
		t.Fatalf("EventSeq = %d after compaction, want 10 (base 6 + tail 4)", got)
	}

	// EventsSince straddling the compaction point.
	if _, ok := db.EventsSince(3); ok {
		t.Fatal("EventsSince(3) reported ok across a compacted prefix")
	}
	evs, ok := db.EventsSince(6)
	if !ok || len(evs) != 4 {
		t.Fatalf("EventsSince(6) = %d events, ok=%v; want the 4-event tail, true", len(evs), ok)
	}
	if ev, ok := evs[0].(UserAdded); !ok || ev.User.GabID != 9006 {
		t.Fatalf("tail starts at %v, want UserAdded gab 9006 (seq 7)", evs[0])
	}
	evs, ok = db.EventsSince(9)
	if !ok || len(evs) != 1 {
		t.Fatalf("EventsSince(9) = %d events, ok=%v; want 1, true", len(evs), ok)
	}
	if evs, ok = db.EventsSince(10); !ok || len(evs) != 0 {
		t.Fatalf("EventsSince(head) = %d events, ok=%v; want 0, true", len(evs), ok)
	}

	// Compacting past the head clamps; re-compacting a compacted prefix
	// is a no-op.
	if dropped := db.CompactLog(99); dropped != 4 {
		t.Fatalf("CompactLog(99) dropped %d, want the 4 remaining", dropped)
	}
	if dropped := db.CompactLog(5); dropped != 0 {
		t.Fatalf("CompactLog(5) after base=10 dropped %d, want 0", dropped)
	}
	if got := db.EventSeq(); got != 10 {
		t.Fatalf("EventSeq = %d after full compaction, want 10", got)
	}

	// The log keeps counting from where it left off.
	db.Vote(firstURL(db).ID, 1, 0)
	if got, want := db.EventSeq(), uint64(11); got != want {
		t.Fatalf("EventSeq = %d after post-compaction write, want %d", got, want)
	}
}

// firstURL returns the first URL in insertion order.
func firstURL(db *DB) *CommentURL {
	var out *CommentURL
	db.RangeURLs(func(cu *CommentURL) bool {
		out = cu
		return false
	})
	return out
}

// TestCheckpointRestore pins the snapshot contract: a store rebuilt
// with FromCheckpoint renders the same views as the source (vote
// deltas folded into the URL records), resumes at the checkpoint's
// sequence point, and converges with the source again when the
// post-checkpoint event tail is replayed on top.
func TestCheckpointRestore(t *testing.T) {
	src := freshReplayTarget()
	mutateForReplay(src)

	cp := src.Checkpoint()
	if cp.Seq != src.EventSeq() {
		t.Fatalf("checkpoint seq %d != quiesced head %d", cp.Seq, src.EventSeq())
	}
	restored := FromCheckpoint(cp)
	if got := restored.EventSeq(); got != cp.Seq {
		t.Fatalf("restored EventSeq = %d, want %d", got, cp.Seq)
	}
	if evs, ok := restored.EventsSince(cp.Seq); !ok || len(evs) != 0 {
		t.Fatalf("restored EventsSince(cp.Seq) = %d events, ok=%v; want empty tail", len(evs), ok)
	}
	if err := restored.Validate(); err != nil {
		t.Fatalf("restored store invalid: %v", err)
	}
	if got, want := viewFingerprint(restored), viewFingerprint(src); got != want {
		t.Fatalf("restored views diverge from source:\n--- source ---\n%s\n--- restored ---\n%s", want, got)
	}
	if src.Census() != restored.Census() {
		t.Fatalf("census diverged: src %+v, restored %+v", src.Census(), restored.Census())
	}

	// Events applied after the cut replay onto the restored store and
	// the two converge again.
	mutateAfter := func(db *DB) {
		gen := ids.NewGenerator(0xF00D)
		base := time.Unix(1_550_000_000, 0)
		author := db.DissenterUsers()[0]
		cu := firstURL(db)
		db.AddComment(&Comment{
			ID: gen.NewAt(base), URLID: cu.ID, AuthorID: author.AuthorID,
			Text: "post-checkpoint", CreatedAt: base,
		})
		db.Vote(cu.ID, 3, 1)
	}
	mutateAfter(src)
	evs, ok := src.EventsSince(cp.Seq)
	if !ok || len(evs) != 2 {
		t.Fatalf("EventsSince(cp.Seq) = %d events, ok=%v; want 2, true", len(evs), ok)
	}
	for _, ev := range evs {
		restored.ApplyEvent(ev)
	}
	if got := restored.EventSeq(); got != src.EventSeq() {
		t.Fatalf("replica seq %d != source seq %d", got, src.EventSeq())
	}
	if got, want := viewFingerprint(restored), viewFingerprint(src); got != want {
		t.Fatalf("post-checkpoint replay diverged:\n--- source ---\n%s\n--- restored ---\n%s", want, got)
	}
}

// TestCheckpointUnderConcurrentWrites cuts checkpoints while writers
// stream: every cut must be internally consistent (Validate passes on
// the restored store) and its Seq must cover exactly the writes it
// contains — pinned by replaying the source's post-cut events on top
// and comparing to the quiesced source.
func TestCheckpointUnderConcurrentWrites(t *testing.T) {
	src := freshReplayTarget()
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		mutateForReplay(src)
	}()

	var cps []Checkpoint
	go func() {
		defer close(done)
		wg.Wait()
	}()
	for {
		select {
		case <-done:
		default:
			cps = append(cps, src.Checkpoint())
			time.Sleep(2 * time.Millisecond)
			continue
		}
		break
	}

	finalFP := viewFingerprint(src)
	for i, cp := range cps {
		restored := FromCheckpoint(cp)
		if err := restored.Validate(); err != nil {
			t.Fatalf("checkpoint %d (seq %d) restored invalid: %v", i, cp.Seq, err)
		}
		evs, ok := src.EventsSince(cp.Seq)
		if !ok {
			t.Fatalf("checkpoint %d: source compacted past seq %d", i, cp.Seq)
		}
		for _, ev := range evs {
			restored.ApplyEvent(ev)
		}
		if got := viewFingerprint(restored); got != finalFP {
			t.Fatalf("checkpoint %d (seq %d) + tail diverges from source:\n--- source ---\n%s\n--- restored ---\n%s",
				i, cp.Seq, finalFP, got)
		}
	}
	if len(cps) == 0 {
		t.Fatal("no checkpoints cut while writers ran")
	}
}

// countingView records the events it sees — a minimal external
// RegisterView consumer.
type countingView struct {
	mu      sync.Mutex
	applied int
	rebuilt int
}

func (v *countingView) Apply(db *DB, ev Event) {
	v.mu.Lock()
	v.applied++
	v.mu.Unlock()
}
func (v *countingView) Rebuild(db *DB) {
	v.mu.Lock()
	v.rebuilt++
	v.mu.Unlock()
}

// TestRegisterViewLateAttach pins the public registration seam: a view
// attached after writes gets a Rebuild to catch up and then sees every
// subsequent event exactly once.
func TestRegisterViewLateAttach(t *testing.T) {
	db := freshReplayTarget()
	base := time.Unix(1_560_000_000, 0)
	db.AddUser(&User{GabID: 7001, Username: "early", CreatedAt: base})

	v := &countingView{}
	db.RegisterView(v)
	if v.rebuilt != 1 {
		t.Fatalf("Rebuild ran %d times at registration, want 1", v.rebuilt)
	}
	if v.applied != 0 {
		t.Fatalf("view saw %d pre-registration events via Apply, want 0", v.applied)
	}
	db.AddUser(&User{GabID: 7002, Username: "late", CreatedAt: base})
	db.AddFollow(7001, 7002)
	if v.applied != 2 {
		t.Fatalf("view saw %d post-registration events, want 2", v.applied)
	}
}

// TestRegisterViewIdempotent: registering the same view value again
// neither rebuilds it nor attaches a second copy — each event still
// reaches it once — while a distinct value of the same type attaches
// normally.
func TestRegisterViewIdempotent(t *testing.T) {
	db := freshReplayTarget()
	v, w := &countingView{}, &countingView{}
	db.RegisterView(v)
	db.RegisterView(v)
	db.RegisterView(w)
	db.AddUser(&User{GabID: 7003, Username: "once", CreatedAt: time.Unix(1_560_000_000, 0)})
	if v.rebuilt != 1 || v.applied != 1 {
		t.Fatalf("twice-registered view: %d rebuilds, %d applies of one event; want 1 and 1", v.rebuilt, v.applied)
	}
	if w.rebuilt != 1 || w.applied != 1 {
		t.Fatalf("second view: %d rebuilds, %d applies; want 1 and 1", w.rebuilt, w.applied)
	}
}

// TestAwaitEvents pins the poll-free edge the persister and the
// replication stream block on.
func TestAwaitEvents(t *testing.T) {
	db := freshReplayTarget()
	db.AddUser(&User{GabID: 7099, Username: "pre", CreatedAt: time.Unix(1_560_000_000, 0)})
	seq := db.EventSeq()

	// Already-passed sequence points return immediately.
	if !db.AwaitEvents(seq-1, nil) {
		t.Fatal("AwaitEvents below head did not return true")
	}

	woke := make(chan bool, 1)
	go func() { woke <- db.AwaitEvents(seq, nil) }()
	select {
	case <-woke:
		t.Fatal("AwaitEvents at head returned before a write")
	case <-time.After(20 * time.Millisecond):
	}
	db.AddUser(&User{GabID: 7100, Username: "waker", CreatedAt: time.Unix(1_560_000_000, 0)})
	select {
	case ok := <-woke:
		if !ok {
			t.Fatal("AwaitEvents woke false after a write")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("AwaitEvents did not wake on dispatch")
	}

	// Cancellation via done.
	done := make(chan struct{})
	go func() { woke <- db.AwaitEvents(db.EventSeq(), done) }()
	close(done)
	select {
	case ok := <-woke:
		if ok {
			t.Fatal("cancelled AwaitEvents returned true")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("AwaitEvents ignored done")
	}
}

// TestSeededFlag pins the replication-bootstrap rule's input.
func TestSeededFlag(t *testing.T) {
	if New(nil, nil, nil, nil).Seeded() {
		t.Fatal("empty store reports Seeded")
	}
	if !freshReplayTarget().Seeded() {
		t.Fatal("seeded store reports !Seeded")
	}
	empty := New(nil, nil, nil, nil)
	empty.AddUser(&User{GabID: 1, Username: "only-events", CreatedAt: time.Unix(1_560_000_000, 0)})
	if empty.Seeded() {
		t.Fatal("event-built store reports Seeded — its stream IS replayable from 0")
	}
}
