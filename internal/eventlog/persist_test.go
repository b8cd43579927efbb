package eventlog

import (
	"testing"
	"time"

	"dissenter/internal/ids"
	"dissenter/internal/platform"
	"dissenter/internal/synth"
)

// waitDurable blocks until the persister's durable point reaches seq.
func waitDurable(t *testing.T, p *Persister, seq uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for p.Durable() < seq {
		if err := p.Err(); err != nil {
			t.Fatalf("persister failed at durable %d: %v", p.Durable(), err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("persister stuck at durable %d, want %d", p.Durable(), seq)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPersisterRestore pins the full durability cycle: write through a
// persisted store, close, RestoreDir, and get an equivalent store
// whose sequence cursor continues where the original stopped.
func TestPersisterRestore(t *testing.T) {
	dir := t.TempDir()
	src := testStore(t)
	p, err := StartPersister(src, dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// More writes while the persister tails.
	gen := ids.NewGenerator(0xFACE)
	base := time.Unix(1_580_200_000, 0).UTC()
	cu := &platform.CommentURL{ID: gen.NewAt(base), URL: "https://example.test/persisted", FirstSeen: base}
	src.SubmitURL(cu)
	src.Vote(cu.ID, 4, 1)
	waitDurable(t, p, src.EventSeq())
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	restored, skipped, err := RestoreDir(dir)
	if err != nil {
		t.Fatalf("RestoreDir: %v", err)
	}
	if restored == nil {
		t.Fatal("RestoreDir found no state")
	}
	if skipped != 0 {
		t.Fatalf("restore skipped %d records", skipped)
	}
	if restored.EventSeq() != src.EventSeq() {
		t.Fatalf("restored seq %d, want %d", restored.EventSeq(), src.EventSeq())
	}
	if err := restored.Validate(); err != nil {
		t.Fatalf("restored store invalid: %v", err)
	}
	if src.Census() != restored.Census() {
		t.Fatalf("census diverged: %+v vs %+v", src.Census(), restored.Census())
	}
	if ups, downs := restored.Votes(cu.ID); ups != 4 || downs != 1 {
		t.Fatalf("restored tally %d/%d, want 4/1", ups, downs)
	}

	// The restored store can itself be persisted into the same
	// directory and keep going.
	p2, err := StartPersister(restored, dir, Options{})
	if err != nil {
		t.Fatalf("StartPersister on restored dir: %v", err)
	}
	restored.Vote(cu.ID, 1, 0)
	waitDurable(t, p2, restored.EventSeq())
	if err := p2.Close(); err != nil {
		t.Fatal(err)
	}
	again, _, err := RestoreDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ups, _ := again.Votes(cu.ID); ups != 5 {
		t.Fatalf("second-generation restore lost the follow-up vote: ups=%d, want 5", ups)
	}
}

// TestPersisterRotationCompacts pins the tentpole's unbounded-growth
// fix: past the rotation threshold the persister cuts a snapshot,
// truncates the in-memory log (EventBase advances, EventSeq stays
// lifetime-correct), and the directory still restores to the full
// state.
func TestPersisterRotationCompacts(t *testing.T) {
	dir := t.TempDir()
	db := platform.New(nil, nil, nil, nil)
	p, err := StartPersister(db, dir, Options{RotateEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	gen := ids.NewGenerator(0xC0DE)
	base := time.Unix(1_580_300_000, 0).UTC()
	const writes = 500
	for i := 0; i < writes; i++ {
		db.AddUser(&platform.User{
			GabID: ids.GabID(i + 1), Username: userName(i), CreatedAt: base,
		})
	}
	cu := &platform.CommentURL{ID: gen.NewAt(base), URL: "https://example.test/rotated", FirstSeen: base}
	db.SubmitURL(cu)
	waitDurable(t, p, db.EventSeq())

	// Force at least one more rotation cycle to have happened by the
	// time we close, then assert the log was actually truncated.
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if db.EventBase() == 0 {
		t.Fatal("persister never compacted the in-memory log")
	}
	tail, _ := db.EventsSince(db.EventBase())
	if got, want := db.EventSeq(), uint64(writes+1); got != want {
		t.Fatalf("EventSeq = %d after compaction, want %d (base %d + tail %d)",
			got, want, db.EventBase(), len(tail))
	}
	if len(tail) >= writes {
		t.Fatalf("retained tail holds %d events — compaction did not shrink it", len(tail))
	}

	restored, _, err := RestoreDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if restored.EventSeq() != db.EventSeq() {
		t.Fatalf("restored seq %d, want %d", restored.EventSeq(), db.EventSeq())
	}
	if restored.Census() != db.Census() {
		t.Fatalf("census diverged: %+v vs %+v", restored.Census(), db.Census())
	}
	if restored.URLByString("https://example.test/rotated") == nil {
		t.Fatal("restored store lost the post-rotation URL")
	}
}

func userName(i int) string {
	return "rot-" + string(rune('a'+i/26/26%26)) + string(rune('a'+i/26%26)) + string(rune('a'+i%26))
}

// TestRestoreDirEmpty pins the cold-start contract.
func TestRestoreDirEmpty(t *testing.T) {
	db, _, err := RestoreDir(t.TempDir() + "/nonexistent")
	if err != nil || db != nil {
		t.Fatalf("RestoreDir on missing dir = (%v, %v), want (nil, nil)", db, err)
	}
	db, _, err = RestoreDir(t.TempDir())
	if err != nil || db != nil {
		t.Fatalf("RestoreDir on empty dir = (%v, %v), want (nil, nil)", db, err)
	}
}

// BenchmarkRestoreDir times RestoreDir over the ledger's corpus (1/16
// scale, seed 1) persisted with a WAL tail past its snapshot — 6,250
// comments, about 1 MB: the snapshot streamed through ReadSnapshot into
// FromCheckpoint, then the tail replayed through the Decoder. B/op is
// what one restore allocates.
func BenchmarkRestoreDir(b *testing.B) {
	db := synth.Generate(synth.NewConfig(1.0/16, 1)).DB
	dir := b.TempDir()
	p, err := StartPersister(db, dir, Options{})
	if err != nil {
		b.Fatal(err)
	}
	var urls []ids.ObjectID
	db.RangeURLs(func(cu *platform.CommentURL) bool {
		urls = append(urls, cu.ID)
		return len(urls) < 100
	})
	authors := db.DissenterUsers()
	gen := ids.NewGenerator(0x4E57)
	at := time.Unix(1_600_000_000, 0).UTC()
	for i := 0; i < 6250; i++ {
		at = at.Add(time.Second)
		db.AddComment(&platform.Comment{
			ID: gen.NewAt(at), URLID: urls[i%len(urls)], AuthorID: authors[i%len(authors)].AuthorID,
			Text: "a comment of about the length the generated corpus posts, give or take a clause", CreatedAt: at,
		})
	}
	if err := p.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		restored, _, err := RestoreDir(dir)
		if err != nil {
			b.Fatal(err)
		}
		if restored.EventSeq() != db.EventSeq() {
			b.Fatalf("restored through seq %d, want %d", restored.EventSeq(), db.EventSeq())
		}
	}
}
