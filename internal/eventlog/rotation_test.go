package eventlog

import (
	"fmt"
	iofs "io/fs"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"dissenter/internal/faultinject"
	"dissenter/internal/ids"
	"dissenter/internal/platform"
)

// countFS counts what a Persister writes: bytes to any file, bytes to
// .wal files, and snapshots renamed into place (one per rotation).
type countFS struct {
	faultinject.FS
	mu                 sync.Mutex
	bytes, walBytes    int64
	snapshotsInstalled int
}

func (c *countFS) OpenFile(name string, flag int, perm iofs.FileMode) (faultinject.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &countFile{File: f, fs: c, wal: strings.HasSuffix(name, ".wal")}, nil
}

func (c *countFS) Rename(oldpath, newpath string) error {
	if strings.HasSuffix(newpath, ".snap") {
		c.mu.Lock()
		c.snapshotsInstalled++
		c.mu.Unlock()
	}
	return c.FS.Rename(oldpath, newpath)
}

func (c *countFS) counts() (bytes, walBytes int64, rotations int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes, c.walBytes, c.snapshotsInstalled
}

type countFile struct {
	faultinject.File
	fs  *countFS
	wal bool
}

func (f *countFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.mu.Lock()
	f.fs.bytes += int64(n)
	if f.wal {
		f.fs.walBytes += int64(n)
	}
	f.fs.mu.Unlock()
	return n, err
}

// rotationFixture is a seeded store of a few thousand entities (so
// its snapshot dwarfs any one batch) and a writer that posts comments
// to it a chunk at a time, each chunk durable before the next starts,
// so no group commit spans more than one chunk. walSize[i] is the WAL's
// size once the i-th posted comment is in it, had no rotation
// intervened.
type rotationFixture struct {
	db      *platform.DB
	gen     *ids.Generator
	at      time.Time
	urls    []*platform.CommentURL
	authors []ids.ObjectID
	posted  int
	walSize []int64
}

const rotationChunk = 40

func newRotationFixture(t *testing.T) *rotationFixture {
	t.Helper()
	f := &rotationFixture{gen: ids.NewGenerator(0x6E0), at: time.Unix(1_583_000_000, 0).UTC()}
	var users []*platform.User
	for i := 0; i < 1500; i++ {
		u := &platform.User{
			GabID: ids.GabID(i + 1), Username: fmt.Sprintf("geo-user-%04d", i),
			Bio: "a seeded account with a bio long enough to weigh something", CreatedAt: f.at,
			HasDissenter: i%3 == 0,
		}
		if u.HasDissenter {
			u.AuthorID = f.gen.NewAt(f.at)
			f.authors = append(f.authors, u.AuthorID)
		}
		users = append(users, u)
	}
	for i := 0; i < 200; i++ {
		f.urls = append(f.urls, &platform.CommentURL{
			ID: f.gen.NewAt(f.at), URL: fmt.Sprintf("https://geo.test/story/%03d", i),
			Title: "A seeded story", FirstSeen: f.at,
		})
	}
	var comments []*platform.Comment
	for i := 0; i < 2500; i++ {
		comments = append(comments, f.comment(i))
	}
	f.db = platform.New(users, f.urls, comments, nil)
	f.walSize = []int64{int64(len(walHeader(0)))}
	return f
}

func (f *rotationFixture) comment(i int) *platform.Comment {
	f.at = f.at.Add(time.Second)
	return &platform.Comment{
		ID: f.gen.NewAt(f.at), URLID: f.urls[i%len(f.urls)].ID, AuthorID: f.authors[i%len(f.authors)],
		Text: "a comment of about the length the generated corpus posts, give or take a clause", CreatedAt: f.at,
	}
}

// add posts the next n comments of the fixture's fixed sequence.
func (f *rotationFixture) add(n int) {
	var frame []byte
	for ; n > 0; n-- {
		c := f.comment(f.posted)
		f.db.AddComment(c)
		f.posted++
		frame, _ = AppendRecord(frame[:0], Record{Seq: f.db.EventSeq(), Event: platform.CommentAdded{Comment: c}})
		f.walSize = append(f.walSize, f.walSize[len(f.walSize)-1]+int64(len(frame)))
	}
}

// post writes n chunks of comments, waiting for each to be durable.
func (f *rotationFixture) post(t *testing.T, p *Persister, chunks int) {
	t.Helper()
	for ; chunks > 0; chunks-- {
		f.add(rotationChunk)
		waitDurable(t, p, f.db.EventSeq())
	}
}

func snapshotSize(t *testing.T, dir string) (seq uint64, size int64) {
	t.Helper()
	snaps, err := listSeqs(faultinject.OS, dir, "snap-", ".snap")
	if err != nil || len(snaps) == 0 {
		t.Fatalf("no snapshot in %s (%v)", dir, err)
	}
	seq = snaps[len(snaps)-1]
	st, err := faultinject.OS.Stat(snapPath(dir, seq))
	if err != nil {
		t.Fatal(err)
	}
	return seq, st.Size()
}

// TestRotationIsGeometric pins the rotation rule on a store whose
// snapshot is large beside its record floor: the bytes written stay
// within the rule's bound of the bytes logged, the number of rotations
// grows with the logarithm of the store and not with the log's length,
// the WAL never outgrows its fraction of the snapshot by more than a
// batch, and the directory restores to the same bytes.
func TestRotationIsGeometric(t *testing.T) {
	dir := t.TempDir()
	f := newRotationFixture(t)
	fs := &countFS{FS: faultinject.OS}
	const floor = 16
	p, err := StartPersister(f.db, dir, Options{RotateEvery: floor, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	_, firstSnap := snapshotSize(t, dir)
	bytes0, wal0, rot0 := fs.counts()

	const chunks = 150 // 6,000 comments: the every-16-records rule would rotate 375 times
	f.post(t, p, chunks/2)
	_, _, rotHalf := fs.counts()
	f.post(t, p, chunks/2)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	bytes1, wal1, rot1 := fs.counts()
	rotations, firstHalf := rot1-rot0, rotHalf-rot0

	amp := float64(bytes1-bytes0) / float64(wal1-wal0)
	if amp > 2+rotateDiv {
		t.Errorf("wrote %.2f bytes per byte logged, want at most 2+rotateDiv = %d", amp, 2+rotateDiv)
	}
	_, lastSnap := snapshotSize(t, dir)
	// Every rotation but the last was followed by a WAL of at least
	// 1/rotateDiv of its snapshot, most of which the next snapshot
	// gained: each is at least 1+1/(2*rotateDiv) times the one before.
	limit := int(math.Log(float64(lastSnap)/float64(firstSnap))/math.Log(1+1.0/(2*rotateDiv))) + 1
	if rotations < 2 || rotations > limit {
		t.Errorf("%d rotations while the snapshot grew %d -> %d bytes, want between 2 and %d", rotations, firstSnap, lastSnap, limit)
	}
	if secondHalf := rotations - firstHalf; secondHalf > firstHalf {
		t.Errorf("%d rotations in the first half of the log, %d in the second: the count grows with the log", firstHalf, secondHalf)
	}
	walBase, err := listSeqs(faultinject.OS, dir, "wal-", ".wal")
	if err != nil || len(walBase) != 1 {
		t.Fatalf("want one WAL at rest, got %v (%v)", walBase, err)
	}
	st, err := faultinject.OS.Stat(walPath(dir, walBase[0]))
	if err != nil {
		t.Fatal(err)
	}
	batch := f.walSize[len(f.walSize)-1] - f.walSize[len(f.walSize)-1-rotationChunk]
	if st.Size() > lastSnap/rotateDiv+batch {
		t.Errorf("WAL at close is %d bytes beside a %d-byte snapshot, want at most 1/%d of it plus a %d-byte batch", st.Size(), lastSnap, rotateDiv, batch)
	}
	assertRestoredEqual(t, dir, f.db)
}

// TestResumeKeepsThreshold pins the Stat path: a Persister resumed over
// a restored directory weighs its WAL against the snapshot already on
// disk, so the next rotation fires where it would have without the
// restart — not on the first batch (a threshold of zero) and not a
// whole snapshot's worth of log later.
func TestResumeKeepsThreshold(t *testing.T) {
	dir := t.TempDir()
	f := newRotationFixture(t)
	p, err := StartPersister(f.db, dir, Options{RotateEvery: 16})
	if err != nil {
		t.Fatal(err)
	}
	base, snap := snapshotSize(t, dir)
	// Log about half of what the rule asks for, then restart.
	perChunk := int64(rotationChunk) * 150
	f.post(t, p, int(snap/rotateDiv/perChunk/2))
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if seq, _ := snapshotSize(t, dir); seq != base {
		t.Fatalf("rotated at seq %d with the WAL at %d of a %d-byte snapshot", seq, f.walSize[f.posted], snap)
	}

	restored, _, err := RestoreDir(dir)
	if err != nil || restored == nil {
		t.Fatalf("RestoreDir: %v", err)
	}
	f.db = restored
	p, err = StartPersister(f.db, dir, Options{RotateEvery: 16})
	if err != nil {
		t.Fatal(err)
	}
	// The loop decides a commit's rotation before it takes the next
	// commit, so once a chunk is durable the decision on the chunk
	// before it is on disk.
	seq := base
	for seq == base {
		if f.walSize[f.posted] > snap {
			t.Fatalf("no rotation with the WAL at %d bytes beside a %d-byte snapshot", f.walSize[f.posted], snap)
		}
		f.post(t, p, 1)
		seq, _ = snapshotSize(t, dir)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	at := int(seq - base) // comments in the WAL when the rotation cut its checkpoint
	if f.walSize[at]*rotateDiv < snap {
		t.Errorf("rotated with the WAL at %d bytes, under 1/%d of the %d-byte snapshot", f.walSize[at], rotateDiv, snap)
	}
	if early := at - 2*rotationChunk; early > 0 && f.walSize[early]*rotateDiv >= snap {
		t.Errorf("rotated with the WAL at %d bytes; the rule was met at %d, two batches earlier", f.walSize[at], f.walSize[early])
	}
	assertRestoredEqual(t, dir, f.db)
}
