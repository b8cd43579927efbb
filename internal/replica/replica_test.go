package replica

import (
	"context"
	"net/http"
	"net/http/httptest"
	"path"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dissenter/internal/eventlog"
	"dissenter/internal/ids"
	"dissenter/internal/platform"
)

// startReplica opens a replica against primary's publisher mount and
// runs its loop until the test ends (Close ends the loop).
func startReplica(t *testing.T, dir, primaryURL string, opt Options) *Replica {
	t.Helper()
	if opt.ReconnectWait == 0 {
		opt.ReconnectWait = 10 * time.Millisecond
	}
	rep, err := Open(dir, primaryURL, opt)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	go rep.Run(context.Background())
	t.Cleanup(func() { rep.Close() })
	return rep
}

// waitSeq blocks until the replica has applied through seq.
func waitSeq(t *testing.T, rep *Replica, seq uint64) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for rep.Seq() < seq {
		if time.Now().After(deadline) {
			t.Fatalf("replica stuck at seq %d, want %d", rep.Seq(), seq)
		}
		time.Sleep(time.Millisecond)
	}
}

// corpus drives a deterministic mix of every write type through the
// primary, returning the URL IDs it minted.
func corpus(t *testing.T, db *platform.DB, seed uint64, n int) []ids.ObjectID {
	t.Helper()
	gen := ids.NewGenerator(seed)
	base := time.Unix(1_581_000_000, 0).UTC()
	var authors []ids.ObjectID
	var urls []ids.ObjectID
	for i := 0; i < n; i++ {
		u := &platform.User{
			GabID: ids.GabID(int64(seed<<8) + int64(i) + 1), Username: userName(seed, i),
			HasDissenter: true, AuthorID: gen.NewAt(base), CreatedAt: base,
		}
		db.AddUser(u)
		authors = append(authors, u.AuthorID)
		cu := &platform.CommentURL{
			ID:  gen.NewAt(base.Add(time.Duration(i) * time.Second)),
			URL: "https://example.test/" + u.Username, FirstSeen: base,
		}
		db.SubmitURL(cu)
		urls = append(urls, cu.ID)
		db.AddComment(&platform.Comment{
			ID: gen.NewAt(base.Add(time.Minute)), URLID: cu.ID, AuthorID: u.AuthorID,
			Text: "replicated comment", CreatedAt: base.Add(time.Minute),
			NSFW: i%3 == 0, Offensive: i%5 == 0,
		})
		db.Vote(cu.ID, i%7, i%3)
		if i > 0 {
			db.AddFollow(u.GabID, u.GabID-1)
		}
	}
	return urls
}

func userName(seed uint64, i int) string {
	return "rep-" + string(rune('a'+seed%26)) + "-" + string(rune('a'+i/26%26)) + string(rune('a'+i%26))
}

// assertConverged compares the stores entity-for-entity and via their
// materialized views' observable outputs.
func assertConverged(t *testing.T, primary, rep *platform.DB, urls []ids.ObjectID) {
	t.Helper()
	if primary.Census() != rep.Census() {
		t.Fatalf("census diverged: %+v vs %+v", primary.Census(), rep.Census())
	}
	if err := rep.Validate(); err != nil {
		t.Fatalf("replica store invalid: %v", err)
	}
	for _, id := range urls {
		pu, pd := primary.Votes(id)
		ru, rd := rep.Votes(id)
		if pu != ru || pd != rd {
			t.Fatalf("votes diverged on %s: %d/%d vs %d/%d", id, pu, pd, ru, rd)
		}
	}
}

// TestReplicaCatchUp pins the core loop: a replica started against an
// event-built primary catches up from sequence 0 over the HTTP stream,
// then tracks live writes without reconnecting.
func TestReplicaCatchUp(t *testing.T) {
	primary := platform.New(nil, nil, nil, nil)
	srv := httptest.NewServer(&Publisher{DB: primary})
	// Registered before startReplica's cleanup, so the replica's stream
	// is torn down first and Close never waits on a live connection.
	t.Cleanup(srv.Close)

	urls := corpus(t, primary, 1, 40)
	rep := startReplica(t, t.TempDir(), srv.URL, Options{})
	waitSeq(t, rep, primary.EventSeq())
	assertConverged(t, primary, rep.DB(), urls)

	// Live tail: writes landing while the stream is open.
	more := corpus(t, primary, 2, 15)
	waitSeq(t, rep, primary.EventSeq())
	assertConverged(t, primary, rep.DB(), append(urls, more...))
}

// TestReplicaSnapshotBootstrap pins the 410 path: a primary seeded
// with construction-time entities (which the event stream cannot
// reproduce) forces the replica through the snapshot bootstrap, after
// which live streaming proceeds from the snapshot's sequence point.
func TestReplicaSnapshotBootstrap(t *testing.T) { testSnapshotBootstrap(t, 0) }

// TestReplicaBootstrapStreamsAtOnce is the same path with a reconnect
// wait far past waitSeq's deadline: a bootstrap is progress, so the
// attempt that made it opens the stream at once instead of sleeping
// out the wait before it.
func TestReplicaBootstrapStreamsAtOnce(t *testing.T) { testSnapshotBootstrap(t, time.Minute) }

func testSnapshotBootstrap(t *testing.T, reconnectWait time.Duration) {
	gen := ids.NewGenerator(0x5EED)
	base := time.Unix(1_581_100_000, 0).UTC()
	seedUser := &platform.User{GabID: 900, Username: "seeded-user", HasDissenter: true, AuthorID: gen.NewAt(base), CreatedAt: base}
	seedURL := &platform.CommentURL{ID: gen.NewAt(base), URL: "https://example.test/seeded", Ups: 3, Downs: 1, FirstSeen: base}
	primary := platform.New(
		[]*platform.User{seedUser},
		[]*platform.CommentURL{seedURL},
		nil, nil,
	)
	if !primary.Seeded() {
		t.Fatal("primary not seeded")
	}
	srv := httptest.NewServer(&Publisher{DB: primary})
	t.Cleanup(srv.Close)

	var states []*platform.DB
	var mu sync.Mutex
	rep := startReplica(t, t.TempDir(), srv.URL, Options{
		ReconnectWait: reconnectWait,
		OnState:       func(db *platform.DB) { mu.Lock(); states = append(states, db); mu.Unlock() },
	})
	// OnState must rebind to the bootstrapped store: once during Open,
	// once per bootstrap. Poll — the swap and the callback are not one
	// atomic step with the test's rep.DB() read.
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n, last := len(states), states[len(states)-1]
		mu.Unlock()
		if n >= 2 && last == rep.DB() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("OnState called %d times, last state is not the live DB", n)
		}
		time.Sleep(time.Millisecond)
	}
	// Written after the bootstrap, so these reach the replica only over
	// the stream it opens from the snapshot's sequence point.
	urls := corpus(t, primary, 3, 10)
	waitSeq(t, rep, primary.EventSeq())
	repDB := rep.DB()
	assertConverged(t, primary, repDB, append(urls, seedURL.ID))
	if repDB.UserByUsername("seeded-user") == nil {
		t.Fatal("bootstrap lost the seeded user")
	}
}

// TestReplicaRestartResume pins local durability: a stopped replica
// reopened over the same directory restores its durable state and
// resumes the stream from its own offset rather than replaying (or
// re-bootstrapping) history.
func TestReplicaRestartResume(t *testing.T) {
	primary := platform.New(nil, nil, nil, nil)
	srv := httptest.NewServer(&Publisher{DB: primary})
	defer srv.Close()
	dir := t.TempDir()

	urls := corpus(t, primary, 4, 25)
	func() {
		rep, err := Open(dir, srv.URL, Options{ReconnectWait: 10 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		go rep.Run(context.Background())
		waitSeq(t, rep, primary.EventSeq())
		if err := rep.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}()

	// Writes landing while the replica is down.
	more := corpus(t, primary, 5, 12)

	rep, err := Open(dir, srv.URL, Options{ReconnectWait: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Seq() == 0 {
		t.Fatal("reopened replica restored nothing — resume is a full replay")
	}
	go rep.Run(context.Background())
	defer rep.Close()
	waitSeq(t, rep, primary.EventSeq())
	assertConverged(t, primary, rep.DB(), append(urls, more...))
}

// TestReplicaCompactionForcesBootstrap pins the other 410 trigger: a
// primary whose persister has compacted its log past sequence 0 cannot
// serve a from-scratch stream, so a fresh replica must bootstrap.
func TestReplicaCompactionForcesBootstrap(t *testing.T) {
	primary := platform.New(nil, nil, nil, nil)
	pdir := t.TempDir()
	pers, err := eventlog.StartPersister(primary, pdir, eventlog.Options{RotateEvery: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer pers.Close()
	urls := corpus(t, primary, 6, 30)
	deadline := time.Now().Add(10 * time.Second)
	for primary.EventBase() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("primary persister never rotated")
		}
		time.Sleep(time.Millisecond)
	}

	srv := httptest.NewServer(&Publisher{DB: primary})
	t.Cleanup(srv.Close)
	rep := startReplica(t, t.TempDir(), srv.URL, Options{})
	waitSeq(t, rep, primary.EventSeq())
	assertConverged(t, primary, rep.DB(), urls)
}

// TestReplicaBootstrapLoopBacksOff pins the other half of "a bootstrap
// streams at once": a primary that answers 410 even to the stream a
// bootstrap just earned (one compacting past every snapshot it serves)
// makes the replica back off between attempts, not spin on snapshots.
func TestReplicaBootstrapLoopBacksOff(t *testing.T) {
	seeded := platform.New([]*platform.User{{GabID: 1, Username: "seeded"}}, nil, nil, nil)
	var snapshots atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if path.Base(r.URL.Path) == "snapshot" {
			snapshots.Add(1)
			eventlog.WriteSnapshot(w, seeded.Checkpoint())
			return
		}
		http.Error(w, "compacted", http.StatusGone)
	}))
	t.Cleanup(srv.Close)
	startReplica(t, t.TempDir(), srv.URL, Options{ReconnectWait: 20 * time.Millisecond})
	time.Sleep(400 * time.Millisecond)
	// Jittered waits of at least 10, 20, 40, 80, 160 ms fit five attempts
	// in the window; a loop that did not wait would make hundreds.
	if n := snapshots.Load(); n < 2 || n > 8 {
		t.Fatalf("%d snapshot fetches in 400ms, want 2-8: the bootstrap loop does not back off", n)
	}
}
