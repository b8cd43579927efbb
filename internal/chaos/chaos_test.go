package chaos

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"dissenter/internal/eventlog"
	"dissenter/internal/faultinject"
	"dissenter/internal/ids"
	"dissenter/internal/platform"
	"dissenter/internal/replica"
)

// corpus drives a deterministic mix of every write type through db.
func corpus(t *testing.T, db *platform.DB, seed uint64, n int) {
	t.Helper()
	gen := ids.NewGenerator(seed)
	base := time.Unix(1_582_000_000, 0).UTC()
	for i := 0; i < n; i++ {
		u := &platform.User{
			GabID: ids.GabID(int64(seed)*1000 + int64(i) + 1), Username: fmt.Sprintf("chaos-%d-%d", seed, i),
			HasDissenter: true, AuthorID: gen.NewAt(base), CreatedAt: base,
		}
		db.AddUser(u)
		cu := &platform.CommentURL{
			ID:  gen.NewAt(base.Add(time.Duration(i) * time.Second)),
			URL: fmt.Sprintf("https://chaos.test/%d/%d", seed, i), FirstSeen: base,
		}
		db.SubmitURL(cu)
		db.AddComment(&platform.Comment{
			ID: gen.NewAt(base.Add(time.Minute)), URLID: cu.ID, AuthorID: u.AuthorID,
			Text: "chaos comment", CreatedAt: base.Add(time.Minute), NSFW: i%3 == 0,
		})
		db.Vote(cu.ID, i%5, i%2)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// assertBytesConverged requires byte-identical state: the deterministic
// snapshot encodings of both stores must match exactly.
func assertBytesConverged(t *testing.T, primary, rep *platform.DB) {
	t.Helper()
	pb := eventlog.EncodeSnapshot(primary.Checkpoint())
	rb := eventlog.EncodeSnapshot(rep.Checkpoint())
	if !bytes.Equal(pb, rb) {
		t.Fatalf("stores not byte-identical: primary seq %d (%d bytes) vs replica seq %d (%d bytes)",
			primary.EventSeq(), len(pb), rep.EventSeq(), len(rb))
	}
	if err := rep.Validate(); err != nil {
		t.Fatalf("replica store invalid: %v", err)
	}
}

// openReplica opens a replica with the suite's fast reconnect.
func openReplica(t *testing.T, dir, primaryURL string, opt replica.Options) *replica.Replica {
	t.Helper()
	if opt.ReconnectWait == 0 {
		opt.ReconnectWait = 5 * time.Millisecond
	}
	rep, err := replica.Open(dir, primaryURL, opt)
	if err != nil {
		t.Fatalf("replica.Open: %v", err)
	}
	return rep
}

// runReplica opens a replica nobody reads from and drives its loop
// until test cleanup (Close ends the loop).
func runReplica(t *testing.T, dir, primaryURL string, opt replica.Options) *replica.Replica {
	t.Helper()
	rep := openReplica(t, dir, primaryURL, opt)
	go rep.Run(context.Background())
	t.Cleanup(func() { rep.Close() })
	return rep
}

// Schedule 1 — disk full during rotation. The WAL-threshold rotation
// keeps hitting ENOSPC on its snapshot write; the persister must keep
// group-committing to the old WAL (no event loss, no sticky death),
// re-arm each failed attempt a record floor later instead of retrying
// on every batch, and rotate successfully once space returns and the
// WAL has passed the re-arm point.
func TestChaosDiskFullDuringRotation(t *testing.T) {
	dir := t.TempDir()
	db := platform.New(nil, nil, nil, nil)
	// Snapshot write #1 is the initial checkpoint; every later one
	// (each rotation attempt) sees a full disk until the fault clears.
	inj := faultinject.NewInjector(
		faultinject.Rule{Op: faultinject.OpWrite, Path: ".snap", After: 1, Err: faultinject.ErrNoSpace},
	)
	pers, err := eventlog.StartPersister(db, dir, eventlog.Options{
		RotateEvery: 8, FS: inj.FS(nil), RetryWait: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	corpus(t, db, 11, 10) // 40 events: up to five rotation attempts, all ENOSPC
	waitFor(t, "durable to reach head under disk-full rotation", func() bool {
		if err := pers.Err(); err != nil {
			t.Fatalf("disk-full rotation killed the persister: %v", err)
		}
		return pers.Durable() == db.EventSeq()
	})
	// The persister attempts rotation AFTER the commit that made the
	// batch durable, so when one group commit covers all 40 events the
	// first ENOSPC can still be ahead of us here: wait for it.
	waitFor(t, "a rotation attempt to hit the injected ENOSPC", func() bool {
		return inj.FireCount(faultinject.OpWrite) > 0
	})

	// A failed attempt re-arms 8 records on, however many batches the
	// 40 events arrived in (a snapshot this small is one write).
	if n := inj.FireCount(faultinject.OpWrite); n > 40/8 {
		t.Fatalf("%d rotation attempts over 40 events with RotateEvery 8; want at most one per 8 records", n)
	}

	// Space returns; 12 more events carry the WAL past the re-arm point
	// (at most 8 past the last failed attempt) and it rotates for real.
	inj.Clear()
	corpus(t, db, 12, 3)
	waitFor(t, "rotation after the disk-full fault cleared", func() bool {
		return db.EventBase() > 0
	})
	waitFor(t, "durable to reach head", func() bool { return pers.Durable() == db.EventSeq() })
	if err := pers.Close(); err != nil {
		t.Fatal(err)
	}
	restored, _, err := eventlog.RestoreDir(dir)
	if err != nil || restored == nil {
		t.Fatalf("RestoreDir: %v", err)
	}
	assertBytesConverged(t, db, restored)
}

// Schedule 2 — torn fsync, transient then sticky. A transient fsync
// fault is absorbed invisibly. A latched one exhausts the retry budget
// and must flip /readyz to 503 within one event batch while /healthz
// stays 200 — the liveness/readiness split under real damage.
func TestChaosStickyFsyncFlipsReadyzNotHealthz(t *testing.T) {
	dir := t.TempDir()
	db := platform.New(nil, nil, nil, nil)
	corpus(t, db, 21, 2)
	inj := faultinject.NewInjector()
	pers, err := eventlog.StartPersister(db, dir, eventlog.Options{
		// No retry budget: the first failed commit goes sticky, so the
		// readiness flip lands within the same event batch.
		FS: inj.FS(nil), RetryLimit: -1, RetryWait: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pers.Close()
	srv := httptest.NewServer(replica.PrimaryRoot(db, pers, http.NotFoundHandler()).Handler())
	defer srv.Close()

	get := func(path string) int {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get("/readyz"); code != http.StatusOK {
		t.Fatalf("healthy readyz = %d", code)
	}

	// The disk dies under the WAL; the next acked batch cannot commit.
	inj.SetRules(faultinject.Rule{Op: faultinject.OpSync, Path: "wal-", Err: errors.New("torn fsync")})
	corpus(t, db, 22, 1) // one batch of writes
	waitFor(t, "readyz to flip 503 after the batch", func() bool {
		return get("/readyz") == http.StatusServiceUnavailable
	})
	if code := get("/healthz"); code != http.StatusOK {
		t.Fatalf("healthz = %d during persister failure, want 200 (restart fixes nothing)", code)
	}
}

// Schedule 3 — partition mid-stream. The replica's catch-up stream is
// cut mid-frame after 256 bytes, then the next two reconnect attempts
// are refused outright (the partition). When the window ends, the
// replica must resume from its applied cursor and converge
// byte-identically — no gap, no duplicate, no torn frame applied.
func TestChaosPartitionMidStream(t *testing.T) {
	primary := platform.New(nil, nil, nil, nil)
	corpus(t, primary, 31, 30)
	srv := httptest.NewServer(&replica.Publisher{DB: primary})
	t.Cleanup(srv.Close)

	inj := faultinject.NewInjector(
		// First connected stream: body torn after 256 bytes (mid-frame).
		faultinject.Rule{Op: faultinject.OpBodyRead, Path: "/events", After: 0, Count: 1, CutAfter: 256},
		// Stream connects #2-3: refused at the connection level.
		faultinject.Rule{Op: faultinject.OpRoundTrip, Path: "/events", After: 1, Count: 2, Err: faultinject.ErrInjected},
	)
	rep := runReplica(t, t.TempDir(), srv.URL, replica.Options{
		Client: &http.Client{Transport: inj.Transport(nil)},
	})
	waitFor(t, "replica to converge across the partition", func() bool {
		return rep.Seq() == primary.EventSeq()
	})
	if cuts := inj.FireCount(faultinject.OpBodyRead); cuts != 1 {
		t.Fatalf("body cut fired %d times, want 1", cuts)
	}
	if drops := inj.FireCount(faultinject.OpRoundTrip); drops != 2 {
		t.Fatalf("connection drops fired %d times, want 2", drops)
	}
	assertBytesConverged(t, primary, rep.DB())

	// Live tail still flows after the fault window.
	corpus(t, primary, 32, 5)
	waitFor(t, "live tail after the partition", func() bool { return rep.Seq() == primary.EventSeq() })
	assertBytesConverged(t, primary, rep.DB())
}

// Schedule 4 — flapping primary during bootstrap. A seeded primary
// forces the 410→/snapshot bootstrap path; the primary's listener
// drops the next three connections mid-handshake (a flapping process
// behind a load balancer). The replica must keep retrying with backoff
// and come out bootstrapped and byte-identical.
func TestChaosFlappingPrimaryDuringBootstrap(t *testing.T) {
	gen := ids.NewGenerator(0xC4A05)
	base := time.Unix(1_582_100_000, 0).UTC()
	primary := platform.New(
		[]*platform.User{{GabID: 7001, Username: "chaos-seeded", HasDissenter: true, AuthorID: gen.NewAt(base), CreatedAt: base}},
		[]*platform.CommentURL{{ID: gen.NewAt(base), URL: "https://chaos.test/seeded", Ups: 2, Downs: 1, FirstSeen: base}},
		nil, nil,
	)
	if !primary.Seeded() {
		t.Fatal("primary not seeded")
	}

	inj := faultinject.NewInjector(
		// Accept #1 serves the first /events (the 410). Accepts #2-4 are
		// reset at the listener: the flap window.
		faultinject.Rule{Op: faultinject.OpAccept, After: 1, Count: 3, Err: faultinject.ErrInjected},
	)
	ln := listen(t)
	serveRoot(t, replica.PrimaryRoot(primary, nil, http.NotFoundHandler()), inj.Listener(ln))

	rep := runReplica(t, t.TempDir(), "http://"+ln.Addr().String()+"/replication", replica.Options{
		// One connection per request, so every retry crosses the
		// flapping accept loop deterministically.
		Client: &http.Client{Transport: &http.Transport{DisableKeepAlives: true}},
	})
	corpus(t, primary, 41, 8)
	waitFor(t, "replica to bootstrap through the flap and converge", func() bool {
		return rep.Seq() == primary.EventSeq()
	})
	if flaps := inj.FireCount(faultinject.OpAccept); flaps != 3 {
		t.Fatalf("accept flaps fired %d times, want 3", flaps)
	}
	if rep.DB().UserByUsername("chaos-seeded") == nil {
		t.Fatal("bootstrap lost the seeded user")
	}
	assertBytesConverged(t, primary, rep.DB())
}

// Schedule 5 — disconnected replica serves stale. When the primary
// vanishes, the replica's readiness fails (so a load balancer rotates
// it out) but its store keeps answering reads: serve-stale, not shed.
func TestChaosDisconnectedReplicaServesStale(t *testing.T) {
	primary := platform.New(nil, nil, nil, nil)
	corpus(t, primary, 51, 10)
	srv := httptest.NewServer(&replica.Publisher{DB: primary})

	rep := runReplica(t, t.TempDir(), srv.URL, replica.Options{})
	waitFor(t, "initial catch-up", func() bool { return rep.Seq() == primary.EventSeq() })
	waitFor(t, "replica to report connected", func() bool { return rep.Status().Connected })
	if err := rep.Ready(50*time.Millisecond, 0); err != nil {
		t.Fatalf("connected replica not ready: %v", err)
	}

	// The primary vanishes. Cut the live stream first: Close alone waits
	// for outstanding requests, and the replication stream never ends.
	srv.CloseClientConnections()
	srv.Close()
	waitFor(t, "readiness to fail after the stale window", func() bool {
		return rep.Ready(50*time.Millisecond, 0) != nil
	})
	// Reads still serve the last-applied state.
	stale := rep.DB()
	if c := stale.Census(); c.GabUsers == 0 || c.Comments == 0 {
		t.Fatalf("stale store stopped serving: %+v", c)
	}
	assertBytesConverged(t, primary, stale)
}

// Schedule 6 — graceful drain flushes the WAL. Shutdown must finish
// the in-flight request, flip readiness to draining while it does, and
// leave the directory holding every acked event: drain, then flush, in
// the order the primary's Root itself runs them.
func TestChaosDrainFlushesWAL(t *testing.T) {
	dir := t.TempDir()
	db := platform.New(nil, nil, nil, nil)
	pers, err := eventlog.StartPersister(db, dir, eventlog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{})
	proceed := make(chan struct{})
	mux := http.NewServeMux()
	var writeSeed atomic.Uint64
	writeSeed.Store(61)
	mux.HandleFunc("/write", func(w http.ResponseWriter, r *http.Request) {
		corpus(t, db, writeSeed.Add(1), 1)
		fmt.Fprint(w, "acked")
	})
	mux.HandleFunc("/slow", func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-proceed
		corpus(t, db, 90, 1) // a write landing DURING the drain
		fmt.Fprint(w, "drained")
	})
	ln := listen(t)
	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() { serveDone <- replica.PrimaryRoot(db, pers, mux).Serve(ctx, ln) }()
	base := "http://" + ln.Addr().String()

	for i := 0; i < 3; i++ {
		resp, err := http.Get(base + "/write")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	bodyc := make(chan string, 1)
	go func() {
		resp, err := http.Get(base + "/slow")
		if err != nil {
			bodyc <- "error: " + err.Error()
			return
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		bodyc <- string(b)
	}()
	<-entered

	// SIGTERM's in-process analogue: cancel the serve context with the
	// request still in flight.
	cancel()
	close(proceed)
	if got := <-bodyc; got != "drained" {
		t.Fatalf("in-flight request got %q, want it to finish during the drain", got)
	}
	// Serve returns once HTTP is down and the persister has flushed.
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve = %v, want a clean drain and flush", err)
	}
	restored, _, err := eventlog.RestoreDir(dir)
	if err != nil || restored == nil {
		t.Fatalf("RestoreDir: %v", err)
	}
	if restored.EventSeq() != db.EventSeq() {
		t.Fatalf("WAL flush lost events: restored seq %d, want %d", restored.EventSeq(), db.EventSeq())
	}
	assertBytesConverged(t, db, restored)
}
