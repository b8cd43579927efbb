package faultinject

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// TestRuleWindows pins the scheduling core: a rule fires exactly
// inside its [After, After+Count) window of its own match count, and
// counters are per-rule over one shared call sequence.
func TestRuleWindows(t *testing.T) {
	errA := errors.New("a")
	errB := errors.New("b")
	inj := NewInjector(
		Rule{Op: OpSync, After: 1, Count: 2, Err: errA},
		Rule{Op: OpSync, After: 4, Count: 1, Err: errB},
	)
	var got []error
	for i := 0; i < 6; i++ {
		got = append(got, inj.gate(OpSync, "x.wal"))
	}
	want := []error{nil, errA, errA, nil, errB, nil}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("call %d: got %v, want %v (full: %v)", i+1, got[i], want[i], got)
		}
	}
	if n := inj.FireCount(OpSync); n != 3 {
		t.Fatalf("FireCount = %d, want 3", n)
	}
	// The trace names the rules and their per-rule ordinals.
	fired := inj.Fired()
	if len(fired) != 3 || fired[0].Rule != 0 || fired[2].Rule != 1 || fired[2].Seq != 5 {
		t.Fatalf("unexpected trace: %+v", fired)
	}
}

// TestLatchedRuleAndClear pins Count == 0 (fire forever) and that
// Clear stops every fault — the "fault clears" edge chaos schedules
// pivot on.
func TestLatchedRuleAndClear(t *testing.T) {
	inj := NewInjector(Rule{Op: OpWrite, Err: ErrNoSpace})
	for i := 0; i < 3; i++ {
		if err := inj.gate(OpWrite, "f"); !errors.Is(err, ErrNoSpace) {
			t.Fatalf("call %d: got %v, want ENOSPC", i+1, err)
		}
	}
	inj.Clear()
	if err := inj.gate(OpWrite, "f"); err != nil {
		t.Fatalf("after Clear: %v", err)
	}
}

// TestPathMatching pins the substring filter.
func TestPathMatching(t *testing.T) {
	inj := NewInjector(Rule{Op: OpWrite, Path: "snap-", Err: ErrNoSpace})
	if err := inj.gate(OpWrite, "/dir/wal-00001.wal"); err != nil {
		t.Fatalf("WAL write should pass: %v", err)
	}
	if err := inj.gate(OpWrite, "/dir/snap-00001.snap.tmp"); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("snapshot write should fail: %v", err)
	}
}

// TestFSShortWrite pins the torn-write mode: half the buffer lands on
// the real file, then the error surfaces.
func TestFSShortWrite(t *testing.T) {
	dir := t.TempDir()
	boom := errors.New("boom")
	inj := NewInjector(Rule{Op: OpWrite, ShortWrite: true, Err: boom})
	fsys := inj.FS(OS)
	f, err := fsys.OpenFile(filepath.Join(dir, "torn"), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("0123456789")
	n, err := f.Write(payload)
	if !errors.Is(err, boom) {
		t.Fatalf("Write err = %v, want boom", err)
	}
	if n != len(payload)/2 {
		t.Fatalf("short write landed %d bytes, want %d", n, len(payload)/2)
	}
	f.Close()
	b, _ := os.ReadFile(filepath.Join(dir, "torn"))
	if string(b) != "01234" {
		t.Fatalf("on-disk bytes %q, want the first half", b)
	}
}

// TestFSPassthrough pins that an empty schedule is invisible: the
// wrapped FS round-trips bytes exactly.
func TestFSPassthrough(t *testing.T) {
	dir := t.TempDir()
	inj := NewInjector()
	fsys := inj.FS(OS)
	name := filepath.Join(dir, "ok")
	f, err := fsys.OpenFile(name, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	f, err = fsys.OpenFile(name, os.O_RDONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(f)
	f.Close()
	if err != nil || string(b) != "hello" {
		t.Fatalf("read back %q, %v", b, err)
	}
	if err := fsys.Rename(name, name+"2"); err != nil {
		t.Fatal(err)
	}
	if _, err := fsys.Stat(name + "2"); err != nil {
		t.Fatal(err)
	}
	ents, err := fsys.ReadDir(dir)
	if err != nil || len(ents) != 1 {
		t.Fatalf("ReadDir = %v, %v", ents, err)
	}
}

// TestTransportDropAndCut pins the transport seam: scripted refusal of
// whole requests, then a body cut after a byte budget.
func TestTransportDropAndCut(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(make([]byte, 1000))
	}))
	defer srv.Close()

	inj := NewInjector(
		Rule{Op: OpRoundTrip, Path: "/stream", After: 0, Count: 2, Err: ErrInjected},
		// Body rules count only requests that connected, so this is the
		// first response after the two drops.
		Rule{Op: OpBodyRead, Path: "/stream", After: 0, Count: 1, CutAfter: 100},
	)
	client := &http.Client{Transport: inj.Transport(nil)}

	// Calls 1-2: refused at the connection level.
	for i := 0; i < 2; i++ {
		if _, err := client.Get(srv.URL + "/stream"); err == nil {
			t.Fatalf("request %d should have been dropped", i+1)
		}
	}
	// Call 3: connects, but the body tears after 100 bytes.
	resp, err := client.Get(srv.URL + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !errors.Is(err, ErrCut) {
		t.Fatalf("body read err = %v, want ErrCut", err)
	}
	if len(b) != 100 {
		t.Fatalf("read %d bytes before the cut, want 100", len(b))
	}
	// Call 4: the fault window is spent; full body flows.
	resp, err = client.Get(srv.URL + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	b, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || len(b) != 1000 {
		t.Fatalf("clean request: %d bytes, %v", len(b), err)
	}
}

// TestInjectorConcurrency hammers one injector from many goroutines —
// the schedules run under -race in CI.
func TestInjectorConcurrency(t *testing.T) {
	inj := NewInjector(Rule{Op: OpWrite, After: 50, Err: ErrNoSpace})
	var wg sync.WaitGroup
	var mu sync.Mutex
	failures := 0
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if err := inj.gate(OpWrite, "f"); err != nil {
					mu.Lock()
					failures++
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if failures != 150 {
		t.Fatalf("%d failures across 200 calls, want exactly 150 (After=50)", failures)
	}
}
