package eventlog

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"testing"
	"time"
)

// The primary's half of the crash-recovery proof (internal/replica has
// the replica's): a durable primary killed with SIGKILL while its WAL
// holds many times RotateEvery records past its snapshot — the state
// the geometric rule lives in and the every-RotateEvery-records rule
// could never reach — restores to exactly the events it had made
// durable. The primary runs as a real child process (this test binary
// re-executed), so the kill is a genuine kill -9.

const crashFloor = 16

// TestPrimaryChildProcess is the child's main, not a test: it persists
// the rotation fixture's store and posts to it until killed, reporting
// each durable point. It stops posting (and waits for the kill) at
// three quarters of the WAL size that would rotate, so a parent slow to
// read its pipe still finds the state it came for.
func TestPrimaryChildProcess(t *testing.T) {
	dir := os.Getenv("PRIMARY_CHILD_DIR")
	if dir == "" {
		t.Skip("helper process for TestPrimaryCrashRecovery")
	}
	f := newRotationFixture(t)
	p, err := StartPersister(f.db, dir, Options{RotateEvery: crashFloor})
	if err != nil {
		fmt.Printf("CHILD-ERROR %v\n", err)
		os.Exit(1)
	}
	_, snap := snapshotSize(t, dir)
	for f.walSize[f.posted]*rotateDiv < snap*3/4 {
		f.post(t, p, 1)
		fmt.Printf("DURABLE %d\n", p.Durable())
		os.Stdout.Sync()
	}
	select {}
}

func TestPrimaryCrashRecovery(t *testing.T) {
	if os.Getenv("PRIMARY_CHILD_DIR") != "" {
		t.Skip("child process")
	}
	if testing.Short() {
		t.Skip("spawns a child process")
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run", "^TestPrimaryChildProcess$")
	cmd.Env = append(os.Environ(), "PRIMARY_CHILD_DIR="+dir)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	watchdog := time.AfterFunc(20*time.Second, func() { cmd.Process.Kill() })
	defer watchdog.Stop()

	// Kill it mid-write once the WAL is well past the record floor and
	// well short of the byte threshold.
	var acked uint64
	sc := bufio.NewScanner(stdout)
	for acked < 20*crashFloor && sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "CHILD-ERROR") {
			t.Fatalf("child failed: %s", line)
		}
		if v, ok := strings.CutPrefix(line, "DURABLE "); ok {
			acked, _ = strconv.ParseUint(v, 10, 64)
		}
	}
	if acked < 20*crashFloor {
		t.Fatalf("child exited at durable %d: %v", acked, sc.Err())
	}
	cmd.Process.Kill()
	cmd.Wait()

	snapSeq, snapBytes := snapshotSize(t, dir)
	restored, skipped, err := RestoreDir(dir)
	if err != nil || restored == nil || skipped != 0 {
		t.Fatalf("RestoreDir = (%v, %d, %v)", restored, skipped, err)
	}
	head := restored.EventSeq()
	if head < acked {
		t.Fatalf("restored to seq %d, the child had reported %d durable", head, acked)
	}
	if head-snapSeq <= crashFloor {
		t.Fatalf("killed with %d records past the snapshot at %d; the test wants many times the floor of %d", head-snapSeq, snapSeq, crashFloor)
	}

	// The child posts a fixed sequence, so the restored store must be
	// that sequence's first `head` events, byte for byte.
	want := newRotationFixture(t)
	want.add(int(head))
	if got, exp := EncodeSnapshot(restored.Checkpoint()), EncodeSnapshot(want.db.Checkpoint()); !bytes.Equal(got, exp) {
		t.Fatalf("restored store diverges from the %d events posted: %d vs %d bytes", head, len(got), len(exp))
	}
	if err := restored.Validate(); err != nil {
		t.Fatalf("restored store invalid: %v", err)
	}
	t.Logf("restored %d events from a WAL %d records past a %d-byte snapshot (record floor %d)", head, head-snapSeq, snapBytes, crashFloor)

	// And the directory is one a Persister resumes.
	p, err := StartPersister(restored, dir, Options{RotateEvery: crashFloor})
	if err != nil {
		t.Fatalf("StartPersister over the crashed directory: %v", err)
	}
	want.db = restored
	want.post(t, p, 1)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	assertRestoredEqual(t, dir, restored)
}
