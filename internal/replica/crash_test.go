package replica

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"testing"
	"time"

	"dissenter/internal/dissenterweb"
	"dissenter/internal/platform"
)

// The crash-recovery proof (the tentpole's acceptance bar): a replica
// process killed with SIGKILL mid-stream restarts over the same
// directory, restores from its own WAL offset, resumes the stream
// from there, and serves pages BYTE-IDENTICAL to the primary's across
// every session view. The replica runs as a real child process (this
// test binary re-executed with -test.run pinning the helper), so the
// kill is a genuine kill -9 — no deferred flushes, no atexit.

// crashSessions are the session views both processes register; ""
// (anonymous) is the fourth.
var crashSessions = map[string]dissenterweb.Session{
	"nsfw": {ShowNSFW: true},
	"off":  {ShowOffensive: true},
	"both": {ShowNSFW: true, ShowOffensive: true},
}

// TestReplicaChildProcess is the replica child's main, not a test: it
// skips unless re-executed by TestReplicaCrashRecovery with the
// REPLICA_CHILD environment set.
func TestReplicaChildProcess(t *testing.T) {
	if os.Getenv("REPLICA_CHILD") != "1" {
		t.Skip("helper process for TestReplicaCrashRecovery")
	}
	primaryURL := os.Getenv("REPLICA_PRIMARY")
	dir := os.Getenv("REPLICA_DIR")

	rep, err := Open(dir, primaryURL, Options{ReconnectWait: 10 * time.Millisecond})
	if err != nil {
		fmt.Printf("CHILD-ERROR %v\n", err)
		os.Exit(1)
	}
	// The restored sequence number, read before the loop starts, proves
	// (to the parent) whether this run resumed local state or started
	// from scratch.
	restored := rep.Seq()
	root := rep.Root(func(db *platform.DB) http.Handler {
		web := dissenterweb.NewServer(db,
			dissenterweb.ReadOnly(),
			dissenterweb.WithURLRateLimit(0, 0))
		for tok, sess := range crashSessions {
			web.RegisterSession(tok, sess)
		}
		return web
	}, 0, 0)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Printf("CHILD-ERROR %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("LISTENING %s seq=%d\n", ln.Addr(), restored)
	os.Stdout.Sync()
	root.Serve(context.Background(), ln)
}

// child is a running replica helper process.
type child struct {
	cmd        *exec.Cmd
	addr       string
	restoredAt uint64
}

func startChild(t *testing.T, primaryURL, dir string) *child {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run", "^TestReplicaChildProcess$")
	cmd.Env = append(os.Environ(),
		"REPLICA_CHILD=1",
		"REPLICA_PRIMARY="+primaryURL,
		"REPLICA_DIR="+dir,
	)
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

	sc := bufio.NewScanner(stdout)
	deadline := time.AfterFunc(20*time.Second, func() { cmd.Process.Kill() })
	defer deadline.Stop()
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "CHILD-ERROR") {
			t.Fatalf("child failed: %s", line)
		}
		if f := strings.Fields(line); len(f) == 3 && f[0] == "LISTENING" {
			seq, _ := strconv.ParseUint(strings.TrimPrefix(f[2], "seq="), 10, 64)
			go io.Copy(io.Discard, stdout)
			return &child{cmd: cmd, addr: f[1], restoredAt: seq}
		}
	}
	t.Fatalf("child exited before listening: %v", sc.Err())
	return nil
}

// status polls the child's replication-status endpoint.
func (c *child) status(t *testing.T) (applied, durable uint64) {
	t.Helper()
	resp, err := http.Get("http://" + c.addr + "/replication-status")
	if err != nil {
		return 0, 0 // child mid-start or mid-kill; callers poll
	}
	defer resp.Body.Close()
	var s StatusJSON
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		return 0, 0
	}
	return s.Applied, s.Durable
}

func (c *child) waitCaughtUp(t *testing.T, seq uint64, needDurable bool) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		applied, durable := c.status(t)
		if applied >= seq && (!needDurable || durable >= seq) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("child stuck at applied=%d durable=%d, want %d", applied, durable, seq)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// fetchFrom GETs a path with an optional session cookie and returns
// status plus body.
func fetchFrom(t *testing.T, base, path, session string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if session != "" {
		req.AddCookie(&http.Cookie{Name: "session", Value: session})
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestReplicaCrashRecovery drives the full out-of-process cycle:
// stream, kill -9 mid-stream, write more, restart over the same
// directory, and assert every page of every session view is
// byte-identical between primary and replica HTTP servers.
func TestReplicaCrashRecovery(t *testing.T) {
	if os.Getenv("REPLICA_CHILD") == "1" {
		t.Skip("child process")
	}
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	primary := platform.New(nil, nil, nil, nil)
	pub := httptest.NewServer(&Publisher{DB: primary})
	t.Cleanup(pub.Close)
	pweb := dissenterweb.NewServer(primary,
		dissenterweb.WithURLRateLimit(0, 0))
	for tok, sess := range crashSessions {
		pweb.RegisterSession(tok, sess)
	}
	pwebSrv := httptest.NewServer(pweb)
	t.Cleanup(pwebSrv.Close)
	dir := t.TempDir()

	// Phase 1: child streams the first batch and makes it durable.
	c1 := startChild(t, pub.URL, dir)
	corpus(t, primary, 7, 25)
	c1.waitCaughtUp(t, primary.EventSeq(), true)

	// Phase 2: kill -9 while a second batch is mid-flight. Poll the
	// child's status until it has applied at least one event of the new
	// batch — a verified mid-stream kill, not a sleep guessing at one.
	batchStart := primary.EventSeq()
	writing := make(chan struct{})
	go func() {
		defer close(writing)
		corpus(t, primary, 8, 20)
	}()
	killBy := time.Now().Add(10 * time.Second)
	for {
		if applied, _ := c1.status(t); applied > batchStart {
			break
		}
		if time.Now().After(killBy) {
			t.Fatalf("child never started applying the second batch past %d", batchStart)
		}
	}
	c1.cmd.Process.Kill()
	c1.cmd.Wait()
	<-writing

	// Phase 3: writes landing while the replica is down.
	corpus(t, primary, 9, 10)

	// Phase 4: restart over the same directory; it must resume from
	// its durable WAL offset, not from scratch, and catch up fully.
	c2 := startChild(t, pub.URL, dir)
	if c2.restoredAt == 0 {
		t.Fatal("restarted replica restored seq 0 — WAL recovery failed")
	}
	c2.waitCaughtUp(t, primary.EventSeq(), false)

	// Phase 5: the oracle — every page, every session view,
	// byte-identical across the two processes.
	paths := []string{"/trends", "/leaderboard"}
	primary.RangeURLs(func(cu *platform.CommentURL) bool {
		paths = append(paths, "/discussion?url="+url.QueryEscape(cu.URL))
		return true
	})
	primary.RangeUsers(func(u *platform.User) bool {
		paths = append(paths, "/user/"+url.PathEscape(u.Username))
		return true
	})
	sessions := []string{"", "nsfw", "off", "both"}
	pages := 0
	for _, p := range paths {
		for _, sess := range sessions {
			wantCode, want := fetchFrom(t, pwebSrv.URL, p, sess)
			gotCode, got := fetchFrom(t, "http://"+c2.addr, p, sess)
			if gotCode != wantCode {
				t.Fatalf("%s [%s]: status %d vs primary %d", p, sess, gotCode, wantCode)
			}
			if got != want {
				t.Fatalf("%s [%s]: replica page diverges from primary (%d vs %d bytes)",
					p, sess, len(got), len(want))
			}
			pages++
		}
	}
	t.Logf("verified %d pages byte-identical after kill -9 + restart", pages)
}
