package replica

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"dissenter/internal/dissenterweb"
	"dissenter/internal/ids"
	"dissenter/internal/platform"
)

// TestReplicaRootFollowsBootstrap serves a replica the way the binary
// does — Root, over a real socket — against a seeded primary, which
// forces the 410→snapshot bootstrap and with it a NEW store. The page
// that exists only in that store must be served by the next request
// with no OnState in sight; X-Served-Stale must be on responses exactly
// while Ready fails; and the drain's Close must leave neither the
// replication loop nor a persister goroutine behind.
func TestReplicaRootFollowsBootstrap(t *testing.T) {
	gen := ids.NewGenerator(0xB007)
	base := time.Unix(1_581_200_000, 0).UTC()
	author := &platform.User{GabID: 901, Username: "seeded-author", HasDissenter: true, AuthorID: gen.NewAt(base), CreatedAt: base}
	cu := &platform.CommentURL{ID: gen.NewAt(base), URL: "https://example.test/seeded", FirstSeen: base}
	seeded := &platform.Comment{ID: gen.NewAt(base), URLID: cu.ID, AuthorID: author.AuthorID, Text: "only after the bootstrap", CreatedAt: base}
	primary := platform.New([]*platform.User{author}, []*platform.CommentURL{cu}, []*platform.Comment{seeded}, nil)
	pub := httptest.NewServer(&Publisher{DB: primary})
	defer pub.Close()

	rep, err := Open(t.TempDir(), pub.URL, Options{ReconnectWait: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	const staleAfter = 50 * time.Millisecond
	root := rep.Root(func(db *platform.DB) http.Handler {
		return dissenterweb.NewServer(db, dissenterweb.ReadOnly(), dissenterweb.WithURLRateLimit(0, 0))
	}, staleAfter, 0)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel() // on a failure too: pub.Close waits for the replica's stream to end
	served := make(chan error, 1)
	go func() { served <- root.Serve(ctx, ln) }()

	page := "/comment/" + seeded.ID.String() // 404 from a store without the comment
	get := func(path string) *http.Response {
		t.Helper()
		resp, err := http.Get("http://" + ln.Addr().String() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		return resp
	}
	wait := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(15 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}

	// The store the replica opened with never had the page; the one the
	// bootstrap swapped in does, and the Root is already serving it.
	wait("the bootstrap and a live stream", func() bool {
		return rep.DB().CommentByID(seeded.ID) != nil && rep.Status().Connected
	})
	resp := get(page)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s after the bootstrap = %d, want 200 from the new store", page, resp.StatusCode)
	}
	if err := rep.Ready(staleAfter, 0); err != nil || resp.Header.Get("X-Served-Stale") != "" {
		t.Fatalf("connected replica: Ready = %v, X-Served-Stale = %q; want ready and unlabeled", err, resp.Header.Get("X-Served-Stale"))
	}
	if code := get("/readyz").StatusCode; code != http.StatusOK {
		t.Fatalf("connected /readyz = %d", code)
	}

	// The primary vanishes: past staleAfter the same page is still
	// served, labeled, and /readyz steers the balancer away.
	pub.CloseClientConnections()
	pub.Close()
	wait("readiness to fail past the stale window", func() bool { return rep.Ready(staleAfter, 0) != nil })
	if resp := get(page); resp.StatusCode != http.StatusOK || resp.Header.Get("X-Served-Stale") != "1" {
		t.Fatalf("disconnected read = %d, X-Served-Stale = %q; want a labeled 200", resp.StatusCode, resp.Header.Get("X-Served-Stale"))
	}
	if code := get("/readyz").StatusCode; code != http.StatusServiceUnavailable {
		t.Fatalf("disconnected /readyz = %d, want 503", code)
	}
	if code := get("/replication-status").StatusCode; code != http.StatusOK {
		t.Fatalf("/replication-status = %d", code)
	}

	cancel()
	if err := <-served; err != nil {
		t.Fatalf("Serve = %v, want a clean drain and close", err)
	}
	// Both loops signal completion from a deferred call, so each may be
	// a few instructions from gone when Serve returns: poll, a leaked
	// one never leaves.
	for _, frame := range []string{"replica.(*Replica).Run", "eventlog.(*Persister).loop"} {
		wait("no goroutine left in "+frame, func() bool {
			stacks := make([]byte, 1<<20)
			return !strings.Contains(string(stacks[:runtime.Stack(stacks, true)]), frame)
		})
	}
}
