package httpguard_test

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dissenter/internal/gateway"
	"dissenter/internal/httpguard"
	"dissenter/internal/platform"
	"dissenter/internal/replica"
)

// get returns the response headers and closes the body unread: one of
// the paths it fetches is a stream that never ends.
func get(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	resp.Body.Close()
	return resp
}

// TestRootOpsSurfaceOutsideAdmission pins the Root each role's
// constructor returns — what the three binaries serve. With the app
// saturated (MaxInflight=1, one request parked in it) /healthz,
// /readyz, the role's exempt mounts and — only when asked for —
// /debug/pprof/ still answer 200, while a second app request is shed
// with 503 + Retry-After. app is each role's read surface; for the
// gateway, whose App is the proxy itself, it is the backend proxied to.
func TestRootOpsSurfaceOutsideAdmission(t *testing.T) {
	for _, tc := range []struct {
		name   string
		pprof  bool
		exempt []string
		root   func(t *testing.T, app http.Handler) httpguard.Root
	}{
		{"primary", false, []string{"/replication-status", "/replication/events?since=0"},
			func(t *testing.T, app http.Handler) httpguard.Root {
				return replica.PrimaryRoot(platform.New(nil, nil, nil, nil), nil, app)
			}},
		{"replica", true, []string{"/replication-status"},
			func(t *testing.T, app http.Handler) httpguard.Root {
				pub := httptest.NewServer(&replica.Publisher{DB: platform.New(nil, nil, nil, nil)})
				t.Cleanup(pub.Close)
				rep, err := replica.Open(t.TempDir(), pub.URL, replica.Options{})
				if err != nil {
					t.Fatal(err)
				}
				return rep.Root(func(*platform.DB) http.Handler { return app }, time.Hour, 0)
			}},
		{"gateway", false, []string{"/gateway/status"},
			func(t *testing.T, app http.Handler) httpguard.Root {
				backend := httptest.NewServer(app)
				t.Cleanup(backend.Close)
				return gateway.New(backend.URL, nil, gateway.Options{}).Root()
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			parked, release := make(chan struct{}), make(chan struct{})
			root := tc.root(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/park" {
					close(parked)
					<-release
				}
			}))
			root.MaxInflight, root.Pprof = 1, tc.pprof
			if root.Close != nil {
				// Before the role's own cleanups: the replica's stream
				// must end for its publisher to close.
				t.Cleanup(func() { root.Close() })
			}
			srv := httptest.NewServer(root.Handler())
			defer srv.Close()
			parkDone := make(chan struct{})
			go func() {
				defer close(parkDone)
				get(t, srv.URL+"/park")
			}()
			<-parked

			// /debug/pprof/goroutine goes through pprof.Index: the whole
			// profiling route is live, not just its landing page.
			for _, path := range append(tc.exempt, "/healthz", "/readyz", "/debug/pprof/", "/debug/pprof/goroutine?debug=1") {
				want := http.StatusOK
				if !tc.pprof && strings.HasPrefix(path, "/debug") {
					// Not mounted: the path is ordinary app traffic, shed
					// like the rest.
					want = http.StatusServiceUnavailable
				}
				if resp := get(t, srv.URL+path); resp.StatusCode != want {
					t.Errorf("GET %s with the app saturated = %d, want %d", path, resp.StatusCode, want)
				}
			}
			resp := get(t, srv.URL+"/app")
			if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
				t.Errorf("second app request = %d (Retry-After %q), want 503 with a hint",
					resp.StatusCode, resp.Header.Get("Retry-After"))
			}

			close(release)
			<-parkDone
			if resp := get(t, srv.URL+"/app"); resp.StatusCode != http.StatusOK {
				t.Errorf("app request after release = %d, want 200", resp.StatusCode)
			}
		})
	}
}

// TestRootDrainEndsReplicationStream is the SIGTERM-on-a-primary
// regression test: a replica tailing /replication/events holds its
// response open forever, and http.Server.Shutdown does not cancel
// request contexts, so the drain used to wait out the whole 10 s
// DrainTimeout. The root must end the stream when the drain begins,
// return cleanly well inside the window, and run its close hook once.
func TestRootDrainEndsReplicationStream(t *testing.T) {
	db := platform.New(nil, nil, nil, nil)
	var closed atomic.Int32
	root := httpguard.Root{
		Health:      httpguard.NewHealth(),
		MaxInflight: 1,
		Exempt:      map[string]http.Handler{"/replication/": &replica.Publisher{DB: db}},
		App:         http.NotFoundHandler(),
		Close:       func() error { closed.Add(1); return nil },
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- root.Serve(ctx, ln) }()

	resp, err := http.Get("http://" + ln.Addr().String() + "/replication/events?since=0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream = %d, want 200", resp.StatusCode)
	}
	// One event through the stream proves it is live and parked at the tip.
	db.AddUser(&platform.User{GabID: 1, Username: "tail"})
	if _, err := resp.Body.Read(make([]byte, 1)); err != nil {
		t.Fatalf("reading the live stream: %v", err)
	}

	start := time.Now()
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve = %v, want nil after a clean drain", err)
		}
	case <-time.After(8 * time.Second):
		t.Fatal("drain still waiting on the replication stream")
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("drain took %v with a tailing replica, want well under the 10s DrainTimeout", took)
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Fatalf("stream ended with %v, want a clean end of response", err)
	}
	if n := closed.Load(); n != 1 {
		t.Fatalf("close hook ran %d times, want 1", n)
	}
}

// TestRootExitPolicy pins the non-zero exits: a listen failure and a
// failed close hook both surface from the run loop, and the hook runs
// exactly once either way.
func TestRootExitPolicy(t *testing.T) {
	flush := errors.New("wal: disk full")
	var closed atomic.Int32
	root := httpguard.Root{
		Addr:   "not-an-address",
		Health: httpguard.NewHealth(),
		App:    http.NotFoundHandler(),
		Close:  func() error { closed.Add(1); return flush },
	}
	if err := root.Run(); err == nil || !errors.Is(err, flush) {
		t.Fatalf("Run on an unlistenable address = %v, want the listen error joined with the close error", err)
	}
	if n := closed.Load(); n != 1 {
		t.Fatalf("close hook ran %d times after a failed listen, want 1", n)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := root.Serve(ctx, ln); !errors.Is(err, flush) {
		t.Fatalf("Serve with a failing close hook = %v, want it to carry %v", err, flush)
	}
	if n := closed.Load(); n != 2 {
		t.Fatalf("close hook ran %d times over two runs, want 2", n)
	}
}
