// Package httpguard is the serving stack's degradation layer: health
// and readiness endpoints, admission control (Admission), graceful
// shutdown (Serve), and the one Root that assembles them, through
// which the primary, replica and gateway binaries all start and stop.
//
// The split it enforces:
//
//   - /healthz is LIVENESS: "the process is up and can answer HTTP".
//     It stays 200 through every degraded state — a persister that
//     went sticky, a replica cut off from its primary — because
//     restarting the process fixes none of those.
//
//   - /readyz is TRAFFIC STEERING: "send me requests". It flips to
//     503 the moment any registered check fails or a drain begins, so
//     a load balancer rotates the instance out while it keeps serving
//     whatever it still can (a degraded replica answers stale reads).
package httpguard

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync/atomic"
	"time"
)

// Check is one named readiness probe. Probe returns nil when healthy.
type Check struct {
	Name  string
	Probe func() error
}

// Health serves /healthz and /readyz for one process. The checks are
// fixed at construction.
type Health struct {
	checks   []Check
	draining atomic.Bool
}

// NewHealth builds a Health over the given readiness checks.
func NewHealth(checks ...Check) *Health {
	return &Health{checks: checks}
}

// SetDraining flips the draining state; a draining process reports
// not-ready (so the load balancer stops sending new work) while
// in-flight requests finish.
func (h *Health) SetDraining(v bool) { h.draining.Store(v) }

// Failing runs every check and returns the failures as "name: error"
// lines, sorted by name ("draining" first when a drain has begun).
func (h *Health) Failing() []string {
	var fails []string
	for _, c := range h.checks {
		if err := c.Probe(); err != nil {
			fails = append(fails, fmt.Sprintf("%s: %v", c.Name, err))
		}
	}
	sort.Strings(fails)
	if h.draining.Load() {
		fails = append([]string{"draining"}, fails...)
	}
	return fails
}

// Healthz answers liveness: 200 whenever the process can serve at all.
func (h *Health) Healthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

// Readyz answers traffic-steering readiness: 200 "ready" when every
// check passes and no drain is underway, else 503 listing what failed.
func (h *Health) Readyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fails := h.Failing()
	if len(fails) == 0 {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ready")
		return
	}
	w.WriteHeader(http.StatusServiceUnavailable)
	for _, f := range fails {
		fmt.Fprintln(w, f)
	}
}

// Admission bounds concurrent in-flight requests through next. Past
// the limit, requests are shed immediately with 503 and a Retry-After
// hint rather than queued — bounded latency over bounded loss. Wrap
// only the surfaces that should shed; health endpoints and the
// replication stream are typically mounted outside it.
//
// The hint is jittered per shed over [⌈max/2⌉, max] seconds
// (JitterSeconds): a constant hint teaches every shed client — and
// every gateway retrying on their behalf — to come back at the same
// instant, turning one overload into a synchronized second one.
func Admission(limit int, retryAfter time.Duration, next http.Handler) http.Handler {
	if limit <= 0 {
		return next
	}
	secs := int(retryAfter / time.Second)
	if secs < 1 {
		secs = 1
	}
	sem := make(chan struct{}, limit)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case sem <- struct{}{}:
			defer func() { <-sem }()
			next.ServeHTTP(w, r)
		default:
			w.Header().Set("Retry-After", strconv.Itoa(JitterSeconds(secs)))
			http.Error(w, "server at capacity, retry later", http.StatusServiceUnavailable)
		}
	})
}

// JitterSeconds spreads a Retry-After hint of at most max seconds
// uniformly over [⌈max/2⌉, max], so a fleet of shed clients does not
// re-arrive in lockstep. Values ≤ 1 are returned as-is (Retry-After
// below one second is not expressible).
func JitterSeconds(max int) int {
	if max <= 1 {
		return max
	}
	lo := (max + 1) / 2
	return lo + rand.N(max-lo+1)
}

// The http.Server operational timeouts of everything Serve runs.
// Handlers that legitimately outlive writeTimeout (streams) must bump
// their own deadlines per write via http.ResponseController, as the
// replication publisher does.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 30 * time.Second
	writeTimeout      = 60 * time.Second
	idleTimeout       = 2 * time.Minute
)

// ServeOptions tunes Serve.
type ServeOptions struct {
	// DrainTimeout bounds graceful shutdown: how long in-flight
	// requests get to finish once ctx ends (default 10s).
	DrainTimeout time.Duration
	// Health, when set, is flipped to draining the moment shutdown
	// starts, so /readyz goes 503 before connections close.
	Health *Health
	// Logf, when set, receives serve/drain diagnostics.
	Logf func(format string, args ...any)
}

// drainKey carries Serve's drain signal (a context cancelled when the
// drain begins) in the context of every request it serves.
type drainKey struct{}

// StreamContext returns the context a held-open response — one that
// never finishes on its own, like the replication stream — must wait
// on: it ends when the request does or, under Serve, the moment the
// drain begins. http.Server.Shutdown does not cancel request contexts,
// so a stream waiting on r.Context() alone pins every drain for the
// whole DrainTimeout. The caller must call cancel when the stream
// ends.
func StreamContext(r *http.Request) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(r.Context())
	drain, ok := ctx.Value(drainKey{}).(context.Context)
	if !ok {
		return ctx, cancel
	}
	stop := context.AfterFunc(drain, cancel)
	return ctx, func() { stop(); cancel() }
}

// Serve runs an http.Server with operational timeouts over ln until
// ctx ends, then drains gracefully: readiness flips to draining,
// StreamContext streams end, in-flight requests get DrainTimeout to
// finish, stragglers are cut. It returns nil after a clean drain, the
// serve error otherwise.
func Serve(ctx context.Context, ln net.Listener, h http.Handler, opt ServeOptions) error {
	if opt.DrainTimeout <= 0 {
		opt.DrainTimeout = 10 * time.Second
	}
	drain, beginDrain := context.WithCancel(context.Background())
	defer beginDrain()
	srv := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       idleTimeout,
		ConnContext: func(c context.Context, _ net.Conn) context.Context {
			return context.WithValue(c, drainKey{}, drain)
		},
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	if opt.Health != nil {
		opt.Health.SetDraining(true)
	}
	beginDrain()
	if opt.Logf != nil {
		opt.Logf("httpguard: draining (up to %v)", opt.DrainTimeout)
	}
	dctx, cancel := context.WithTimeout(context.Background(), opt.DrainTimeout)
	defer cancel()
	err := srv.Shutdown(dctx)
	if err != nil {
		// Stragglers outlasted the drain window; cut them.
		srv.Close()
		if opt.Logf != nil {
			opt.Logf("httpguard: drain incomplete: %v", err)
		}
	}
	if serr := <-errc; serr != nil && !errors.Is(serr, http.ErrServerClosed) {
		return serr
	}
	return err
}
