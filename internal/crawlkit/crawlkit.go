// Package crawlkit is the crawl framework shared by the Gab and
// Dissenter crawlers: an HTTP fetcher with retry/backoff and cookie
// support, and a bounded worker pool with the paper's
// re-request-until-complete semantics (§3.2: "we monitor request
// timeouts and re-request missed pages ... We repeat this process until
// all pages have been successfully parsed").
package crawlkit

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	neturl "net/url"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Fetcher retrieves pages with bounded retries. The zero value is not
// usable; construct with NewFetcher.
type Fetcher struct {
	client     *http.Client
	maxRetries int
	retryDelay time.Duration
	cookies    []*http.Cookie
	maxBody    int64
}

// FetcherOption configures a Fetcher.
type FetcherOption func(*Fetcher)

// WithCookie attaches a cookie to every request (the authenticated
// re-spider's session).
func WithCookie(c *http.Cookie) FetcherOption {
	return func(f *Fetcher) { f.cookies = append(f.cookies, c) }
}

// WithRetries overrides the retry budget and base delay.
func WithRetries(n int, delay time.Duration) FetcherOption {
	return func(f *Fetcher) {
		f.maxRetries = n
		f.retryDelay = delay
	}
}

// userAgent identifies every crawler request.
const userAgent = "dissenter-study/1.0"

// NewFetcher builds a Fetcher over client (nil gets a 15s-timeout
// default).
func NewFetcher(client *http.Client, opts ...FetcherOption) *Fetcher {
	if client == nil {
		client = &http.Client{Timeout: 15 * time.Second}
	}
	f := &Fetcher{
		client:     client,
		maxRetries: 4,
		retryDelay: 100 * time.Millisecond,
		maxBody:    8 << 20,
	}
	for _, o := range opts {
		o(f)
	}
	return f
}

// Result is a completed fetch.
type Result struct {
	Status int
	Body   []byte
	Header http.Header
	// Size is the raw body length — the account-detection side channel.
	Size int
}

// ErrGaveUp wraps the final error after the retry budget is exhausted.
var ErrGaveUp = errors.New("crawlkit: retries exhausted")

// Get fetches url, retrying transport errors, 5xx, and 429, honoring
// Retry-After on 429 and 503 (an admission shed or an unavailable
// gateway names its own pacing). 4xx responses other than 429 are
// returned, not retried — a 404 is an answer, not a failure.
func (f *Fetcher) Get(ctx context.Context, url string) (Result, error) {
	return f.do(ctx, http.MethodGet, url, "", "")
}

// Post submits body under the given Content-Type with Get's retry
// policy. Note the policy retries transport failures, so a write that
// succeeded server-side but lost its response may be resubmitted;
// callers that need exactly-once writes must deduplicate on the server.
func (f *Fetcher) Post(ctx context.Context, url, contentType, body string) (Result, error) {
	return f.do(ctx, http.MethodPost, url, contentType, body)
}

// PostForm is Post of a form-encoded body.
func (f *Fetcher) PostForm(ctx context.Context, url string, form neturl.Values) (Result, error) {
	return f.Post(ctx, url, "application/x-www-form-urlencoded", form.Encode())
}

func (f *Fetcher) do(ctx context.Context, method, url, contentType, payload string) (Result, error) {
	var lastErr error
	for attempt := 0; attempt <= f.maxRetries; attempt++ {
		if attempt > 0 {
			wait := retryWait(attempt, f.retryDelay)
			if w, ok := retryAfter(lastErr); ok {
				// The server named a time; honor it exactly.
				wait = w
			}
			select {
			case <-ctx.Done():
				return Result{}, ctx.Err()
			case <-time.After(wait):
			}
		}
		res, err := f.fetchOnce(ctx, method, url, contentType, payload)
		if err == nil {
			return res, nil
		}
		if ctx.Err() != nil {
			return Result{}, ctx.Err()
		}
		lastErr = err
	}
	return Result{}, fmt.Errorf("%w: %s: %v", ErrGaveUp, url, lastErr)
}

// retryWait is the delay before retry #attempt: linear in the attempt
// number, jittered over [d/2, d] so a worker pool whose requests failed
// together (a rate-limit window, a server restart) doesn't retry
// together and fail together again.
func retryWait(attempt int, base time.Duration) time.Duration {
	d := time.Duration(attempt) * base
	if d <= 1 {
		return d
	}
	half := d / 2
	return half + rand.N(half+1)
}

// retryableError marks a response that should be retried, optionally
// carrying the server's Retry-After hint.
type retryableError struct {
	status int
	after  time.Duration
}

func (e *retryableError) Error() string {
	return fmt.Sprintf("crawlkit: HTTP %d", e.status)
}

func retryAfter(err error) (time.Duration, bool) {
	var re *retryableError
	if errors.As(err, &re) && re.after > 0 {
		return re.after, true
	}
	return 0, false
}

func (f *Fetcher) fetchOnce(ctx context.Context, method, url, contentType, payload string) (Result, error) {
	var rd io.Reader
	if payload != "" {
		rd = strings.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return Result{}, fmt.Errorf("crawlkit: build request: %w", err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	req.Header.Set("User-Agent", userAgent)
	for _, c := range f.cookies {
		req.AddCookie(c)
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return Result{}, fmt.Errorf("crawlkit: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, f.maxBody))
	if err != nil {
		return Result{}, fmt.Errorf("crawlkit: read body: %w", err)
	}
	if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode >= 500 {
		re := &retryableError{status: resp.StatusCode}
		if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
			if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil {
				re.after = time.Duration(secs) * time.Second
			}
		}
		return Result{}, re
	}
	return Result{Status: resp.StatusCode, Body: body, Header: resp.Header, Size: len(body)}, nil
}

// ForEach processes items with `workers` goroutines. Failed items are
// collected and re-run in follow-up passes until either everything
// succeeds or a full pass makes no progress; the residual errors are
// returned joined. fn must be safe for concurrent calls.
func ForEach[T any](ctx context.Context, items []T, workers int, fn func(context.Context, T) error) error {
	if workers < 1 {
		workers = 1
	}
	pending := items
	for len(pending) > 0 {
		failed, errs := onePass(ctx, pending, workers, fn)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if len(failed) == len(pending) {
			// No progress: give up and surface the errors.
			return errors.Join(errs...)
		}
		pending = failed
	}
	return nil
}

func onePass[T any](ctx context.Context, items []T, workers int, fn func(context.Context, T) error) ([]T, []error) {
	type outcome struct {
		item T
		err  error
	}
	jobs := make(chan T)
	results := make(chan outcome)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for item := range jobs {
				results <- outcome{item, fn(ctx, item)}
			}
		}()
	}
	go func() {
		defer close(jobs)
		for _, item := range items {
			select {
			case jobs <- item:
			case <-ctx.Done():
				return
			}
		}
	}()
	go func() {
		wg.Wait()
		close(results)
	}()
	var failed []T
	var errs []error
	for out := range results {
		if out.err != nil {
			failed = append(failed, out.item)
			errs = append(errs, out.err)
		}
	}
	return failed, errs
}

// RateGate paces requests to at most one per interval, the "at most one
// request per second" politeness of §3.4. The zero value never blocks.
type RateGate struct {
	mu       sync.Mutex
	interval time.Duration
	next     time.Time
}

// NewRateGate builds a gate with the given minimum spacing.
func NewRateGate(interval time.Duration) *RateGate {
	return &RateGate{interval: interval}
}

// Wait blocks until the next slot (or ctx is done).
func (g *RateGate) Wait(ctx context.Context) error {
	if g == nil || g.interval <= 0 {
		return nil
	}
	g.mu.Lock()
	now := time.Now()
	wait := g.next.Sub(now)
	if wait < 0 {
		wait = 0
		g.next = now.Add(g.interval)
	} else {
		g.next = g.next.Add(g.interval)
	}
	g.mu.Unlock()
	if wait == 0 {
		return nil
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-time.After(wait):
		return nil
	}
}
