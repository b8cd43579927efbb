package crawlkit

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestGetSimple(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "hello")
	}))
	defer srv.Close()
	f := NewFetcher(srv.Client())
	res, err := f.Get(context.Background(), srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != 200 || string(res.Body) != "hello" || res.Size != 5 {
		t.Errorf("res = %+v", res)
	}
}

func TestGetDoesNotRetry404(t *testing.T) {
	var hits atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.NotFound(w, r)
	}))
	defer srv.Close()
	f := NewFetcher(srv.Client())
	res, err := f.Get(context.Background(), srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != 404 {
		t.Errorf("status = %d", res.Status)
	}
	if hits.Load() != 1 {
		t.Errorf("404 fetched %d times, want 1", hits.Load())
	}
}

func TestGetRetries5xx(t *testing.T) {
	var hits atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) < 3 {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		fmt.Fprint(w, "recovered")
	}))
	defer srv.Close()
	f := NewFetcher(srv.Client(), WithRetries(4, time.Millisecond))
	res, err := f.Get(context.Background(), srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Body) != "recovered" {
		t.Errorf("body = %q", res.Body)
	}
}

func TestGetHonorsRetryAfter(t *testing.T) {
	var hits atomic.Int32
	start := time.Now()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "throttled", http.StatusTooManyRequests)
			return
		}
		fmt.Fprint(w, "ok")
	}))
	defer srv.Close()
	f := NewFetcher(srv.Client(), WithRetries(2, time.Millisecond))
	if _, err := f.Get(context.Background(), srv.URL); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 900*time.Millisecond {
		t.Errorf("Retry-After not honored: elapsed %v", elapsed)
	}
}

// TestRetryAfterOn429And503 reads the hint fetchOnce hands the retry
// loop, without sleeping it out: httpguard's admission shed and the
// gateway's unavailable answer are 503s that carry one, a 429 carries
// one, and other 5xx responses retry on the fetcher's own backoff.
func TestRetryAfterOn429And503(t *testing.T) {
	for status, want := range map[int]time.Duration{
		http.StatusTooManyRequests:    7 * time.Second,
		http.StatusServiceUnavailable: 7 * time.Second,
		http.StatusBadGateway:         0,
	} {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Retry-After", "7")
			http.Error(w, "not now", status)
		}))
		_, err := NewFetcher(srv.Client()).fetchOnce(context.Background(), http.MethodGet, srv.URL, "", "")
		srv.Close()
		if got, _ := retryAfter(err); got != want {
			t.Errorf("HTTP %d: retryAfter = %v, want %v (err %v)", status, got, want, err)
		}
	}
}

func TestGetGivesUp(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "always broken", http.StatusBadGateway)
	}))
	defer srv.Close()
	f := NewFetcher(srv.Client(), WithRetries(2, time.Millisecond))
	_, err := f.Get(context.Background(), srv.URL)
	if !errors.Is(err, ErrGaveUp) {
		t.Fatalf("err = %v, want ErrGaveUp", err)
	}
}

func TestGetSendsCookieAndUA(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c, err := r.Cookie("session")
		if err != nil || c.Value != "tok" {
			http.Error(w, "no cookie", http.StatusForbidden)
			return
		}
		fmt.Fprint(w, r.UserAgent())
	}))
	defer srv.Close()
	f := NewFetcher(srv.Client(),
		WithCookie(&http.Cookie{Name: "session", Value: "tok"}))
	res, err := f.Get(context.Background(), srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != 200 || string(res.Body) != userAgent {
		t.Errorf("res = %d %q", res.Status, res.Body)
	}
}

func TestGetContextCancel(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(time.Second)
	}))
	defer srv.Close()
	f := NewFetcher(srv.Client())
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := f.Get(ctx, srv.URL); err == nil {
		t.Fatal("expected context error")
	}
}

func TestForEachCompletes(t *testing.T) {
	var mu sync.Mutex
	seen := map[int]int{}
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	err := ForEach(context.Background(), items, 8, func(_ context.Context, i int) error {
		mu.Lock()
		defer mu.Unlock()
		seen[i]++
		// Fail every third item once to exercise the re-request pass.
		if i%3 == 0 && seen[i] == 1 {
			return fmt.Errorf("transient %d", i)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range items {
		if seen[i] == 0 {
			t.Fatalf("item %d never processed", i)
		}
	}
}

func TestForEachGivesUpWithoutProgress(t *testing.T) {
	items := []int{1, 2, 3}
	err := ForEach(context.Background(), items, 2, func(_ context.Context, i int) error {
		return fmt.Errorf("permanent %d", i)
	})
	if err == nil {
		t.Fatal("expected error for permanent failures")
	}
}

func TestForEachEmptyAndCancel(t *testing.T) {
	if err := ForEach(context.Background(), nil, 4, func(_ context.Context, _ int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := ForEach(ctx, []int{1, 2}, 1, func(_ context.Context, _ int) error {
		return nil
	})
	// With a canceled context we expect either a clean no-op or ctx.Err.
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
}

func TestRateGateSpacing(t *testing.T) {
	g := NewRateGate(20 * time.Millisecond)
	ctx := context.Background()
	start := time.Now()
	for i := 0; i < 4; i++ {
		if err := g.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if elapsed := time.Since(start); elapsed < 50*time.Millisecond {
		t.Errorf("4 permits in %v; gate not pacing", elapsed)
	}
}

func TestRateGateNil(t *testing.T) {
	var g *RateGate
	if err := g.Wait(context.Background()); err != nil {
		t.Fatal("nil gate should never block or fail")
	}
	zero := &RateGate{}
	if err := zero.Wait(context.Background()); err != nil {
		t.Fatal("zero gate should never block or fail")
	}
}

func TestRateGateCancel(t *testing.T) {
	g := NewRateGate(time.Hour)
	ctx, cancel := context.WithCancel(context.Background())
	_ = g.Wait(ctx) // consume the immediate slot
	cancel()
	if err := g.Wait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRetryWaitJitterBounds(t *testing.T) {
	base := 100 * time.Millisecond
	for attempt := 1; attempt <= 4; attempt++ {
		linear := time.Duration(attempt) * base
		lo, hi := linear, linear/2
		for i := 0; i < 200; i++ {
			w := retryWait(attempt, base)
			if w < linear/2 || w > linear {
				t.Fatalf("attempt %d: wait %v outside [%v, %v]", attempt, w, linear/2, linear)
			}
			if w < lo {
				lo = w
			}
			if w > hi {
				hi = w
			}
		}
		// 200 draws over a 50ms+ span must actually spread: a fetcher
		// fleet retrying in lockstep is exactly what jitter prevents.
		if lo == hi {
			t.Fatalf("attempt %d: 200 draws all landed on %v — no jitter", attempt, lo)
		}
	}
	if w := retryWait(0, base); w != 0 {
		t.Fatalf("attempt 0 wait = %v, want 0", w)
	}
}
