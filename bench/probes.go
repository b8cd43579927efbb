package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"dissenter/internal/dissenterweb"
	"dissenter/internal/eventlog"
	"dissenter/internal/gateway"
	"dissenter/internal/httpguard"
	"dissenter/internal/ids"
	"dissenter/internal/platform"
	"dissenter/internal/replica"
	"dissenter/internal/respcache"
	"dissenter/internal/urlkit"
)

// Layer probes: loops that call one layer's public functions directly,
// on inputs taken from the workload's own op list, so each layer has a
// number of its own that no other layer's change can move. They run
// after the workload, on the store it left behind.

// timeLoop calls f in batches until d has passed and returns the mean
// time per call in ns. batch keeps the clock off the path of calls that
// cost less than reading it.
func timeLoop(d time.Duration, batch int, f func(i int)) float64 {
	n := 0
	start := time.Now()
	for {
		for j := 0; j < batch; j++ {
			f(n)
			n++
		}
		if el := time.Since(start); el >= d {
			return float64(el) / float64(n)
		}
	}
}

// discard is a ResponseWriter that keeps headers and drops bodies.
type discard struct{ h http.Header }

func (w *discard) Header() http.Header         { return w.h }
func (w *discard) Write(p []byte) (int, error) { return len(p), nil }
func (w *discard) WriteHeader(int)             {}

// bareServer serves h under httpguard.Serve on loopback until stop.
func bareServer(h http.Handler) (host string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		httpguard.Serve(ctx, ln, h, httpguard.ServeOptions{DrainTimeout: time.Second})
	}()
	return ln.Addr().String(), func() { cancel(); <-done }, nil
}

// getLoop times keep-alive GETs of http://host/ on one connection.
func getLoop(d time.Duration, host string) (float64, error) {
	tr := &http.Transport{DisableCompression: true}
	defer tr.CloseIdleConnections()
	req, err := http.NewRequest(http.MethodGet, "http://"+host+"/", nil)
	if err != nil {
		return 0, err
	}
	var failed error
	ns := timeLoop(d, 1, func(int) {
		resp, err := tr.RoundTrip(req)
		if err == nil {
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		if err != nil && failed == nil {
			failed = err
		}
	})
	return ns, failed
}

// probeIdleApply times one vote from the primary's store to the
// replica's on an otherwise idle fleet: the floor under visible lag.
func probeIdleApply(d time.Duration, f *fleet, urlID ids.ObjectID) float64 {
	return timeLoop(d, 1, func(int) {
		f.db.Vote(urlID, 1, 0)
		f.rep.DB().AwaitEvents(f.db.EventSeq()-1, nil)
	}) / 1e3
}

// runProbes runs every in-process probe for d each on db, the store the
// workload left, and adds the results to m.
func runProbes(d time.Duration, db *platform.DB, p *plan, dir string, m metrics) error {
	// The inputs: the discussion pages the workload addressed.
	var reqs []*http.Request
	var raws []string
	for i := range p.targets {
		t := &p.targets[i]
		if t.path == "/discussion" && t.known && len(reqs) < 256 {
			r, err := http.NewRequest(http.MethodGet, "http://probe"+t.path+"?"+t.query, nil)
			if err != nil {
				return err
			}
			r.Header.Set("Accept-Encoding", "gzip")
			reqs = append(reqs, r)
			raws = append(raws, t.raw)
		}
	}
	urlIDs := p.urlIDs[:len(reqs)]
	w := &discard{h: http.Header{}}

	// dissenterweb: the handler in process, no sockets.
	web := dissenterweb.NewServer(db, dissenterweb.WithURLRateLimit(0, time.Minute))
	author := db.ActiveUsers()[0]
	web.RegisterSession("w0", dissenterweb.Session{Username: author.Username})
	hot := reqs[0]
	web.ServeHTTP(w, hot)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	calls := 0
	m.set("dissenterweb.hit_ns", "ns", timeLoop(d, 64, func(int) { web.ServeHTTP(w, hot); calls++ }))
	runtime.ReadMemStats(&ms1)
	m.set("dissenterweb.hit_allocs", "count", float64(ms1.Mallocs-ms0.Mallocs)/float64(calls))
	revalidate := hot.Clone(context.Background())
	revalidate.Header.Set("If-None-Match", w.h.Get("Etag"))
	m.set("dissenterweb.hit304_ns", "ns", timeLoop(d, 64, func(int) { web.ServeHTTP(w, revalidate) }))
	// A cache whose entries expire at once makes every request the real
	// miss: render, compose, gzip, fill. (A disabled cache would skip
	// compose and gzip and stream the store's memoized page.)
	expiring := dissenterweb.NewServer(db, dissenterweb.WithURLRateLimit(0, time.Minute), dissenterweb.WithResponseCache(dissenterweb.DefaultCacheSize, time.Nanosecond))
	m.set("dissenterweb.miss_us", "us", timeLoop(d, 1, func(i int) { expiring.ServeHTTP(w, reqs[i%len(reqs)]) })/1e3)
	form := "url=" + url.QueryEscape(raws[0]) + "&text=" + p.texts[0]
	m.set("dissenterweb.post_us", "us", timeLoop(d, 1, func(int) {
		r, _ := http.NewRequest(http.MethodPost, "http://probe/discussion/comment", strings.NewReader(form))
		r.Header.Set("Content-Type", "application/x-www-form-urlencoded")
		r.Header.Set("Cookie", "session=w0")
		web.ServeHTTP(w, r)
	})/1e3)

	// respcache: the cache's own operations on a cache of its own.
	body, _ := db.CommentStream(urlIDs[0], false, false)
	composed := respcache.Compose(body, respcache.Rev{Seq: 1})
	fill := func(respcache.Rev) *respcache.Composed { return composed }
	key := func(buf []byte, i int) string {
		return string(strconv.AppendInt(append(buf[:0], "k"...), int64(i), 10))
	}
	var kb [24]byte
	cache := respcache.New[*respcache.Composed](dissenterweb.DefaultCacheSize, time.Hour)
	cache.GetOrFillRev("hot", fill)
	hotKey := []byte("hot")
	m.set("respcache.hit_ns", "ns", timeLoop(d, 256, func(int) { cache.GetBytes(hotKey) }))
	// Every goroutine's own latency per hit while all of them hit one
	// key: equal to hit_ns unless the shard lock serializes them.
	workers := runtime.GOMAXPROCS(0)
	per := make([]float64, workers)
	var wg sync.WaitGroup
	for g := range per {
		wg.Add(1)
		go func() {
			defer wg.Done()
			per[g] = timeLoop(d, 256, func(int) { cache.GetBytes(hotKey) })
		}()
	}
	wg.Wait()
	var sum float64
	for _, v := range per {
		sum += v
	}
	m.set("respcache.hit_contended_ns", "ns", sum/float64(workers))
	m.set("respcache.update_ns", "ns", timeLoop(d, 256, func(int) {
		cache.UpdateRev("hot", func(c *respcache.Composed, _ respcache.Rev) *respcache.Composed { return c })
	}))
	// Fills without eviction: a fresh cache at half load every 4096
	// keys (building it costs a few ns per fill).
	const round = dissenterweb.DefaultCacheSize
	var roomy *respcache.Cache[*respcache.Composed]
	m.set("respcache.fill_ns", "ns", timeLoop(d, round, func(i int) {
		if i%round == 0 {
			roomy = respcache.New[*respcache.Composed](2*round, time.Hour)
		}
		roomy.GetOrFillRev(key(kb[:], i), fill)
	}))
	for i := 0; i < round; i++ {
		cache.GetOrFillRev(key(kb[:], -i-1), fill)
	}
	m.set("respcache.evict_fill_ns", "ns", timeLoop(d, 256, func(i int) { cache.GetOrFillRev(key(kb[:], i), fill) }))
	// An invalidation needs a live entry to drop, so each call follows
	// an untimed fill and is timed on its own, two clock reads included.
	var invalidating time.Duration
	calls = 0
	for start := time.Now(); time.Since(start) < d; calls++ {
		cache.GetOrFillRev("pair", fill)
		t := time.Now()
		cache.Invalidate("pair")
		invalidating += time.Since(t)
	}
	m.set("respcache.invalidate_ns", "ns", float64(invalidating)/float64(calls))
	m.set("respcache.compose_us", "us", timeLoop(d, 1, func(int) { respcache.Compose(body, respcache.Rev{Seq: 1}) })/1e3)

	// platform: the store's read and write entry points with its four
	// built-in views attached.
	m.set("platform.comment_stream_ns", "ns", timeLoop(d, 64, func(i int) { db.CommentStream(urlIDs[i%len(urlIDs)], false, false) }))
	m.set("platform.top_trends_ns", "ns", timeLoop(d, 16, func(int) { db.TopTrends(false, false) }))
	gen := ids.NewGenerator(0xBE7C4)
	m.set("platform.add_comment_ns", "ns", timeLoop(d, 16, func(i int) {
		id := gen.New()
		db.AddComment(&platform.Comment{ID: id, URLID: urlIDs[i%len(urlIDs)], AuthorID: author.AuthorID, Text: "probe", CreatedAt: id.Time()})
	}))
	m.set("platform.vote_ns", "ns", timeLoop(d, 64, func(i int) { db.Vote(urlIDs[i%len(urlIDs)], 1, 0) }))
	var cp platform.Checkpoint
	m.set("platform.checkpoint_ms", "ms", timeLoop(d, 1, func(int) { cp = db.Checkpoint() })/1e6)

	// eventlog: the codec, a group commit of 64 records, a snapshot.
	rec := eventlog.Record{Seq: 1, Event: platform.CommentAdded{Comment: cp.Comments[len(cp.Comments)-1]}}
	var frame []byte
	m.set("eventlog.encode_ns", "ns", timeLoop(d, 64, func(int) { frame, _ = eventlog.AppendRecord(frame[:0], rec) }))
	wal, err := eventlog.CreateWAL(filepath.Join(dir, "probe.wal"), 0)
	if err != nil {
		return fmt.Errorf("wal probe: %w", err)
	}
	seq := uint64(0)
	m.set("eventlog.wal_commit_us", "us", timeLoop(d, 1, func(int) {
		for j := 0; j < 64 && err == nil; j++ {
			seq++
			rec.Seq = seq
			err = wal.Append(rec)
		}
		if err == nil {
			err = wal.Sync()
		}
	})/1e3)
	if cerr := wal.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("wal probe: %w", err)
	}
	m.set("eventlog.snapshot_ms", "ms", timeLoop(d, 1, func(int) { eventlog.EncodeSnapshot(db.Checkpoint()) })/1e6)

	m.set("urlkit.normalize_ns", "ns", timeLoop(d, 256, func(i int) { urlkit.Normalize(raws[i%len(raws)]) }))
	admit := httpguard.Admission(1024, time.Second, http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	m.set("httpguard.admit_ns", "ns", timeLoop(d, 256, func(int) { admit.ServeHTTP(w, hot) }))

	// nethttp and the gateway: a handler that only writes the page's
	// gzip bytes is the floor no change to this repository can beat;
	// the same handler behind a gateway shows what the hop costs.
	payload := composed.Gzip
	if payload == nil {
		payload = composed.Body
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/replication-status", func(w http.ResponseWriter, r *http.Request) {
		replica.ServeStatus(w, replica.PrimaryStatus(db, 0, nil))
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, "ready\n") })
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", strconv.Itoa(len(payload)))
		w.Write(payload)
	})
	backHost, stopBack, err := bareServer(mux)
	if err != nil {
		return err
	}
	defer stopBack()
	floorNS, err := getLoop(d, backHost)
	if err != nil {
		return fmt.Errorf("floor probe: %w", err)
	}
	m.set("nethttp.floor_us", "us", floorNS/1e3)
	tr := http.DefaultTransport.(*http.Transport).Clone()
	defer tr.CloseIdleConnections()
	gw := gateway.New("http://"+backHost, nil, gateway.Options{Transport: tr})
	gw.ProbeNow(context.Background())
	frontHost, stopFront, err := bareServer(gw)
	if err != nil {
		return err
	}
	defer stopFront()
	viaNS, err := getLoop(d, frontHost)
	if err != nil {
		return fmt.Errorf("gateway hop probe: %w", err)
	}
	m.set("gateway.hop_us", "us", (viaNS-floorNS)/1e3)
	return nil
}
