package main

import (
	"bufio"
	"io"
	iofs "io/fs"
	"math"
	"net/http"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dissenter/internal/faultinject"
	"dissenter/internal/ids"
	"dissenter/internal/platform"
)

// Tracing lives entirely in the benchmark: wrappers around the calls
// into each layer record spans into a preallocated buffer, keyed by
// the X-Bench-Id header the load generator stamps (the gateway
// forwards request headers unchanged). Nothing under internal/ knows.

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of an
// ascending slice, 0 when it is empty.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func sortedCopy(v []int64) []int64 {
	out := slices.Clone(v)
	slices.Sort(out)
	return out
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

// spanKind names a layer boundary. The order is the nesting order of
// one request: each kind's span encloses the spans of every later
// kind that the request reaches.
type spanKind uint8

const (
	spanClient    spanKind = iota // loadgen: send to last body byte
	spanFrontGate                 // httpguard.Admission in front of the gateway
	spanGateway                   // Gateway.ServeHTTP
	spanUpstream                  // the gateway's RoundTrip to a backend, to body close
	spanBackGate                  // httpguard.Admission in front of the primary's app
	spanWeb                       // dissenterweb.Server.ServeHTTP
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"client.request", "httpguard.admit", "gateway.serve",
	"gateway.upstream", "httpguard.admit", "dissenterweb.serve",
}

type span struct {
	id         uint64
	kind       spanKind
	start, end int64 // ns since the recorder's epoch
}

// Request ids carry the op class in bit 0 so the ledger can split
// reads from writes without a side table.
func requestID(client, seq int, write bool) uint64 {
	id := uint64(client+1)<<40 | uint64(seq+1)<<1
	if write {
		id |= 1
	}
	return id
}

func idIsWrite(id uint64) bool { return id&1 == 1 }

const benchIDHeader = "X-Bench-Id"

func benchID(r *http.Request) uint64 {
	v := r.Header[benchIDHeader]
	if len(v) == 0 {
		return 0
	}
	id, _ := strconv.ParseUint(v[0], 10, 64)
	return id
}

// recorder collects the spans and boundary counts of one traced run.
type recorder struct {
	epoch time.Time
	next  atomic.Int64
	spans []span

	inflight, inflightMax atomic.Int64
	reads, readsToPrimary atomic.Int64
}

func newRecorder(capacity int) *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, capacity)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) add(id uint64, kind spanKind, start, end int64) {
	if i := r.next.Add(1) - 1; i < int64(len(r.spans)) {
		r.spans[i] = span{id, kind, start, end}
	}
}

// recorded returns the spans written so far; dropped is how many did
// not fit.
func (r *recorder) recorded() (spans []span, dropped int64) {
	n := r.next.Load()
	if n > int64(len(r.spans)) {
		return r.spans, n - int64(len(r.spans))
	}
	return r.spans[:n], 0
}

// handler records a span of kind round next for every stamped request.
// Unstamped requests (probes, the untraced phases) pass straight
// through.
func (r *recorder) handler(kind spanKind, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		id := benchID(req)
		if id == 0 {
			next.ServeHTTP(w, req)
			return
		}
		if kind == spanFrontGate || kind == spanBackGate {
			n := r.inflight.Add(1)
			for m := r.inflightMax.Load(); n > m && !r.inflightMax.CompareAndSwap(m, n); m = r.inflightMax.Load() {
			}
			defer r.inflight.Add(-1)
		}
		start := r.now()
		next.ServeHTTP(w, req)
		r.add(id, kind, start, r.now())
	})
}

// upstream wraps the gateway's transport: the span runs from RoundTrip
// to the close of the response body, which is when the gateway has the
// whole answer.
type upstream struct {
	rec         *recorder
	next        http.RoundTripper
	primaryHost string
}

func (u *upstream) RoundTrip(req *http.Request) (*http.Response, error) {
	id := benchID(req)
	if id == 0 {
		return u.next.RoundTrip(req)
	}
	if !idIsWrite(id) {
		u.rec.reads.Add(1)
		if req.URL.Host == u.primaryHost {
			u.rec.readsToPrimary.Add(1)
		}
	}
	start := u.rec.now()
	resp, err := u.next.RoundTrip(req)
	if err != nil {
		u.rec.add(id, spanUpstream, start, u.rec.now())
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, rec: u.rec, id: id, start: start}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	rec   *recorder
	id    uint64
	start int64
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.rec.add(b.id, spanUpstream, b.start, b.rec.now())
	return err
}

// requestTrace is one request's spans folded per kind.
type requestTrace struct {
	id  uint64
	dur [numSpanKinds]int64 // summed span time per kind, 0 when absent
}

// self returns the time spent in kind itself: its span minus the span
// of the next layer the request reached.
func (t *requestTrace) self(kind spanKind) int64 {
	for k := kind + 1; k < numSpanKinds; k++ {
		if t.dur[k] > 0 {
			return t.dur[kind] - t.dur[k]
		}
	}
	return t.dur[kind]
}

// foldSpans groups spans by request. Spans are sorted in place by
// (id, kind, start).
func foldSpans(spans []span) []requestTrace {
	sort.Slice(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if a.id != b.id {
			return a.id < b.id
		}
		if a.kind != b.kind {
			return a.kind < b.kind
		}
		return a.start < b.start
	})
	var out []requestTrace
	for _, s := range spans {
		if len(out) == 0 || out[len(out)-1].id != s.id {
			out = append(out, requestTrace{id: s.id})
		}
		out[len(out)-1].dur[s.kind] += s.end - s.start
	}
	return out
}

// ledger is the per-layer account of one class of traced requests.
type ledger struct {
	n int
	// selfP50 and selfP99 are per span kind; total is client.request.
	selfP50, selfP99   [numSpanKinds]int64
	totalP50, totalP99 int64
	webP50, webP99     int64
	// unattributedPct is the share of the median request the layer
	// medians do not add up to.
	unattributedPct float64
}

// account builds the ledger over the traces write selects. Requests
// with no client span (still in flight when the phase ended) are
// skipped.
func account(traces []requestTrace, write bool) ledger {
	var selfs [numSpanKinds][]int64
	var total, web []int64
	for i := range traces {
		t := &traces[i]
		if idIsWrite(t.id) != write || t.dur[spanClient] == 0 {
			continue
		}
		total = append(total, t.dur[spanClient])
		web = append(web, t.dur[spanWeb])
		for k := spanKind(0); k < numSpanKinds; k++ {
			if t.dur[k] > 0 {
				selfs[k] = append(selfs[k], t.self(k))
			}
		}
	}
	l := ledger{n: len(total)}
	if l.n == 0 {
		return l
	}
	total, web = sortedCopy(total), sortedCopy(web)
	l.totalP50, l.totalP99 = percentile(total, 0.5), percentile(total, 0.99)
	l.webP50, l.webP99 = percentile(web, 0.5), percentile(web, 0.99)
	var sum int64
	for k := range selfs {
		s := sortedCopy(selfs[k])
		l.selfP50[k], l.selfP99[k] = percentile(s, 0.5), percentile(s, 0.99)
		sum += l.selfP50[k]
	}
	l.unattributedPct = 100 * float64(l.totalP50-sum) / float64(l.totalP50)
	return l
}

// writeTrace writes spans as JSON lines {id, name, parent, start, end}
// (times in ns since the traced phase's epoch). spans must be sorted
// by foldSpans, so a span's parent is the previous kind of its id.
func writeTrace(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var line []byte
	for i, s := range spans {
		parent := ""
		for j := i - 1; j >= 0 && spans[j].id == s.id; j-- {
			if spans[j].kind < s.kind {
				parent = spanNames[spans[j].kind]
				break
			}
		}
		line = append(line[:0], `{"id":`...)
		line = strconv.AppendUint(line, s.id, 10)
		line = append(line, `,"name":"`...)
		line = append(line, spanNames[s.kind]...)
		line = append(line, `","parent":"`...)
		line = append(line, parent...)
		line = append(line, `","start":`...)
		line = strconv.AppendInt(line, s.start, 10)
		line = append(line, `,"end":`...)
		line = strconv.AppendInt(line, s.end, 10)
		line = append(line, "}\n"...)
		w.Write(line)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// stampView notes when each comment is applied to a store. Registered
// on the primary's and the replica's DB it gives replication's
// visible lag per comment, on one clock.
type stampView struct {
	rec *recorder
	mu  sync.Mutex
	at  map[ids.ObjectID]int64
}

func newStampView(rec *recorder) *stampView {
	return &stampView{rec: rec, at: map[ids.ObjectID]int64{}}
}

func (v *stampView) Name() string { return "bench-stamp" }

func (v *stampView) Apply(_ *platform.DB, ev platform.Event) {
	if ca, ok := ev.(platform.CommentAdded); ok {
		t := v.rec.now()
		v.mu.Lock()
		v.at[ca.Comment.ID] = t
		v.mu.Unlock()
	}
}

// Rebuild has nothing to derive: stamps only exist for live applies.
func (v *stampView) Rebuild(*platform.DB) {}

func (v *stampView) stamp(id ids.ObjectID) (int64, bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	t, ok := v.at[id]
	return t, ok
}

// countFS counts and times what a Persister does to its directory.
type countFS struct {
	faultinject.FS
	mu       sync.Mutex
	bytes    int64   // every byte written, snapshots included
	walBytes int64   // bytes written to .wal files
	walSyncs []int64 // duration of each .wal fsync, ns
	syncNS   int64   // time inside any Sync
	renames  int64   // snapshot tmp -> final: one per rotation
}

func newCountFS() *countFS { return &countFS{FS: faultinject.OS} }

func (c *countFS) OpenFile(name string, flag int, perm iofs.FileMode) (faultinject.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &countFile{File: f, c: c, wal: strings.HasSuffix(name, ".wal")}, nil
}

func (c *countFS) Rename(oldpath, newpath string) error {
	c.mu.Lock()
	c.renames++
	c.mu.Unlock()
	return c.FS.Rename(oldpath, newpath)
}

type countFile struct {
	faultinject.File
	c   *countFS
	wal bool
}

func (f *countFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.c.mu.Lock()
	f.c.bytes += int64(n)
	if f.wal {
		f.c.walBytes += int64(n)
	}
	f.c.mu.Unlock()
	return n, err
}

func (f *countFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	d := int64(time.Since(start))
	f.c.mu.Lock()
	f.c.syncNS += d
	if f.wal {
		f.c.walSyncs = append(f.c.walSyncs, d)
	}
	f.c.mu.Unlock()
	return err
}

// fsCounts is a copy of countFS's counters at one instant.
type fsCounts struct {
	bytes, walBytes, syncNS, renames int64
	walSyncs                         []int64
}

func (c *countFS) snapshot() fsCounts {
	c.mu.Lock()
	defer c.mu.Unlock()
	return fsCounts{c.bytes, c.walBytes, c.syncNS, c.renames, append([]int64(nil), c.walSyncs...)}
}

// cursorSample is the fleet's replication cursors at one instant.
type cursorSample struct {
	t int64
	// head and base bound the primary's in-memory event log; durable
	// is its WAL's cursor, repl the replica's applied cursor.
	head, base, durable, repl uint64
}

// sampleCursors polls read every millisecond until stop closes.
func sampleCursors(rec *recorder, read func() cursorSample, stop <-chan struct{}) []cursorSample {
	var out []cursorSample
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return out
		case <-tick.C:
			s := read()
			s.t = rec.now()
			out = append(out, s)
		}
	}
}

// durableLags returns, for every sample at which the head had moved,
// how long it took until a sample showed that head durable.
func durableLags(samples []cursorSample) []int64 {
	var lags []int64
	j := 0
	for i, s := range samples {
		if i == 0 || s.head == samples[i-1].head {
			continue
		}
		for j < len(samples) && (j < i || samples[j].durable < s.head) {
			j++
		}
		if j == len(samples) {
			break
		}
		lags = append(lags, samples[j].t-s.t)
	}
	return lags
}
