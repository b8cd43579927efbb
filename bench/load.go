package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"hash/maphash"
	"io"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"dissenter/internal/ids"
)

// The load generator: one goroutine and one keep-alive connection per
// client, each replaying its own op list and checking every response
// against what it knows (extest's idiom: the content is known, so the
// run doubles as a correctness test).

var hashSeed = maphash.MakeSeed()

// Header values shared by every request; net/http never mutates them.
var (
	gzipHdr = []string{"gzip"}
	formHdr = []string{"application/x-www-form-urlencoded"}
)

const commentIDAttr = `data-comment-id="`

// pageKey is one cacheable page as the server keys it: target and
// session view.
func pageKey(o op) uint64 { return uint64(o.target)<<8 | uint64(o.session) }

type bodyKey struct {
	page uint64
	etag string
}

// ackedComment is a comment the primary acknowledged.
type ackedComment struct {
	id     ids.ObjectID
	target int32
	sent   int64 // recorder time of the POST (traced phase only)
}

// gzipSample is a gzip response kept for the identity check after the
// run: inflated must equal the identity body served under etag.
type gzipSample struct {
	o        op
	etag     string
	inflated uint64
}

// sample is one completed op and how long it took.
type sample struct {
	ns    int64
	write bool
}

func anyOp(sample) bool     { return true }
func readOp(s sample) bool  { return !s.write }
func writeOp(s sample) bool { return s.write }

// tally is what one client observed in one phase.
type tally struct {
	done        []sample
	respBytes   []int64
	attempted   int
	failed      int
	notModified int
	stale       int
	shed        int
	failures    []string // the first few, for the report
	// Open loop only: how late each request left, ns.
	lateNS []int64
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.failures) < 5 {
		t.failures = append(t.failures, fmt.Sprintf(format, args...))
	}
}

// latencies returns the ascending latencies of the ops keep selects.
func (t *tally) latencies(keep func(sample) bool) []int64 {
	var ns []int64
	for _, s := range t.done {
		if keep(s) {
			ns = append(ns, s.ns)
		}
	}
	slices.Sort(ns)
	return ns
}

func (t *tally) merge(o *tally) {
	t.done = append(t.done, o.done...)
	t.respBytes = append(t.respBytes, o.respBytes...)
	t.lateNS = append(t.lateNS, o.lateNS...)
	t.attempted += o.attempted
	t.failed += o.failed
	t.notModified += o.notModified
	t.stale += o.stale
	t.shed += o.shed
	for _, f := range o.failures {
		if len(t.failures) < 5 {
			t.failures = append(t.failures, f)
		}
	}
}

type client struct {
	n    int
	p    *plan
	host string
	tr   *http.Transport
	rec  *recorder // non-nil while requests are stamped and timed as spans
	buf  bytes.Buffer
	next int // position in p.ops[n]
	seq  int // requests sent, for ids

	// What this client was served: the last ETag per page and the body
	// hash per (page, ETag). State outlives phases; tallies do not.
	etags   map[uint64]string
	bodies  map[bodyKey]uint64
	acked   []ackedComment
	samples []gzipSample
	gzips   int
	tally   tally
}

func newClients(p *plan, host string, n int) []*client {
	cs := make([]*client, n)
	for i := range cs {
		cs[i] = &client{
			n: i, p: p, host: host,
			tr:     &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
			etags:  map[uint64]string{},
			bodies: map[bodyKey]uint64{},
		}
	}
	return cs
}

// do sends one op and checks the answer. due is when an open-loop
// schedule wanted it sent (zero in a closed loop): latency is then
// counted from due, so a stall is charged to every request it delays.
func (c *client) do(o op, due time.Time) {
	t := &c.p.targets[o.target]
	req := &http.Request{
		Method: http.MethodGet,
		URL:    &url.URL{Scheme: "http", Host: c.host, Path: t.path, RawQuery: t.query},
		Host:   c.host,
		Header: http.Header{"Accept-Encoding": gzipHdr},
		Proto:  "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
	}
	if o.session != 0 {
		req.Header["Cookie"] = []string{c.p.sessions[o.session]}
	}
	sentTag := ""
	switch {
	case o.kind == opComment:
		form := t.query + "&text=" + c.p.texts[o.text]
		req.Method = http.MethodPost
		req.URL.Path, req.URL.RawQuery = "/discussion/comment", ""
		req.Header["Content-Type"] = formHdr
		req.Body = io.NopCloser(strings.NewReader(form))
		req.ContentLength = int64(len(form))
	case o.cond:
		if sentTag = c.etags[pageKey(o)]; sentTag != "" {
			req.Header["If-None-Match"] = []string{sentTag}
		}
	}
	var id uint64
	if c.rec != nil {
		id = requestID(c.n, c.seq, o.kind.isWrite())
		req.Header[benchIDHeader] = []string{strconv.FormatUint(id, 10)}
	}
	c.seq++
	c.tally.attempted++

	start := time.Now()
	resp, err := c.tr.RoundTrip(req)
	if err == nil {
		c.buf.Reset()
		_, err = c.buf.ReadFrom(resp.Body)
		resp.Body.Close()
	}
	end := time.Now()
	if err != nil {
		c.tally.fail("%s %s: %v", req.Method, t.path, err)
		return
	}
	from := start
	if !due.IsZero() {
		from = due
		c.tally.lateNS = append(c.tally.lateNS, int64(start.Sub(due)))
	}
	c.tally.done = append(c.tally.done, sample{int64(end.Sub(from)), o.kind.isWrite()})
	var sent int64
	if c.rec != nil {
		sent = int64(start.Sub(c.rec.epoch))
		c.rec.add(id, spanClient, sent, int64(end.Sub(c.rec.epoch)))
	}
	c.check(o, resp, sentTag, sent)
}

// check holds one response against what the client knows.
func (c *client) check(o op, resp *http.Response, sentTag string, sent int64) {
	t := &c.p.targets[o.target]
	body := c.buf.Bytes()
	if resp.Header["X-Served-Stale"] != nil {
		c.tally.stale++
	}
	want := http.StatusOK
	if o.kind == opVote {
		want = http.StatusFound
	}
	etag := resp.Header.Get("Etag")
	switch {
	case resp.StatusCode == http.StatusServiceUnavailable:
		c.tally.shed++
		c.tally.fail("%s?%s: shed 503", t.path, t.query)
		return
	case resp.StatusCode == http.StatusNotModified:
		c.tally.notModified++
		// A 304 is only ever right for the validator this client sent,
		// which it was served with a body earlier.
		if sentTag == "" || etag != sentTag || len(body) != 0 {
			c.tally.fail("%s?%s: false 304 (sent %q, got %q, %d body bytes)", t.path, t.query, sentTag, etag, len(body))
		}
		return
	case resp.StatusCode != want:
		c.tally.fail("%s?%s: status %d, want %d", t.path, t.query, resp.StatusCode, want)
		return
	}
	if o.kind == opVote {
		return
	}
	if resp.ContentLength != int64(len(body)) {
		c.tally.fail("%s?%s: Content-Length %d, body %d", t.path, t.query, resp.ContentLength, len(body))
		return
	}
	if o.kind == opComment {
		i := bytes.Index(body, []byte(commentIDAttr))
		if i < 0 || len(body) < i+len(commentIDAttr)+24 {
			c.tally.fail("comment on %s: no comment id in the answer", t.raw)
			return
		}
		i += len(commentIDAttr)
		cid, err := ids.Parse(string(body[i : i+24]))
		if err != nil {
			c.tally.fail("comment on %s: %v", t.raw, err)
			return
		}
		c.acked = append(c.acked, ackedComment{cid, o.target, sent})
		return
	}
	c.tally.respBytes = append(c.tally.respBytes, int64(len(body)))
	if etag == "" {
		if t.known || t.raw == "" {
			c.tally.fail("%s?%s: cacheable page without an ETag", t.path, t.query)
		}
		return
	}
	// One ETag names one byte sequence.
	page := pageKey(o)
	c.etags[page] = etag
	k := bodyKey{page, etag}
	h := maphash.Bytes(hashSeed, body)
	if seen, ok := c.bodies[k]; ok && seen != h {
		c.tally.fail("%s?%s: two bodies under ETag %s", t.path, t.query, etag)
		return
	} else if !ok {
		c.bodies[k] = h
	}
	if resp.Header.Get("Content-Encoding") == "gzip" {
		if c.gzips++; c.gzips%64 == 0 && len(c.samples) < 256 {
			zr, err := gzip.NewReader(bytes.NewReader(body))
			var plain []byte
			if err == nil {
				plain, err = io.ReadAll(zr)
			}
			if err != nil {
				c.tally.fail("%s?%s: gzip body does not inflate: %v", t.path, t.query, err)
				return
			}
			c.samples = append(c.samples, gzipSample{o, etag, maphash.Bytes(hashSeed, plain)})
		}
	}
}

func (c *client) nextOp() op {
	ops := c.p.ops[c.n]
	o := ops[c.next%len(ops)]
	c.next++
	return o
}

// takeTally hands over the phase's observations and starts a new
// phase.
func (c *client) takeTally() tally {
	t := c.tally
	c.tally = tally{}
	return t
}

// phase runs every client concurrently through body and returns their
// merged tallies and the wall time.
func phase(cs []*client, body func(c *client)) (tally, time.Duration) {
	var wg sync.WaitGroup
	start := time.Now()
	for _, c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body(c)
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	var sum tally
	for _, c := range cs {
		t := c.takeTally()
		sum.merge(&t)
	}
	return sum, wall
}

// closedLoop has every client send its next op as soon as the last one
// answered, for d. rec, when set, stamps and records the requests.
func closedLoop(cs []*client, d time.Duration, rec *recorder) (tally, time.Duration) {
	return phase(cs, func(c *client) {
		c.rec = rec
		for end := time.Now().Add(d); time.Now().Before(end); {
			c.do(c.nextOp(), time.Time{})
		}
		c.rec = nil
	})
}

// openLoop sends on a fixed schedule of rate ops/s across the clients
// and times each request from when it was due.
func openLoop(cs []*client, d time.Duration, rate float64) (tally, time.Duration) {
	gap := time.Duration(float64(len(cs)) / rate * float64(time.Second))
	return phase(cs, func(c *client) {
		start := time.Now()
		for i := 0; ; i++ {
			due := start.Add(time.Duration(i) * gap)
			if due.Sub(start) >= d {
				return
			}
			time.Sleep(time.Until(due))
			c.do(c.nextOp(), due)
		}
	})
}

// warmUp fills what a real deployment would have filled long before a
// user arrives: connections, the runtime's pools and, where the
// workload says so, every cacheable read target (shared out among the
// clients).
func warmUp(cs []*client) tally {
	t, _ := phase(cs, func(c *client) {
		if c.p.w.Prefill {
			seen := map[int32]bool{}
			for _, ops := range c.p.ops {
				for _, o := range ops {
					if !o.kind.isWrite() && !seen[o.target] {
						seen[o.target] = true
						if len(seen)%len(cs) == c.n {
							c.do(op{kind: o.kind, target: o.target, session: o.session}, time.Time{})
						}
					}
				}
			}
		}
		for _, o := range c.p.warm[c.n] {
			c.do(o, time.Time{})
		}
	})
	return t
}

func closeClients(cs []*client) {
	for _, c := range cs {
		c.tr.CloseIdleConnections()
	}
}
