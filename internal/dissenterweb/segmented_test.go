package dissenterweb

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"hash/maphash"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"dissenter/internal/ids"
	"dissenter/internal/platform"
	"dissenter/internal/respcache"
)

// The segmented gzip variant: a structured discussion page's gzip is
// one member whose comment stream is handed from generation to
// generation and extended by the rows a write appended, and a page past
// respcache's segmentMin keeps no identity copy — its identity bytes are
// written from its parts. These tests pin both to the full render for
// every generation of a long random history, under concurrent readers
// and posters, and across a run of patches nobody reads.

// viralFixture is a store with one URL carrying n seed comments, and a
// mint for further comments at a chosen hour (an hour before the seed
// block sorts out of order).
type viralFixture struct {
	db     *platform.DB
	cu     *platform.CommentURL
	gen    *ids.Generator
	base   time.Time
	author ids.ObjectID
}

func newViralFixture(n int) *viralFixture {
	f := &viralFixture{gen: ids.NewGenerator(0x5E6), base: time.Date(2020, 5, 1, 0, 0, 0, 0, time.UTC)}
	poster := &platform.User{GabID: 1, Username: "poster", HasDissenter: true, AuthorID: f.gen.NewAt(f.base)}
	f.author = poster.AuthorID
	f.cu = &platform.CommentURL{ID: f.gen.NewAt(f.base), URL: "https://viral.example/story", Title: "Viral <story>", FirstSeen: f.base}
	comments := make([]*platform.Comment, n)
	for i := range comments {
		comments[i] = f.comment(100, fmt.Sprintf("seed comment %d", i), i%7 == 0, i%11 == 0)
	}
	f.db = platform.New([]*platform.User{poster}, []*platform.CommentURL{f.cu}, comments, nil)
	return f
}

func (f *viralFixture) comment(hour int, text string, nsfw, offensive bool) *platform.Comment {
	at := f.base.Add(time.Duration(hour) * time.Hour)
	return &platform.Comment{ID: f.gen.NewAt(at), URLID: f.cu.ID, AuthorID: f.author, Text: text, CreatedAt: at, NSFW: nsfw, Offensive: offensive}
}

// cachedPage returns the live cache entry of f's page under view,
// filling it through the handler first if there is none.
func cachedPage(t *testing.T, s *Server, f *viralFixture, view int) page {
	t.Helper()
	v := oracleViews[view]
	key := string(appendSubjectKey(nil, SubjectDiscussion, f.cu.URL, v.sess))
	p, ok := s.cacheGet(key)
	if !ok {
		req := httptest.NewRequest(http.MethodGet, "/discussion?url="+url.QueryEscape(f.cu.URL), nil)
		if v.token != "" {
			req.AddCookie(&http.Cookie{Name: "session", Value: v.token})
		}
		s.ServeHTTP(httptest.NewRecorder(), req)
		if p, ok = s.cacheGet(key); !ok {
			t.Fatalf("view %d: no cache entry after a GET", view)
		}
	}
	return p
}

// writePage is the oracle's reference rendering of a cache entry: its
// parts written one after another, with no composer involved.
func writePage(w io.Writer, p page) {
	if p.head == "" {
		io.WriteString(w, p.simple)
		return
	}
	io.WriteString(w, p.head)
	w.Write(appendVoteSpan(nil, p.ups, p.downs, p.count))
	w.Write(p.stream)
	w.Write(pageFoot)
}

// identityBody is c's identity body as a client receives it: written by
// the writer respond uses, and as long as the Content-Length it sends.
// A page past segmentMin has no joined Body behind it.
func identityBody(t *testing.T, c *respcache.Composed, segmented bool) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := c.WriteIdentity(&b); err != nil {
		t.Fatal(err)
	}
	if c.BodyLenHdr[0] != strconv.Itoa(b.Len()) {
		t.Fatalf("WriteIdentity wrote %d bytes under Content-Length %s", b.Len(), c.BodyLenHdr[0])
	}
	if segmented != (c.Body == nil) {
		t.Fatalf("a %d-byte page: segmented = %v, want %v", b.Len(), c.Body == nil, segmented)
	}
	return b.Bytes()
}

// inflateMember inflates gz as exactly one gzip member with nothing
// after it.
func inflateMember(t *testing.T, gz []byte) []byte {
	t.Helper()
	src := bytes.NewReader(gz)
	zr, err := gzip.NewReader(src)
	if err != nil {
		t.Fatalf("gzip header: %v", err)
	}
	zr.Multistream(false)
	plain, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("inflate: %v", err)
	}
	if src.Len() != 0 {
		t.Fatalf("%d trailing bytes after the gzip member", src.Len())
	}
	return plain
}

func TestSegmentedGzipOracle(t *testing.T) {
	f := newViralFixture(100) // every view's stream is past respcache's segmentMin
	s := NewServer(f.db, WithURLRateLimit(0, 0))
	registerOracleSessions(s)
	rng := rand.New(rand.NewSource(15))
	const (
		opAppend = iota
		opVote
		opOutOfOrder
	)
	var extended, reallocated, rebuilt, voted int
	for view := range oracleViews {
		cachedPage(t, s, f, view) // generation 1: the fill, so that every write below patches
	}
	for step := 0; step < 500; step++ {
		op := opAppend
		switch r := rng.Intn(100); {
		case r < 15:
			op = opVote
			f.db.Vote(f.cu.ID, rng.Intn(2), rng.Intn(2)+1)
		case r < 20:
			op = opOutOfOrder
			f.db.AddComment(f.comment(rng.Intn(50), fmt.Sprintf("late <arrival> %d", step), false, false))
		default:
			text := fmt.Sprintf(`step %d & "%x"`, step, rng.Uint64())
			f.db.AddComment(f.comment(200+step, text, rng.Intn(5) == 0, rng.Intn(7) == 0))
		}
		for view, v := range oracleViews {
			p := cachedPage(t, s, f, view)
			inherited := !reflect.ValueOf(p.resp.prev).IsZero()
			switch {
			case op == opVote && inherited:
				voted++
			case op == opAppend && inherited:
				extended++
			case op == opAppend:
				reallocated++
			case op == opOutOfOrder && !inherited:
				rebuilt++
			case op == opOutOfOrder:
				t.Fatalf("step %d view %d: an out-of-order rebuild inherited the old compressed stream", step, view)
			}
			c := p.resp.composed(&p)
			if c.ETag != p.rev.ETag() {
				t.Fatalf("step %d view %d: composed under ETag %s, entry is %s", step, view, c.ETag, p.rev.ETag())
			}
			var ref bytes.Buffer
			writePage(&ref, p)
			body := identityBody(t, c, true)
			if !bytes.Equal(body, ref.Bytes()) {
				t.Fatalf("step %d view %d: identity differs from writePage's stream", step, view)
			}
			if step%16 == 0 && string(body) != oracleDiscussion(f.db, f.cu, v.sess) {
				t.Fatalf("step %d view %d: identity differs from the full render", step, view)
			}
			if c.Gzip == nil {
				t.Fatalf("step %d view %d: no gzip variant for %d bytes", step, view, len(body))
			}
			if !bytes.Equal(inflateMember(t, c.Gzip), body) {
				t.Fatalf("step %d view %d: Gzip does not inflate to the identity body", step, view)
			}
		}
	}
	if extended < 100 || reallocated == 0 || rebuilt == 0 || voted == 0 {
		t.Fatalf("history too tame: %d extended, %d reallocated, %d rebuilt, %d voted generations", extended, reallocated, rebuilt, voted)
	}
}

// TestSegmentedGzipConcurrentReadersAndPosters races gzip and identity
// readers against posters and voters on one page past segmentMin — the
// identity bytes are read straight from the store's stream snapshot
// while the posters append behind it: whatever generation a reader is
// served, every response under one ETag carries one body.
func TestSegmentedGzipConcurrentReadersAndPosters(t *testing.T) {
	f := newViralFixture(200)
	s := NewServer(f.db, WithURLRateLimit(0, 0))
	seed := maphash.MakeSeed()
	var mu sync.Mutex
	bodies := map[string]uint64{} // ETag -> hash of the identity body served under it
	target := "/discussion?url=" + url.QueryEscape(f.cu.URL)

	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < 300; i++ {
				if i%5 == 0 {
					f.db.Vote(f.cu.ID, 1, 0)
				} else {
					f.db.AddComment(f.comment(200+i, fmt.Sprintf("racing post %d/%d", w, i), false, false))
				}
			}
		}()
	}
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				req := httptest.NewRequest(http.MethodGet, target, nil)
				if (r+i)%2 == 0 {
					req.Header.Set("Accept-Encoding", "gzip")
				}
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, req)
				body := rec.Body.Bytes()
				if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(len(body)) {
					t.Errorf("reader %d: %d bytes written under Content-Length %s", r, len(body), cl)
					return
				}
				if rec.Header().Get("Content-Encoding") == "gzip" {
					zr, err := gzip.NewReader(bytes.NewReader(body))
					if err == nil {
						body, err = io.ReadAll(zr)
					}
					if err != nil {
						t.Errorf("reader %d: gzip variant does not inflate: %v", r, err)
						return
					}
				}
				etag, sum := rec.Header().Get("Etag"), maphash.Bytes(seed, body)
				mu.Lock()
				prev, seen := bodies[etag]
				bodies[etag] = sum
				mu.Unlock()
				if seen && prev != sum {
					t.Errorf("reader %d: two different bodies under ETag %s", r, etag)
					return
				}
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	if len(bodies) < 2 {
		t.Fatalf("readers saw %d generations; the race never happened", len(bodies))
	}
	last := cachedPage(t, s, f, 0)
	if string(identityBody(t, last.resp.composed(&last), true)) != oracleDiscussion(f.db, f.cu, Session{}) {
		t.Fatal("identity differs from the full render once the writers are done")
	}
}

// TestIdentityOverHTTPEqualsOracle reads pages on both sides of
// segmentMin the way a client that sends no Accept-Encoding does: 200,
// as many bytes written as Content-Length promises, and the full render
// byte for byte — at the fill, after a post and after a vote.
func TestIdentityOverHTTPEqualsOracle(t *testing.T) {
	for _, tc := range []struct {
		comments  int
		segmented bool
	}{{3, false}, {100, true}} {
		f := newViralFixture(tc.comments)
		s := NewServer(f.db, WithURLRateLimit(0, 0))
		check := func(when string) {
			t.Helper()
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/discussion?url="+url.QueryEscape(f.cu.URL), nil))
			want := oracleDiscussion(f.db, f.cu, Session{})
			if rec.Code != http.StatusOK || rec.Header().Get("Content-Encoding") != "" {
				t.Fatalf("%d comments, %s: status %d, Content-Encoding %q", tc.comments, when, rec.Code, rec.Header().Get("Content-Encoding"))
			}
			if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) || rec.Body.Len() != len(want) {
				t.Fatalf("%d comments, %s: Content-Length %s, %d bytes written, full render is %d", tc.comments, when, cl, rec.Body.Len(), len(want))
			}
			if rec.Body.String() != want {
				t.Fatalf("%d comments, %s: identity body differs from the full render", tc.comments, when)
			}
			p := cachedPage(t, s, f, 0)
			identityBody(t, p.resp.composed(&p), tc.segmented)
		}
		check("at the fill")
		f.db.AddComment(f.comment(200, `a <late> & "quoted" post`, false, false))
		check("after a post")
		f.db.Vote(f.cu.ID, 1, 0)
		check("after a vote")
	}
}

// TestUnreadPatchesRetainOneStream is the comment_storm shape: 10k
// patches of a cached page with no read between them. Each patch makes
// a new box; the box inherits the compressed stream by value, so every
// superseded box is garbage at once and the one stream is all that is
// handed along.
func TestUnreadPatchesRetainOneStream(t *testing.T) {
	f := newViralFixture(100)
	s := NewServer(f.db, WithURLRateLimit(0, 0))
	first := cachedPage(t, s, f, 0)
	stream := first.resp.composed(&first).Stream
	if reflect.ValueOf(stream).IsZero() {
		t.Fatal("the filled generation composed no stream")
	}

	// Votes never move the comment stream, so all 10k generations
	// extend the first and must hand exactly its stream forward.
	f.db.Vote(f.cu.ID, 1, 0)
	collected := make(chan struct{})
	runtime.SetFinalizer(cachedPage(t, s, f, 0).resp, func(*respBox) { close(collected) })
	for i := 0; i < 10_000; i++ {
		f.db.Vote(f.cu.ID, 1, 0)
	}
	last := cachedPage(t, s, f, 0)
	if !reflect.DeepEqual(last.resp.prev, stream) {
		t.Fatal("10k unread vote patches did not hand the composed stream forward unchanged")
	}
	deadline := time.Now().Add(10 * time.Second)
	for done := false; !done; {
		runtime.GC()
		select {
		case <-collected:
			done = true
		case <-time.After(10 * time.Millisecond):
			if time.Now().After(deadline) {
				t.Fatal("the second generation's box is still reachable 10k patches later: boxes chain")
			}
		}
	}

	// Comments do move it (and reallocate it now and then); whatever was
	// inherited, the generation a reader finally composes is exact.
	for i := 0; i < 10_000; i++ {
		f.db.AddComment(f.comment(200+i, "storm", false, false))
	}
	last = cachedPage(t, s, f, 0)
	c := last.resp.composed(&last)
	body := identityBody(t, c, true)
	if string(body) != oracleDiscussion(f.db, f.cu, Session{}) {
		t.Fatal("identity differs from the full render after 10k unread comment patches")
	}
	if !bytes.Equal(inflateMember(t, c.Gzip), body) {
		t.Fatal("Gzip does not inflate to the identity body after 10k unread comment patches")
	}
}

func TestAcceptsGzip(t *testing.T) {
	for _, tc := range []struct {
		lines []string
		want  bool
	}{
		{nil, false},
		{[]string{""}, false},
		{[]string{"gzip"}, true},
		{[]string{"GZIP"}, true},
		{[]string{"x-gzip"}, true},
		{[]string{"gzip, deflate, br"}, true},
		{[]string{"deflate, gzip;q=0.5"}, true},
		{[]string{"gzip;q=1"}, true},
		{[]string{"gzip;q=0.001"}, true},
		{[]string{"gzip;q=0"}, false},
		{[]string{"gzip; q=0"}, false},
		{[]string{"gzip ;\tq=0"}, false},
		{[]string{"gzip;q=0."}, false},
		{[]string{"gzip;q=0.0"}, false},
		{[]string{"gzip;q=0.000"}, false},
		{[]string{"gzip;Q=0"}, false},
		{[]string{"identity, gzip; q=0"}, false},
		{[]string{"identity"}, false},
		{[]string{"br, deflate"}, false},
		{[]string{"notgzip"}, false},
		{[]string{"gzipped;q=1"}, false},
		{[]string{"identity", "gzip"}, true},
		{[]string{"br", "deflate, gzip;q=0.0"}, false},
		{[]string{"gzip;q=0", "gzip"}, false},
	} {
		r := httptest.NewRequest(http.MethodGet, "/", nil)
		r.Header["Accept-Encoding"] = tc.lines
		if got := acceptsGzip(r); got != tc.want {
			t.Errorf("Accept-Encoding %q: acceptsGzip = %v, want %v", tc.lines, got, tc.want)
		}
		if n := testing.AllocsPerRun(10, func() { acceptsGzip(r) }); n != 0 {
			t.Errorf("Accept-Encoding %q: acceptsGzip allocates %v times", tc.lines, n)
		}
	}
}
