package respcache

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"dissenter/internal/benchkit"
)

// inflateMember inflates gz as exactly ONE gzip member and fails on
// trailing bytes: Multistream(false) stops at the member's trailer, so
// whatever the reader has not consumed by then is garbage after it.
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

// identity is c's identity body as a client receives it: what
// WriteIdentity writes, which must be as long as the Content-Length the
// response would carry.
func identity(t *testing.T, c *Composed) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := c.WriteIdentity(&b); err != nil {
		t.Fatal(err)
	}
	if c.BodyLenHdr[0] != fmt.Sprint(b.Len()) {
		t.Fatalf("WriteIdentity wrote %d bytes under Content-Length %s", b.Len(), c.BodyLenHdr[0])
	}
	return b.Bytes()
}

// row is one comment-row-shaped chunk: mostly markup shared with every
// other row, a little entropy of its own.
func row(rng *rand.Rand) []byte {
	return fmt.Appendf(nil, "<div class=\"comment\" data-comment-id=\"%024x\" data-author-id=\"%024x\" data-parent-id=\"\">\n<p class=\"comment-text\">comment %d says %x</p>\n</div>\n",
		rng.Uint64(), rng.Uint64(), rng.Intn(1000), rng.Uint32())
}

func TestComposeOneSegment(t *testing.T) {
	small := []byte("tiny")
	if c := Compose(small, Rev{Seq: 1}); c.Gzip != nil || c.GzipLenHdr != nil || &c.Body[0] != &small[0] {
		t.Fatalf("a body under composeGzipMin must be served as is, uncopied: %+v", c)
	}
	body := bytes.Repeat([]byte("<li>row</li>\n"), 64)
	c := Compose(body, Rev{Epoch: 2, Seq: 3})
	if c.ETag != `"2-3"` || c.ETagHdr[0] != c.ETag || c.BodyLenHdr[0] != fmt.Sprint(len(body)) {
		t.Fatalf("headers: %+v", c)
	}
	if c.Gzip == nil || c.GzipLenHdr[0] != fmt.Sprint(len(c.Gzip)) {
		t.Fatalf("no gzip variant for a %d-byte repetitive body", len(body))
	}
	if got := inflateMember(t, c.Gzip); !bytes.Equal(got, body) {
		t.Fatal("gzip variant does not inflate to the body")
	}
	if &c.Body[0] != &body[0] || !bytes.Equal(identity(t, c), body) {
		t.Fatal("a one-segment page's Body and identity bytes are the body it was handed")
	}
	if c.Stream.base != 0 {
		t.Fatal("a one-segment page has no stream to extend")
	}
}

// TestComposeSegmentsExtends is the composer's own oracle: a middle
// segment that only ever grows inside one backing array, composed
// generation after generation from the previous generation's Stream.
// Every generation's identity bytes are head+mid+foot with no joined
// Body behind them, its gzip must inflate to the same, the rebaseline
// bound must be crossed (and hold), and the wire size must stay within
// 1+1/rebaselineDiv of a from-scratch compress.
func TestComposeSegmentsExtends(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	foot := []byte("</body></html>\n")
	mid := make([]byte, 0, 1<<20)
	for i := 0; i < 200; i++ {
		mid = append(mid, row(rng)...)
	}
	var prev Stream
	rebaselines, extensions := 0, 0
	for gen := 1; gen <= 400; gen++ {
		head := fmt.Appendf(nil, "<html><body><h1>page</h1><span data-up=\"%d\" data-count=\"%d\"></span>\n", gen/3, gen)
		if gen%5 != 0 { // every fifth generation is a vote: same stream
			for n := rng.Intn(3); n >= 0; n-- {
				mid = append(mid, row(rng)...)
			}
		}
		c := ComposeSegments(head, mid, foot, prev, Rev{Seq: uint64(gen)})
		want := append(append(append([]byte{}, head...), mid...), foot...)
		if c.Body != nil || !bytes.Equal(identity(t, c), want) {
			t.Fatalf("gen %d: identity is not head+mid+foot served from the parts", gen)
		}
		if got := inflateMember(t, c.Gzip); !bytes.Equal(got, want) {
			t.Fatalf("gen %d: Gzip does not inflate to the identity body", gen)
		}
		s := c.Stream
		if s.n != len(mid) || s.base == 0 || len(s.z)-s.base > s.base/rebaselineDiv {
			t.Fatalf("gen %d: stream n=%d base=%d len=%d breaks the bound", gen, s.n, s.base, len(s.z))
		}
		switch {
		case gen == 1:
		case s.base != prev.base:
			rebaselines++
		default:
			extensions++
		}
		scratch := ComposeSegments(head, mid, foot, Stream{}, Rev{})
		if bound := len(scratch.Gzip) + len(scratch.Gzip)/rebaselineDiv; len(c.Gzip) > bound {
			t.Fatalf("gen %d: gzip is %d bytes, from scratch %d: past the 1+1/%d bound", gen, len(c.Gzip), len(scratch.Gzip), rebaselineDiv)
		}
		prev = s
	}
	if rebaselines == 0 || extensions < 10*rebaselines {
		t.Fatalf("%d rebaselines, %d extensions: want the bound crossed, and rarely", rebaselines, extensions)
	}
}

// A Stream that claims more than mid holds is ignored, not trusted.
func TestComposeSegmentsIgnoresOverlongPrev(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var mid []byte
	for len(mid) < 4*segmentMin {
		mid = append(mid, row(rng)...)
	}
	long := ComposeSegments([]byte("<html>"), mid, []byte("</html>"), Stream{}, Rev{Seq: 1}).Stream
	if long.base == 0 {
		t.Fatal("a mid past segmentMin composed no stream")
	}
	short := mid[:len(mid)/2]
	c := ComposeSegments([]byte("<html>"), short, []byte("</html>"), long, Rev{Seq: 2})
	if got := inflateMember(t, c.Gzip); !bytes.Equal(got, identity(t, c)) {
		t.Fatal("gzip variant does not inflate to the body")
	}
}

// allocated runs f n times and returns the bytes one run allocated, as
// a MemStats delta.
func allocated(n int, f func()) float64 {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&ms1)
	return float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(n)
}

// TestGiantPageKeepsItsCompressor: a page whose gzip outgrows
// maxPooledOut costs the pool its output buffer, never its compressor —
// composing it again allocates what the output costs (the buffer grown
// from nothing, and the clone) and not the megabyte a flate.Writer is.
func TestGiantPageKeepsItsCompressor(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	body := make([]byte, 3<<19)
	for i := range body { // six bits of entropy a byte: deflates to three quarters
		body[i] = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"[rng.Intn(64)]
	}
	d := new(deflater)
	d.flate(nil, true) // the flate.Writer is constructed here, outside the measurement
	d.out = bytes.Buffer{}
	output := allocated(1, func() {
		d.segment(body, true)
		sinkComposed = &Composed{Gzip: bytes.Clone(d.out.Bytes())}
	})
	if d.out.Cap() <= maxPooledOut {
		t.Fatalf("the page's gzip fits a pooled buffer (%d bytes): not a giant page", d.out.Cap())
	}
	Compose(body, Rev{Seq: 1})
	// The least of a few runs: a collection empties the pool, and under
	// the race detector sync.Pool drops a quarter of all Puts.
	least := math.Inf(1)
	for i := 0; i < 8 && least > output+1<<20; i++ {
		least = min(least, allocated(1, func() { sinkComposed = Compose(body, Rev{Seq: 2}) }))
	}
	if least > output+1<<20 {
		t.Fatalf("composing a giant page again allocates %.0f bytes, its output costs %.0f: the pool dropped the compressor with the buffer", least, output)
	}
}

var sinkComposed *Composed

// BenchmarkCompose is the simple-page miss: one 985-byte body (the
// crawl's median page before compression), a compressor from the pool.
func BenchmarkCompose(b *testing.B) {
	body := bytes.Repeat([]byte("<p>985 bytes of page</p>\n"), 40)[:985]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkComposed = Compose(body, Rev{Seq: uint64(i)})
	}
}

// BenchmarkComposeSegmentsAppend is the viral-page patch: one row
// appended to ~0.5 MB of comments, composed from the previous
// generation's Stream ("extend") or from nothing ("scratch"). The
// bytes "extend" allocates are a budget (`make bench-budget`,
// PATCH_BYTES_BUDGET via BENCH_PATCH_MAX_BYTES): its gzip member and
// the buffer that was written into, never the page's HTML.
func BenchmarkComposeSegmentsAppend(b *testing.B) {
	rng := rand.New(rand.NewSource(15))
	head, foot := []byte("<html><body><h1>viral</h1>\n"), []byte("</body></html>\n")
	mid := make([]byte, 0, 1<<20)
	for len(mid) < 512<<10 {
		mid = append(mid, row(rng)...)
	}
	base := ComposeSegments(head, mid, foot, Stream{}, Rev{}).Stream
	grown := append(mid, row(rng)...)
	for name, prev := range map[string]Stream{"extend": base, "scratch": {}} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			compose := func() { sinkComposed = ComposeSegments(head, grown, foot, prev, Rev{Seq: 1}) }
			for i := 0; i < b.N; i++ {
				compose()
			}
			b.StopTimer()
			if max, ok := benchkit.EnvBudget(b, "BENCH_PATCH_MAX_BYTES"); ok && name == "extend" {
				if perOp := allocated(16, compose); perOp > max {
					b.Fatalf("a one-row patch of a %d-byte page allocates %.0f bytes, budget %v — a generation costs a copy of its page again",
						len(grown), perOp, max)
				}
			}
		})
	}
}

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestGzipGolden pins the gzip member byte for byte, by hash, for fixed
// seeded pages of every shape the composer distinguishes; a change to
// how identity is kept must leave every one alone, and a change to the
// small-segment kernel the two shapes with no segment under fixedMax
// (simple, one-segment). Regenerate with -update only for a change meant
// to move the wire bytes: every member is first inflated through
// compress/gzip, which verifies CRC-32 and ISIZE, and compared with the
// identity body, so an update cannot bless a member that is wrong.
func TestGzipGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	rows := func(n int) (b []byte) {
		for ; n > 0; n-- {
			b = append(b, row(rng)...)
		}
		return b
	}
	head := func(ups, count int) []byte {
		return fmt.Appendf(nil, "<html><body><h1>page</h1><span data-up=\"%d\" data-count=\"%d\"></span>\n", ups, count)
	}
	foot := []byte("</body></html>\n")
	mid := append(make([]byte, 0, 1<<20), rows(200)...)

	var got bytes.Buffer
	record := func(name string, c *Composed) *Composed {
		if got := inflateMember(t, c.Gzip); !bytes.Equal(got, identity(t, c)) {
			t.Fatalf("%s: the gzip member does not inflate to the identity body", name)
		}
		fmt.Fprintf(&got, "%s %d %x\n", name, len(c.Gzip), sha256.Sum256(c.Gzip))
		return c
	}
	record("simple", Compose(rows(30), Rev{Seq: 1}))
	record("one-segment", ComposeSegments(head(0, 20), mid[:segmentMin/2], foot, Stream{}, Rev{Seq: 2}))
	fresh := record("fresh", ComposeSegments(head(0, 200), mid, foot, Stream{}, Rev{Seq: 3}))
	mid = append(mid, rows(3)...)
	extended := record("extended", ComposeSegments(head(0, 203), mid, foot, fresh.Stream, Rev{Seq: 4}))
	if extended.Stream.base != fresh.Stream.base {
		t.Fatal("three appended rows rebaselined the stream")
	}
	voted := record("voted", ComposeSegments(head(1, 203), mid, foot, extended.Stream, Rev{Seq: 5}))
	mid = append(mid, rows(100)...)
	rebaselined := record("rebaselined", ComposeSegments(head(1, 303), mid, foot, voted.Stream, Rev{Seq: 6}))
	if rebaselined.Stream.base == fresh.Stream.base {
		t.Fatal("a hundred appended rows did not rebaseline the stream")
	}

	golden := filepath.Join("testdata", "gzip.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("gzip members diverged from the golden hashes:\n%swant:\n%s", got.Bytes(), want)
	}
}
