package respcache

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
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
	if c.Stream.base != 0 {
		t.Fatal("a one-segment page has no stream to extend")
	}
}

// TestComposeSegmentsExtends is the composer's own oracle: a middle
// segment that only ever grows inside one backing array, composed
// generation after generation from the previous generation's Stream.
// Every generation must inflate to its body, the rebaseline bound must
// be crossed (and hold), and the wire size must stay within
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
		if !bytes.Equal(c.Body, want) {
			t.Fatalf("gen %d: Body is not head+mid+foot", gen)
		}
		if got := inflateMember(t, c.Gzip); !bytes.Equal(got, want) {
			t.Fatalf("gen %d: Gzip does not inflate to Body", gen)
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
	for i := 0; i < 20; i++ {
		mid = append(mid, row(rng)...)
	}
	long := ComposeSegments([]byte("<html>"), mid, []byte("</html>"), Stream{}, Rev{Seq: 1}).Stream
	short := mid[:len(mid)/2]
	c := ComposeSegments([]byte("<html>"), short, []byte("</html>"), long, Rev{Seq: 2})
	if got := inflateMember(t, c.Gzip); !bytes.Equal(got, c.Body) {
		t.Fatal("gzip variant does not inflate to the body")
	}
}

var sinkComposed *Composed

// BenchmarkCompose is the simple-page miss: one 434-byte body (the
// crawl's median response), a compressor from the pool.
func BenchmarkCompose(b *testing.B) {
	body := bytes.Repeat([]byte("<p>434 bytes of page</p>\n"), 18)[:434]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkComposed = Compose(body, Rev{Seq: uint64(i)})
	}
}

// BenchmarkComposeSegmentsAppend is the viral-page patch: one row
// appended to ~0.5 MB of comments, composed from the previous
// generation's Stream ("extend") or from nothing ("scratch").
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
			for i := 0; i < b.N; i++ {
				sinkComposed = ComposeSegments(head, grown, foot, prev, Rev{Seq: uint64(i)})
			}
		})
	}
}

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestGzipGolden pins the gzip member byte for byte, by hash, for fixed
// seeded pages of every shape the composer distinguishes. The hashes
// were written by the composer that also built the identity body; a
// change to how identity is kept must leave every one alone. Regenerate
// with -update only for a change meant to move the wire bytes.
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
