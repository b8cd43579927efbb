package respcache

import (
	"bytes"
	"compress/flate"
	"fmt"
	"html"
	"io"
	"math"
	"math/rand"
	"testing"

	"dissenter/internal/synth"
)

// emptyFinalBlock is a fixed-Huffman final block holding nothing: what
// closes a deflate stream whose last segment was not final.
var emptyFinalBlock = []byte{0x03, 0x00}

// inflateFixed is the kernel's oracle: the standard library's inflater
// over a deflate stream, which must end exactly where z does.
func inflateFixed(t testing.TB, z []byte) []byte {
	t.Helper()
	src := bytes.NewReader(z)
	plain, err := io.ReadAll(flate.NewReader(src))
	if err != nil {
		t.Fatalf("inflate: %v (stream %x)", err, z)
	}
	if src.Len() != 0 {
		t.Fatalf("%d bytes after the final block", src.Len())
	}
	return plain
}

// FuzzFixedDeflate: whatever the bytes, two fixed-Huffman segments of
// them — the second over a hash table full of the first's positions, and
// final or not — inflate to the bytes twice over, behind a dst prefix
// left alone; a non-final segment ends on the sync marker a Stream is
// spliced at.
func FuzzFixedDeflate(f *testing.F) {
	all := make([]byte, 256)
	for i := range all {
		all[i] = byte(i)
	}
	f.Add([]byte{}, true)
	f.Add([]byte{}, false)
	f.Add([]byte("a"), true)
	f.Add(bytes.Repeat([]byte("a"), 300), false) // one literal, then matches of the maximum length
	f.Add(all, true)
	f.Add(textRows(fixedMax)[:fixedMax-1], false)
	f.Fuzz(func(t *testing.T, src []byte, final bool) {
		d := new(deflater)
		z := d.appendFixed([]byte("prefix"), src, false)
		if !bytes.HasPrefix(z, []byte("prefix")) {
			t.Fatalf("dst's own bytes were overwritten: %x", z[:6])
		}
		if !bytes.HasSuffix(z, []byte{0, 0, 0xff, 0xff}) {
			t.Fatalf("a non-final segment ends %x, not on the sync marker", z)
		}
		if z = d.appendFixed(z, src, final); !final {
			z = append(z, emptyFinalBlock...)
		}
		if got := inflateFixed(t, z[6:]); !bytes.Equal(got, append(bytes.Clone(src), src...)) {
			t.Fatalf("two segments of %q inflate to %q", src, got)
		}
	})
}

// TestFixedRespectsTheWindow: deflate cannot name a distance past 32 KB,
// so a repeat further back than that is coded as literals again — and
// one exactly that far back as a match.
func TestFixedRespectsTheWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, period := range []int{fixedMaxDist, fixedMaxDist + 1, 40 << 10} {
		block := make([]byte, period)
		rng.Read(block)
		src := append(bytes.Clone(block), block...)
		z := new(deflater).appendFixed(nil, src, true)
		if got := inflateFixed(t, z); !bytes.Equal(got, src) {
			t.Fatalf("period %d: the segment does not inflate to its source", period)
		}
		if matched := len(z) < len(src); matched != (period <= fixedMaxDist) {
			t.Fatalf("period %d: %d bytes deflate to %d", period, len(src), len(z))
		}
	}
}

// TestFixedTableSurvivesBaseWrap: the position base is a uint32 that
// only grows. The segment that would wrap it clears the table; without
// that, the entries it stored under the old base would read, after the
// wrap, as candidates far past the end of the next segment.
func TestFixedTableSurvivesBaseWrap(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	src := append(row(rng), row(rng)...)
	d := new(deflater)
	d.base = math.MaxUint32 - uint32(len(src)/2)
	for i := 0; i < 2; i++ {
		if got := inflateFixed(t, d.appendFixed(nil, src, true)); !bytes.Equal(got, src) {
			t.Fatalf("segment %d across the wrap does not inflate to its source", i)
		}
	}
}

// textRows is n bytes or more of comment rows as the store renders
// them: row()'s markup and IDs around the synth corpus' comment text.
func textRows(n int) []byte {
	rng := rand.New(rand.NewSource(20))
	texts := synth.NewTextSampler(20)
	var b []byte
	for len(b) < n {
		text := texts.MixedComment(synth.ToneMix{Hateful: 0.1, Offensive: 0.2, Grumble: 0.3, Positive: 0.1})
		b = fmt.Appendf(b, "<div class=\"comment\" data-comment-id=\"%024x\" data-author-id=\"%024x\" data-parent-id=\"\">\n<p class=\"comment-text\">%s</p>\n</div>\n",
			rng.Uint64(), rng.Uint64(), html.EscapeString(text))
	}
	return b
}

// BenchmarkSegment is the crossover fixedMax is read from: one segment
// of comment rows through the fixed-Huffman kernel and through the
// pooled BestSpeed flate.Writer, time and output bytes both.
func BenchmarkSegment(b *testing.B) {
	rows := textRows(16 << 10)
	d := new(deflater)
	var z []byte
	kernels := []struct {
		name string
		run  func(src []byte) int
	}{
		{"fixed", func(src []byte) int { z = d.appendFixed(z[:0], src, false); return len(z) }},
		{"flate", func(src []byte) int { d.out.Reset(); d.flate(src, false); return d.out.Len() }},
	}
	for _, k := range kernels {
		for _, size := range []struct {
			name string
			n    int
		}{{"256", 256}, {"1k", 1 << 10}, {"4k", 4 << 10}, {"16k", 16 << 10}} {
			b.Run(k.name+"/"+size.name, func(b *testing.B) {
				out := 0
				for i := 0; i < b.N; i++ {
					out = k.run(rows[:size.n])
				}
				b.ReportMetric(float64(out), "out-bytes")
			})
		}
	}
}
