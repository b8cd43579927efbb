package respcache

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"hash/crc32"
	"io"
	"strconv"
	"sync"
)

// composeGzipMin is the body size below which the gzip variant is not
// worth storing: tiny pages fit one MTU either way and the variant
// would only add per-mutation CPU and resident bytes.
const composeGzipMin = 256

// rebaselineDiv bounds how much of a Stream may be compressed without
// history: appended rows are deflated on their own, so they cannot
// match against the rows before them and compress worse than they would
// in one pass. Once the appended part passes 1/rebaselineDiv of the
// last one-pass size the whole segment is compressed again. A constant,
// not an option: it keeps len(Stream) within (1 + 1/rebaselineDiv) of
// its one-pass baseline, and because a recompression of n compressed
// bytes is paid only after n/rebaselineDiv of them were appended, it
// is amortised O(1) per appended byte.
const rebaselineDiv = 4

// segmentMin is the middle-segment size below which a page is
// compressed as one segment and keeps no Stream. Segments cannot match
// against each other, and each one of fixedMax or more builds Huffman
// tables of its own (two extra cost about 15 µs and 150 bytes on every
// fill), while compressing a whole small page again on a patch costs 4
// to 9 ns a byte: under 8 KB the one pass is the cheaper and the
// smaller, and the crawl's median page (985 bytes of HTML, about 535 on
// the wire) is far under.
const segmentMin = 8 << 10

// Composed is the write-time-composed form of one response
// generation: the identity body, an optional gzip variant, and the
// generation's strong ETag — everything a hit needs to answer a
// request without rendering, compressing, or formatting anything.
//
// WriteIdentity writes the identity body, whichever page this is. Only
// a page composed as one segment has a Body — every Compose, and a
// ComposeSegments whose mid is under segmentMin: Body is that page's
// whole identity body. A segmented page has none: its identity bytes
// are the head, mid and foot it was composed from, kept as handed in
// and never joined, so a generation of a large page costs its gzip
// bytes, not a copy of its HTML.
//
// The *Hdr fields are single-value header slices precomputed so the
// serving layer can assign them into an http.Header map directly
// (h["Etag"] = c.ETagHdr) instead of calling Header.Set, which
// allocates a fresh []string per call. They must be treated as
// immutable by every consumer, exactly like Body and Gzip.
type Composed struct {
	Body []byte // nil for a segmented page
	Gzip []byte // nil when compression isn't worthwhile for this body
	ETag string

	ETagHdr    []string
	BodyLenHdr []string // the length WriteIdentity writes
	GzipLenHdr []string // nil iff Gzip is nil

	// parts is the identity body in order: head, mid and foot of a
	// segmented page, {nil, nil, Body} of a one-segment page.
	parts [3][]byte

	// Stream is the compressed middle segment of this generation, for
	// the next generation's ComposeSegments to extend. Zero when there
	// is no gzip variant or no middle segment.
	Stream Stream
}

// WriteIdentity writes the identity body to w: the non-empty parts, in
// order, BodyLenHdr bytes in all. It stops at the first failed write.
func (c *Composed) WriteIdentity(w io.Writer) error {
	for _, p := range c.parts {
		if len(p) > 0 {
			if _, err := w.Write(p); err != nil {
				return err
			}
		}
	}
	return nil
}

// Stream is the deflate form of a page's append-only middle segment:
// byte-aligned, non-final blocks that reference nothing outside the
// segment, so they stay valid wherever a gzip member splices them in.
// It aliases the Gzip of the generation that produced it and costs no
// bytes of its own while that generation is cached. The zero Stream
// means "nothing to extend". Immutable.
type Stream struct {
	z    []byte
	n    int // z inflates to the first n bytes of the segment
	base int // len(z) after the last one-pass compress
}

// gzipHeader is the fixed ten-byte member header compress/gzip writes
// at BestSpeed: deflate, no flags, no mtime, XFL=4 (fastest), OS
// unknown.
var gzipHeader = [10]byte{0x1f, 0x8b, 8, 0, 0, 0, 0, 0, 4, 0xff}

// deflater is one pooled compressor and the buffer it writes a gzip
// member into: the fixed-Huffman kernel's hash table (fixed.go), and a
// BestSpeed flate.Writer from the first segment that needs one.
// Constructing a flate.Writer allocates 1.2 MB; a crawl of small pages
// never does, and no compose does twice.
type deflater struct {
	fw    *flate.Writer
	out   bytes.Buffer
	table [1 << fixedHashBits]uint32
	base  uint32
}

var deflaters = sync.Pool{New: func() any { return new(deflater) }}

// maxPooledOut keeps a buffer that one giant page grew from being
// pinned by the pool: the buffer is dropped, the compressor still goes
// back.
const maxPooledOut = 1 << 20

// segment appends src to d.out as deflate blocks with no history before
// src: closed by the final block, or sync-flushed so the next segment
// starts byte-aligned. An empty non-final segment emits nothing.
func (d *deflater) segment(src []byte, final bool) {
	switch {
	case len(src) == 0 && !final:
	case len(src) < fixedMax:
		d.out.Grow(fixedBound(len(src))) // so that the kernel appends in place
		d.out.Write(d.appendFixed(d.out.AvailableBuffer(), src, final))
	default:
		d.flate(src, final)
	}
}

// flate is segment through the BestSpeed flate.Writer, constructed on
// the first call. Writes to a bytes.Buffer cannot fail.
func (d *deflater) flate(src []byte, final bool) {
	if d.fw == nil {
		d.fw, _ = flate.NewWriter(&d.out, flate.BestSpeed) // fails only on an invalid level
	}
	d.fw.Reset(&d.out)
	_, _ = d.fw.Write(src)
	if final {
		_ = d.fw.Close()
	} else {
		_ = d.fw.Flush()
	}
}

// Compose builds the composed form of body for the generation rev: a
// page of one segment. body must not be mutated after the call.
func Compose(body []byte, rev Rev) *Composed {
	return ComposeSegments(nil, nil, body, Stream{}, rev)
}

// ComposeSegments builds the composed form of head+mid+foot for the
// generation rev. The gzip variant is compressed once, here, at the
// fastest setting — per mutation, not per request — as ONE gzip member:
// head, sync-flushed; mid as its Stream; foot as the final block; then
// CRC-32 and ISIZE of the identity body, chained over the parts. It is
// dropped when it would not shrink the body.
//
// prev is the Stream of an earlier generation whose mid was a prefix of
// this one (the caller's promise; pass the zero Stream otherwise). Then
// only mid's appended bytes are deflated and concatenated, unless that
// pushes the history-less part past the rebaselineDiv bound, in which
// case — as without a prev — mid is compressed in one pass. A mid under
// segmentMin is not worth a Stream: the page is joined and compressed
// whole. The segments must not be mutated after the call; a segmented
// page's Composed keeps them.
func ComposeSegments(head, mid, foot []byte, prev Stream, rev Rev) *Composed {
	c := &Composed{ETag: rev.ETag()}
	if len(mid) < segmentMin {
		c.Body = foot
		if len(head)+len(mid) > 0 {
			c.Body = make([]byte, 0, len(head)+len(mid)+len(foot))
			c.Body = append(append(append(c.Body, head...), mid...), foot...)
		}
		head, mid, foot = nil, nil, c.Body
	}
	c.parts = [3][]byte{head, mid, foot}
	size := len(head) + len(mid) + len(foot)
	c.ETagHdr = []string{c.ETag}
	c.BodyLenHdr = []string{strconv.Itoa(size)}
	if size < composeGzipMin {
		return c
	}

	d := deflaters.Get().(*deflater)
	d.out.Reset()
	d.out.Write(gzipHeader[:])
	d.segment(head, false)
	zOff, base := d.out.Len(), 0
	if prev.base > 0 && prev.n <= len(mid) {
		d.out.Write(prev.z)
		d.segment(mid[prev.n:], false)
		if d.out.Len()-zOff-prev.base <= prev.base/rebaselineDiv {
			base = prev.base
		} else {
			d.out.Truncate(zOff)
		}
	}
	if base == 0 {
		d.segment(mid, false)
		base = d.out.Len() - zOff
	}
	zEnd := d.out.Len()
	d.segment(foot, true)
	var trailer [8]byte
	crc := crc32.Update(crc32.Update(crc32.ChecksumIEEE(head), crc32.IEEETable, mid), crc32.IEEETable, foot)
	binary.LittleEndian.PutUint32(trailer[:4], crc)
	binary.LittleEndian.PutUint32(trailer[4:], uint32(size))
	d.out.Write(trailer[:])
	if d.out.Len() < size {
		c.Gzip = bytes.Clone(d.out.Bytes())
		c.GzipLenHdr = []string{strconv.Itoa(len(c.Gzip))}
		if base > 0 {
			c.Stream = Stream{z: c.Gzip[zOff:zEnd:zEnd], n: len(mid), base: base}
		}
	}
	if d.out.Cap() > maxPooledOut {
		d.out = bytes.Buffer{}
	}
	deflaters.Put(d)
	return c
}
