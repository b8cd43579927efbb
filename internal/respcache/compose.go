package respcache

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"hash/crc32"
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
// compressed as one segment and keeps no Stream. Every segment pays for
// its own Huffman tables — about 15 µs and 150 bytes for the two extra
// ones — on every fill, while compressing a whole small page again on a
// patch costs 7 ns a byte: under 8 KB the one pass is the cheaper and
// the smaller, and the crawl's median page (434 bytes) is far under.
const segmentMin = 8 << 10

// Composed is the write-time-composed form of one response
// generation: the final identity body, an optional gzip variant, and
// the generation's strong ETag — everything a hit needs to answer a
// request without rendering, compressing, or formatting anything.
//
// The *Hdr fields are single-value header slices precomputed so the
// serving layer can assign them into an http.Header map directly
// (h["Etag"] = c.ETagHdr) instead of calling Header.Set, which
// allocates a fresh []string per call. They must be treated as
// immutable by every consumer, exactly like Body and Gzip.
type Composed struct {
	Body []byte
	Gzip []byte // nil when compression isn't worthwhile for this body
	ETag string

	ETagHdr    []string
	BodyLenHdr []string
	GzipLenHdr []string // nil iff Gzip is nil

	// Stream is the compressed middle segment of this generation, for
	// the next generation's ComposeSegments to extend. Zero when there
	// is no gzip variant or no middle segment.
	Stream Stream
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

// deflater is one pooled BestSpeed compressor and the buffer it writes
// a gzip member into. Constructing a flate.Writer allocates 1.2 MB; no
// compose does.
type deflater struct {
	fw  *flate.Writer
	out bytes.Buffer
}

var deflaters = sync.Pool{New: func() any {
	d := new(deflater)
	d.fw, _ = flate.NewWriter(&d.out, flate.BestSpeed) // fails only on an invalid level
	return d
}}

// maxPooledOut keeps a buffer that one giant page grew from being
// pinned by the pool.
const maxPooledOut = 1 << 20

// segment appends src to d.out as deflate blocks with no history before
// src: closed by the final block, or sync-flushed so the next segment
// starts byte-aligned. An empty non-final segment emits nothing. Writes
// to a bytes.Buffer cannot fail.
func (d *deflater) segment(src []byte, final bool) {
	if len(src) == 0 && !final {
		return
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
// generation rev. The gzip variant is compressed once, here, with
// BestSpeed — per mutation, not per request — as ONE gzip member: head,
// sync-flushed; mid as its Stream; foot as the final block; then CRC-32
// and ISIZE of the identity body. It is dropped when it would not
// shrink the body.
//
// prev is the Stream of an earlier generation whose mid was a prefix of
// this one (the caller's promise; pass the zero Stream otherwise). Then
// only mid's appended bytes are deflated and concatenated, unless that
// pushes the history-less part past the rebaselineDiv bound, in which
// case — as without a prev — mid is compressed in one pass. A mid under
// segmentMin is not worth a Stream: the page is compressed whole. The
// segments must not be mutated after the call.
func ComposeSegments(head, mid, foot []byte, prev Stream, rev Rev) *Composed {
	body := foot
	if len(head)+len(mid) > 0 {
		body = make([]byte, 0, len(head)+len(mid)+len(foot))
		body = append(append(append(body, head...), mid...), foot...)
	}
	if len(mid) < segmentMin {
		head, mid, foot = nil, nil, body
	}
	c := &Composed{
		Body:       body,
		ETag:       rev.ETag(),
		BodyLenHdr: []string{strconv.Itoa(len(body))},
	}
	c.ETagHdr = []string{c.ETag}
	if len(body) < composeGzipMin {
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
	binary.LittleEndian.PutUint32(trailer[:4], crc32.ChecksumIEEE(body))
	binary.LittleEndian.PutUint32(trailer[4:], uint32(len(body)))
	d.out.Write(trailer[:])
	if d.out.Len() < len(body) {
		c.Gzip = bytes.Clone(d.out.Bytes())
		c.GzipLenHdr = []string{strconv.Itoa(len(c.Gzip))}
		if base > 0 {
			c.Stream = Stream{z: c.Gzip[zOff:zEnd:zEnd], n: len(mid), base: base}
		}
	}
	if d.out.Cap() <= maxPooledOut {
		deflaters.Put(d)
	}
	return c
}
