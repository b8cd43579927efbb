package respcache

import (
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
)

// The deflate kernel for small segments: ONE block in the fixed Huffman
// code of RFC 1951 §3.2.6. compress/flate at BestSpeed never considers
// that code: it builds, sorts and describes a fresh pair of Huffman
// tables for every block, which for a 1 KB page is 25 µs of table
// construction around 3 µs of matching. The fixed code costs nothing to
// set up and about 1.2 times the bytes on HTML this size (fixedMax has
// the table).

// fixedMax is the segment size below which segment() takes this kernel
// and not the pooled flate.Writer. A constant, not an option, read off
// BenchmarkSegment — one non-final segment of comment rows around the
// synth corpus' text, medians of five runs on the 2-core reference box:
//
//	segment   fixed Huffman      flate.BestSpeed
//	256 B      1.4 µs    171 B    13 µs    157 B
//	1 KB       4.3 µs    467 B    17 µs    375 B
//	4 KB      13.8 µs  1,477 B    43 µs  1,109 B
//	16 KB     47.3 µs  5,081 B   120 µs  3,764 B
//
// Building and describing its tables costs flate 10 µs or more whatever
// the size, and they pay for themselves in bytes only as the segment
// grows: the fixed code is 9 to 3 times faster under 4 KB for 1.09 to
// 1.33 times the bytes, and past it saves a shrinking share of the time
// for a third more bytes and rising. Under 4 KB is 99.6% of the crawl's
// pages whole (median 985 bytes, p99 2,884) and the head, the foot and
// the appended rows of every segmented page; over a corpus' pages that
// size the gzip members come to 1.19 times compress/gzip's, which
// dissenterweb's TestSmallPageWireSize holds under 1.25.
const fixedMax = 4 << 10

const (
	fixedHashBits = 12 // 4,096 entries: one per byte of the largest segment segment() sends here
	fixedMinMatch = 4
	fixedMaxMatch = 258
	fixedMaxDist  = 32 << 10
	fixedEOBBits  = 7 // the end-of-block symbol, 256, is seven zero bits
)

// A fixed symbol is its bits as the stream carries them — the Huffman
// code reversed, because deflate packs codes from their most significant
// bit into a stream filled from the least, then any extra bits — shifted
// over their count: bits<<5 | count.
var (
	fixedLit [256]uint16               // by literal byte
	fixedLen [fixedMaxMatch - 2]uint32 // by match length - 3, extra bits included
)

func init() {
	rev := func(code uint16, n int) uint32 { return uint32(bits.Reverse16(code) >> (16 - n)) }
	for b := range fixedLit {
		if b < 144 {
			fixedLit[b] = uint16(rev(0x30+uint16(b), 8)<<5 | 8)
		} else {
			fixedLit[b] = uint16(rev(0x190+uint16(b-144), 9)<<5 | 9)
		}
	}
	for y := range fixedLen { // y = length - 3
		sym, extra, eb := 257+y, 0, 0
		switch {
		case y == fixedMaxMatch-3:
			sym = 285
		case y >= 8:
			n := bits.Len(uint(y)) - 1
			eb = n - 2
			sym, extra = 257+4*(n-1)+y>>eb&3, y&(1<<eb-1)
		}
		code, n := rev(uint16(sym-256), 7), 7
		if sym >= 280 {
			code, n = rev(0xc0+uint16(sym-280), 8), 8
		}
		fixedLen[y] = (code|uint32(extra)<<n)<<5 | uint32(n+eb)
	}
}

// fixedDistance is the symbol of match distance d (1..fixedMaxDist): a
// five-bit code, then its extra bits. Codes 0-3 are the distances 1-4,
// and from there every power of two [2^n+1, 2^(n+1)] is split between
// codes 2n and 2n+1, n-1 extra bits each.
func fixedDistance(d int) uint32 {
	x := uint32(d - 1)
	code, eb := x, uint32(0)
	if x >= 4 {
		eb = uint32(bits.Len32(x) - 2)
		code = 2*(eb+1) + x>>eb&1
	}
	return (uint32(bits.Reverse8(uint8(code))>>3)|(x&(1<<eb-1))<<5)<<5 | (5 + eb)
}

// fixedBound is the room appendFixed needs for n bytes: a literal costs
// at most 9 bits and a match less than its literals; 16 covers the
// block's header and end, the sync marker and the eight bytes the last
// flush stores.
func fixedBound(n int) int { return n + n/8 + 16 }

// appendFixed appends src to dst as one fixed-Huffman block with no
// history before src[0], and returns the extended slice: the final
// block padded to a byte when final, else followed by the empty stored
// block a flate.Writer's Flush ends on (00 00 FF FF after the padding),
// so the next segment starts byte-aligned.
//
// Matching is greedy over a single-probe hash of four bytes. d.table is
// never cleared: it holds d.base plus a position plus one, d.base moves
// past every segment, and an entry at or under it is a position of an
// earlier segment — no candidate.
func (d *deflater) appendFixed(dst, src []byte, final bool) []byte {
	if int64(d.base)+int64(len(src)) > math.MaxUint32 {
		d.table, d.base = [1 << fixedHashBits]uint32{}, 0
	}
	base := d.base
	d.base += uint32(len(src))

	dst = slices.Grow(dst, fixedBound(len(src)))
	out, o := dst[:cap(dst)], len(dst)
	acc, n := uint64(2), uint32(3) // BTYPE=01 (fixed), BFINAL below
	if final {
		acc |= 1
	}
	for s := 0; s < len(src); s++ {
		sym, nb := uint64(fixedLit[src[s]]>>5), uint32(fixedLit[src[s]]&31)
		if s+fixedMinMatch <= len(src) {
			cur := binary.LittleEndian.Uint32(src[s:])
			h := cur * 0x1e35a7bd >> (32 - fixedHashBits)
			e := d.table[h]
			d.table[h] = base + uint32(s) + 1
			if c := int(e - base - 1); e > base && s-c <= fixedMaxDist && binary.LittleEndian.Uint32(src[c:]) == cur {
				l, max := fixedMinMatch, min(len(src)-s, fixedMaxMatch)
				for l < max && src[c+l] == src[s+l] {
					l++
				}
				ls, ds := fixedLen[l-3], fixedDistance(s-c)
				sym, nb = uint64(ls>>5)|uint64(ds>>5)<<(ls&31), ls&31+ds&31
				s += l - 1
			}
		}
		acc |= sym << n
		if n += nb; n >= 32 {
			binary.LittleEndian.PutUint32(out[o:], uint32(acc))
			o += 4
			acc >>= 32
			n -= 32
		}
	}
	n += fixedEOBBits
	if !final {
		n += 3 // the stored block's header: BFINAL=0, BTYPE=00
	}
	binary.LittleEndian.PutUint64(out[o:], acc)
	o += int(n+7) >> 3
	if !final {
		o += copy(out[o:], "\x00\x00\xff\xff") // its LEN and NLEN
	}
	return out[:o]
}
