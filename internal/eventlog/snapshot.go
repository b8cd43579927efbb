package eventlog

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"

	"dissenter/internal/ids"
	"dissenter/internal/platform"
)

// SnapshotVersion is the snapshot layout version; entity bodies inside
// a snapshot follow the codec's append-only compatibility rule, so the
// version only bumps for section-structure changes.
const SnapshotVersion = 1

var snapMagic = [4]byte{'D', 'S', 'N', 'P'}

// WriteSnapshot streams a consistent cut to w and returns the
// snapshot's size in bytes (on error, the bytes encoded so far, not
// necessarily delivered). It is the one snapshot encoder: the
// rotation's file write, the Publisher's /replication/snapshot
// response and EncodeSnapshot all run it. Entities are encoded one at
// a time into a reused scratch buffer — bodies reuse the record
// codec's encodings, each length-prefixed so future fields can be
// appended without a version bump — and leave through a bufio.Writer
// under a running CRC-32C, so a snapshot costs O(1) allocations
// however large the store is.
func WriteSnapshot(w io.Writer, cp platform.Checkpoint) (int64, error) {
	e := snapEncoder{w: bufio.NewWriterSize(w, 64<<10)}
	e.write(snapMagic[:])
	e.write(append(e.num[:0], SnapshotVersion))
	e.uvarint(cp.Seq)

	e.uvarint(uint64(len(cp.Users)))
	for _, u := range cp.Users {
		e.sized(appendUser(e.body[:0], u))
	}
	e.uvarint(uint64(len(cp.URLs)))
	for _, cu := range cp.URLs {
		e.sized(appendURL(e.body[:0], cu))
	}
	e.uvarint(uint64(len(cp.Comments)))
	for _, c := range cp.Comments {
		e.sized(appendComment(e.body[:0], c))
	}
	// Map order is randomized; sort so equal checkpoints encode to
	// equal bytes (the golden and round-trip tests rely on it).
	froms := make([]ids.GabID, 0, len(cp.Follows))
	for from := range cp.Follows {
		froms = append(froms, from)
	}
	slices.Sort(froms)
	e.uvarint(uint64(len(froms)))
	for _, from := range froms {
		tos := cp.Follows[from]
		e.varint(int64(from))
		e.uvarint(uint64(len(tos)))
		for _, to := range tos {
			e.varint(int64(to))
		}
	}
	e.w.Write(binary.BigEndian.AppendUint32(e.num[:0], e.sum))
	// bufio.Writer errors are sticky: the first failed write surfaces
	// here, whichever entity it interrupted.
	return e.n + 4, e.w.Flush()
}

// EncodeSnapshot is WriteSnapshot into memory.
func EncodeSnapshot(cp platform.Checkpoint) []byte {
	var buf bytes.Buffer
	WriteSnapshot(&buf, cp) // a bytes.Buffer write cannot fail
	return buf.Bytes()
}

// snapEncoder is WriteSnapshot's state: the buffered output, the
// checksum and size of everything written to it, a scratch array for
// varints, and the entity body reused across entities.
type snapEncoder struct {
	w    *bufio.Writer
	sum  uint32
	n    int64
	num  [binary.MaxVarintLen64]byte
	body []byte
}

func (e *snapEncoder) write(b []byte) {
	e.sum = crc32.Update(e.sum, castagnoli, b)
	e.n += int64(len(b))
	e.w.Write(b)
}

func (e *snapEncoder) uvarint(v uint64) { e.write(binary.AppendUvarint(e.num[:0], v)) }
func (e *snapEncoder) varint(v int64)   { e.write(binary.AppendVarint(e.num[:0], v)) }

// sized writes one entity body prefixed with its uvarint length and
// keeps the (possibly grown) buffer for the next entity.
func (e *snapEncoder) sized(body []byte) {
	e.uvarint(uint64(len(body)))
	e.write(body)
	e.body = body
}

// ReadSnapshot is WriteSnapshot's counterpart and the one snapshot
// decoder. It parses entity by entity while the bytes arrive — a
// replica decodes the primary's snapshot while the primary is still
// encoding it — under a running CRC-32C, and returns nothing until the
// checksum and the end of the stream have both been checked. A count
// read off the wire bounds a loop, never an allocation: records are
// decoded into arrays allocated as records arrive (maxRecordChunk), so
// a header claiming 2^40 comments costs what its bytes cost. The
// returned checkpoint's slices are freshly allocated, so it is a legal
// FromCheckpoint seed.
func ReadSnapshot(r io.Reader) (platform.Checkpoint, error) {
	d := snapDecoder{r: bufio.NewReaderSize(r, 64<<10)}
	if magic := d.next(len(snapMagic)); d.err == nil && [4]byte(magic) != snapMagic {
		return platform.Checkpoint{}, fmt.Errorf("eventlog: bad snapshot magic %q", magic)
	}
	if ver := d.next(1); d.err == nil && (ver[0] == 0 || ver[0] > SnapshotVersion) {
		return platform.Checkpoint{}, fmt.Errorf("eventlog: unknown snapshot version %d", ver[0])
	}
	cp := platform.Checkpoint{Seq: d.uvarint()}
	cp.Users = readSection(&d, decodeUser)
	cp.URLs = readSection(&d, decodeURL)
	cp.Comments = readSection(&d, decodeComment)
	cp.Follows = d.follows()
	sum := d.sum
	got := d.next(4)
	switch {
	case d.err != nil:
		return platform.Checkpoint{}, d.err
	case binary.BigEndian.Uint32(got) != sum:
		return platform.Checkpoint{}, fmt.Errorf("eventlog: snapshot checksum mismatch")
	}
	d.r.Discard(d.held)
	if _, err := d.r.ReadByte(); err != io.EOF {
		if err == nil {
			err = errors.New("trailing bytes after the checksum")
		}
		return platform.Checkpoint{}, fmt.Errorf("eventlog: snapshot: %w", err)
	}
	return cp, nil
}

// maxRecordChunk caps the arrays ReadSnapshot decodes records into.
// They start small and double up to it as records arrive, so a store
// costs about one allocation per 4096 records and a short or hostile
// stream only what it delivered.
const maxRecordChunk = 4096

// snapDecoder is ReadSnapshot's state: the buffered input, the
// checksum of every byte consumed so far, the first error, and scratch
// for bodies longer than the buffer and for one follow list.
type snapDecoder struct {
	r    *bufio.Reader
	held int // bytes the last next returned, still in r's buffer
	sum  uint32
	err  error
	long []byte
	tos  []ids.GabID
}

func (d *snapDecoder) fail(err error) {
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	d.err = fmt.Errorf("eventlog: snapshot: %w", err)
}

// next consumes the next n bytes of the stream and returns them; the
// slice is valid until the following call. After an error it returns
// nil and consumes nothing.
func (d *snapDecoder) next(n int) []byte {
	if d.err != nil {
		return nil
	}
	d.r.Discard(d.held)
	d.held = 0
	if n > d.r.Size() {
		// Longer than the buffer: copy it out piece by piece, so the
		// scratch grows only as far as the bytes that arrived.
		d.long = d.long[:0]
		for n > 0 && d.err == nil {
			k := min(n, d.r.Size())
			d.long = append(d.long, d.next(k)...)
			n -= k
		}
		return d.long
	}
	b, err := d.r.Peek(n)
	if err != nil {
		d.fail(err)
		return nil
	}
	d.sum = crc32.Update(d.sum, castagnoli, b)
	d.held = n
	return b
}

func (d *snapDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	d.r.Discard(d.held)
	d.held = 0
	b, err := d.r.Peek(binary.MaxVarintLen64) // fewer at the end of the stream
	v, n := binary.Uvarint(b)
	switch {
	case n == 0:
		d.fail(err)
	case n < 0:
		d.err = errMalformed
	default:
		d.next(n)
	}
	return v
}

// varint undoes the zig-zag encoding binary.AppendVarint writes.
func (d *snapDecoder) varint() int64 {
	u := d.uvarint()
	if u&1 != 0 {
		return ^int64(u >> 1)
	}
	return int64(u >> 1)
}

// readSection decodes one section: a count, then that many
// length-prefixed entity bodies, each through its own bounded reader so
// appended future fields never desynchronize the walk.
func readSection[T any](d *snapDecoder, decode func(*reader) T) []*T {
	var out []*T
	var chunk []T
	for i, n := uint64(0), d.uvarint(); i < n && d.err == nil; i++ {
		size := d.uvarint()
		if size > uint64(maxFrame) {
			d.err = errMalformed
			break
		}
		body := reader{b: d.next(int(size))}
		v := decode(&body)
		if d.err != nil || body.err != nil {
			d.err = cmp.Or(d.err, body.err)
			break
		}
		if len(chunk) == cap(chunk) {
			chunk = make([]T, 0, min(max(2*cap(chunk), 16), maxRecordChunk))
		}
		chunk = append(chunk, v)
		out = append(out, &chunk[len(chunk)-1])
	}
	return out
}

// follows decodes the follow section: a count of sources, then per
// source its Gab ID and its list.
func (d *snapDecoder) follows() map[ids.GabID][]ids.GabID {
	out := make(map[ids.GabID][]ids.GabID)
	for i, n := uint64(0), d.uvarint(); i < n && d.err == nil; i++ {
		from := ids.GabID(d.varint())
		d.tos = d.tos[:0]
		for j, k := uint64(0), d.uvarint(); j < k && d.err == nil; j++ {
			d.tos = append(d.tos, ids.GabID(d.varint()))
		}
		out[from] = slices.Clone(d.tos)
	}
	return out
}
