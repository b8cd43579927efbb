package eventlog

import (
	"bufio"
	"bytes"
	"encoding/binary"
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

// DecodeSnapshot parses an encoded snapshot, verifying magic, version,
// and checksum. The returned checkpoint's slices are freshly
// allocated, so it is a legal FromCheckpoint seed.
func DecodeSnapshot(b []byte) (platform.Checkpoint, error) {
	var cp platform.Checkpoint
	if len(b) < len(snapMagic)+1+4 {
		return cp, fmt.Errorf("eventlog: snapshot too short (%d bytes)", len(b))
	}
	if [4]byte(b[:4]) != snapMagic {
		return cp, fmt.Errorf("eventlog: bad snapshot magic %q", b[:4])
	}
	body, sumBytes := b[:len(b)-4], b[len(b)-4:]
	if crc32.Checksum(body, castagnoli) != binary.BigEndian.Uint32(sumBytes) {
		return cp, fmt.Errorf("eventlog: snapshot checksum mismatch")
	}
	if ver := b[4]; ver == 0 || ver > SnapshotVersion {
		return cp, fmt.Errorf("eventlog: unknown snapshot version %d", ver)
	}
	r := &reader{b: body, off: 5}
	cp.Seq = r.uvarint()

	nUsers := r.uvarint()
	for i := uint64(0); i < nUsers && r.err == nil; i++ {
		if u, ok := decodeSection(r, decodeUser); ok {
			cp.Users = append(cp.Users, u)
		}
	}
	nURLs := r.uvarint()
	for i := uint64(0); i < nURLs && r.err == nil; i++ {
		if cu, ok := decodeSection(r, decodeURL); ok {
			cp.URLs = append(cp.URLs, cu)
		}
	}
	nComments := r.uvarint()
	for i := uint64(0); i < nComments && r.err == nil; i++ {
		if c, ok := decodeSection(r, decodeComment); ok {
			cp.Comments = append(cp.Comments, c)
		}
	}
	nFollows := r.uvarint()
	if nFollows > 0 && r.err == nil {
		cp.Follows = make(map[ids.GabID][]ids.GabID, nFollows)
		for i := uint64(0); i < nFollows && r.err == nil; i++ {
			from := ids.GabID(r.varint())
			k := r.uvarint()
			tos := make([]ids.GabID, 0, k)
			for j := uint64(0); j < k && r.err == nil; j++ {
				tos = append(tos, ids.GabID(r.varint()))
			}
			cp.Follows[from] = tos
		}
	}
	if r.err != nil {
		return platform.Checkpoint{}, r.err
	}
	return cp, nil
}

// decodeSection decodes one length-prefixed entity body with its own
// bounded reader, propagating corruption to the outer walk.
func decodeSection[T any](r *reader, decode func(*reader) T) (v T, ok bool) {
	sub := r.section()
	v = decode(sub)
	if sub.err != nil && r.err == nil {
		r.err = sub.err
	}
	return v, r.err == nil
}

// section consumes one length-prefixed entity body and returns a
// reader over exactly those bytes, so appended future fields inside
// an entity never desynchronize the outer walk.
func (r *reader) section() *reader {
	n := r.uvarint()
	if r.err != nil {
		return &reader{err: r.err}
	}
	if uint64(len(r.b)-r.off) < n {
		r.fail()
		return &reader{err: r.err}
	}
	sub := &reader{b: r.b[r.off : r.off+int(n)]}
	r.off += int(n)
	return sub
}

// ReadSnapshot is WriteSnapshot's counterpart: the whole stream is one
// snapshot. Snapshots are bounded by the corpus size, which already
// lives in memory on both ends.
func ReadSnapshot(r io.Reader) (platform.Checkpoint, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return platform.Checkpoint{}, err
	}
	return DecodeSnapshot(b)
}
