package eventlog

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
	"time"

	"dissenter/internal/ids"
	"dissenter/internal/platform"
)

// CodecVersion is the current record-payload layout version. Decoders
// skip (and count) payloads carrying a version they do not know; the
// version only bumps for layout changes that appending fields cannot
// express.
const CodecVersion = 1

// maxFrame bounds a frame's declared payload length. The largest real
// payload is a comment body (text is capped far below this upstream);
// anything bigger is corruption, and bounding it keeps a torn length
// field from provoking a giant allocation.
const maxFrame = 1 << 26

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrChecksum reports a frame whose payload does not match its CRC.
var ErrChecksum = errors.New("eventlog: frame checksum mismatch")

// errMalformed reports a frame length past maxFrame, or a payload cut
// mid-field or with an invalid varint — corruption, not version skew
// (see the compatibility rule in the package documentation).
var errMalformed = errors.New("eventlog: malformed payload")

// Record is one sequenced event: what a WAL stores and a replication
// stream carries.
type Record struct {
	Seq   uint64
	Event platform.Event
}

// AppendRecord appends rec's encoded frame to dst and returns the
// extended slice. It fails only on an event type the codec does not
// know how to write.
func AppendRecord(dst []byte, rec Record) ([]byte, error) {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0) // length + CRC, patched below
	dst = append(dst, CodecVersion)
	dst = appendString(dst, platform.EventName(rec.Event))
	dst = binary.AppendUvarint(dst, rec.Seq)
	var err error
	dst, err = appendEventBody(dst, rec.Event)
	if err != nil {
		return dst[:start], err
	}
	payload := dst[start+8:]
	binary.BigEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.BigEndian.PutUint32(dst[start+4:], crc32.Checksum(payload, castagnoli))
	return dst, nil
}

func appendEventBody(dst []byte, ev platform.Event) ([]byte, error) {
	switch e := ev.(type) {
	case platform.UserAdded:
		return appendUser(dst, e.User), nil
	case platform.URLSubmitted:
		return appendURL(dst, e.URL), nil
	case platform.CommentAdded:
		return appendComment(dst, e.Comment), nil
	case platform.FollowAdded:
		dst = binary.AppendVarint(dst, int64(e.From))
		dst = binary.AppendVarint(dst, int64(e.To))
		return dst, nil
	case platform.VoteCast:
		dst = append(dst, e.URLID[:]...)
		dst = binary.AppendVarint(dst, int64(e.Ups))
		dst = binary.AppendVarint(dst, int64(e.Downs))
		return dst, nil
	default:
		return dst, fmt.Errorf("eventlog: cannot encode event type %T", ev)
	}
}

// --- entity bodies ------------------------------------------------------

// Field order below is the wire contract: append-only, never reorder.

func appendUser(dst []byte, u *platform.User) []byte {
	dst = binary.AppendVarint(dst, int64(u.GabID))
	dst = appendString(dst, u.Username)
	dst = appendString(dst, u.DisplayName)
	dst = appendString(dst, u.Bio)
	dst = appendTime(dst, u.CreatedAt)
	var b byte
	if u.HasDissenter {
		b |= 1
	}
	if u.GabDeleted {
		b |= 2
	}
	dst = append(dst, b)
	dst = append(dst, u.AuthorID[:]...)
	dst = binary.AppendUvarint(dst, uint64(packUserFlags(u.Flags)))
	dst = append(dst, packViewFilters(u.Filters))
	dst = appendString(dst, u.Language)
	return dst
}

func decodeUser(r *reader) platform.User {
	u := platform.User{
		GabID:       ids.GabID(r.varint()),
		Username:    r.str(),
		DisplayName: r.str(),
		Bio:         r.str(),
		CreatedAt:   r.time(),
	}
	b := r.byte()
	u.HasDissenter = b&1 != 0
	u.GabDeleted = b&2 != 0
	u.AuthorID = r.objid()
	u.Flags = unpackUserFlags(uint16(r.uvarint()))
	u.Filters = unpackViewFilters(r.byte())
	u.Language = r.str()
	return u
}

func appendURL(dst []byte, cu *platform.CommentURL) []byte {
	dst = append(dst, cu.ID[:]...)
	dst = appendString(dst, cu.URL)
	dst = appendString(dst, cu.Title)
	dst = appendString(dst, cu.Description)
	dst = binary.AppendVarint(dst, int64(cu.Ups))
	dst = binary.AppendVarint(dst, int64(cu.Downs))
	dst = appendTime(dst, cu.FirstSeen)
	return dst
}

func decodeURL(r *reader) platform.CommentURL {
	return platform.CommentURL{
		ID:          r.objid(),
		URL:         r.str(),
		Title:       r.str(),
		Description: r.str(),
		Ups:         int(r.varint()),
		Downs:       int(r.varint()),
		FirstSeen:   r.time(),
	}
}

func appendComment(dst []byte, c *platform.Comment) []byte {
	dst = append(dst, c.ID[:]...)
	dst = append(dst, c.URLID[:]...)
	dst = append(dst, c.AuthorID[:]...)
	dst = append(dst, c.ParentID[:]...)
	dst = appendString(dst, c.Text)
	dst = appendTime(dst, c.CreatedAt)
	var b byte
	if c.NSFW {
		b |= 1
	}
	if c.Offensive {
		b |= 2
	}
	dst = append(dst, b)
	return dst
}

func decodeComment(r *reader) platform.Comment {
	c := platform.Comment{
		ID:        r.objid(),
		URLID:     r.objid(),
		AuthorID:  r.objid(),
		ParentID:  r.objid(),
		Text:      r.str(),
		CreatedAt: r.time(),
	}
	b := r.byte()
	c.NSFW = b&1 != 0
	c.Offensive = b&2 != 0
	return c
}

// --- bit packing --------------------------------------------------------

// Bit positions follow the struct's declared field order; new flags
// take the next free bit.

func packUserFlags(f platform.UserFlags) uint16 {
	var v uint16
	for i, b := range []bool{
		f.CanLogin, f.CanPost, f.CanReport, f.CanChat, f.CanVote,
		f.IsBanned, f.IsAdmin, f.IsModerator, f.IsPro, f.IsDonor,
		f.IsInvestor, f.IsPremium, f.IsTippable, f.IsPrivate, f.Verified,
	} {
		if b {
			v |= 1 << i
		}
	}
	return v
}

func unpackUserFlags(v uint16) platform.UserFlags {
	bit := func(i int) bool { return v&(1<<i) != 0 }
	return platform.UserFlags{
		CanLogin: bit(0), CanPost: bit(1), CanReport: bit(2), CanChat: bit(3), CanVote: bit(4),
		IsBanned: bit(5), IsAdmin: bit(6), IsModerator: bit(7), IsPro: bit(8), IsDonor: bit(9),
		IsInvestor: bit(10), IsPremium: bit(11), IsTippable: bit(12), IsPrivate: bit(13), Verified: bit(14),
	}
}

func packViewFilters(f platform.ViewFilters) byte {
	var v byte
	for i, b := range []bool{f.Pro, f.Verified, f.Standard, f.NSFW, f.Offensive} {
		if b {
			v |= 1 << i
		}
	}
	return v
}

func unpackViewFilters(v byte) platform.ViewFilters {
	bit := func(i int) bool { return v&(1<<i) != 0 }
	return platform.ViewFilters{
		Pro: bit(0), Verified: bit(1), Standard: bit(2), NSFW: bit(3), Offensive: bit(4),
	}
}

// --- primitives ---------------------------------------------------------

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// zeroUnixSec is time.Time{}.Unix(): the zero time's second count,
// used to round-trip zero times exactly.
const zeroUnixSec = -62135596800

func appendTime(dst []byte, t time.Time) []byte {
	dst = binary.AppendVarint(dst, t.Unix())
	return binary.AppendUvarint(dst, uint64(t.Nanosecond()))
}

// reader walks a payload body with the compatibility-rule semantics: a
// body that ends cleanly at a field boundary yields zero values for
// the remaining fields (an old writer did not know them), while a
// field cut mid-bytes marks the payload malformed.
type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) fail() { r.err = errMalformed }

func (r *reader) uvarint() uint64 {
	if r.err != nil || r.off >= len(r.b) {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return v
}

func (r *reader) varint() int64 {
	if r.err != nil || r.off >= len(r.b) {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return v
}

func (r *reader) byte() byte {
	if r.err != nil || r.off >= len(r.b) {
		return 0
	}
	b := r.b[r.off]
	r.off++
	return b
}

func (r *reader) str() string {
	if r.err != nil || r.off >= len(r.b) {
		return ""
	}
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if uint64(len(r.b)-r.off) < n {
		r.fail()
		return ""
	}
	s := string(r.b[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

func (r *reader) objid() (id ids.ObjectID) {
	if r.err != nil || r.off >= len(r.b) {
		return id
	}
	if len(r.b)-r.off < len(id) {
		r.fail()
		return id
	}
	copy(id[:], r.b[r.off:])
	r.off += len(id)
	return id
}

func (r *reader) time() time.Time {
	if r.err != nil || r.off >= len(r.b) {
		return time.Time{}
	}
	sec := r.varint()
	nsec := r.uvarint()
	if r.err != nil || (sec == zeroUnixSec && nsec == 0) {
		return time.Time{}
	}
	return time.Unix(sec, int64(nsec)).UTC()
}

// decodePayload parses one checksum-verified payload. known is false
// for a record carrying an unknown wire name or codec version — the
// skip-with-counter path; err marks corruption.
func decodePayload(payload []byte) (rec Record, known bool, err error) {
	r := &reader{b: payload}
	ver := r.byte()
	name := r.str()
	rec.Seq = r.uvarint()
	if r.err != nil {
		return rec, false, r.err
	}
	if ver == 0 || ver > CodecVersion {
		return rec, false, nil
	}
	switch name {
	case "user-added":
		u := decodeUser(r)
		rec.Event = platform.UserAdded{User: &u}
	case "url-submitted":
		cu := decodeURL(r)
		rec.Event = platform.URLSubmitted{URL: &cu}
	case "comment-added":
		c := decodeComment(r)
		rec.Event = platform.CommentAdded{Comment: &c}
	case "follow-added":
		rec.Event = platform.FollowAdded{From: ids.GabID(r.varint()), To: ids.GabID(r.varint())}
	case "vote-cast":
		rec.Event = platform.VoteCast{URLID: r.objid(), Ups: int(r.varint()), Downs: int(r.varint())}
	default:
		return rec, false, nil
	}
	if r.err != nil {
		return rec, false, r.err
	}
	return rec, true, nil
}

// Decoder reads frames from a stream: a replication response body, or
// a WAL file past its header (OpenWALFS). It skips records it cannot
// understand (unknown wire name or newer codec version), counting
// them, and fails on corruption (bad checksum, malformed body,
// implausible length). Next returns io.EOF at a clean end of stream
// and io.ErrUnexpectedEOF on a frame cut short; any other error is the
// underlying reader's.
type Decoder struct {
	r       *bufio.Reader
	hdr     [8]byte
	buf     []byte
	skipped int
	off     int64 // stream offset past the last whole frame consumed, skipped ones included
}

// NewDecoder returns a Decoder reading frames from r.
func NewDecoder(r io.Reader) *Decoder {
	return &Decoder{r: bufio.NewReader(r)}
}

// Skipped reports how many well-formed records the decoder passed over
// because it did not know their event type or codec version.
func (d *Decoder) Skipped() int { return d.skipped }

// Next returns the next known record.
func (d *Decoder) Next() (Record, error) {
	for {
		if _, err := io.ReadFull(d.r, d.hdr[:]); err != nil {
			return Record{}, err // io.EOF only at a frame boundary
		}
		length := binary.BigEndian.Uint32(d.hdr[:4])
		sum := binary.BigEndian.Uint32(d.hdr[4:])
		if length > maxFrame {
			return Record{}, fmt.Errorf("%w: frame length %d exceeds limit", errMalformed, length)
		}
		payload, err := d.payload(int(length))
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return Record{}, err
		}
		if crc32.Checksum(payload, castagnoli) != sum {
			return Record{}, ErrChecksum
		}
		rec, known, err := decodePayload(payload)
		if err != nil {
			return Record{}, err
		}
		d.off += 8 + int64(length)
		if !known {
			d.skipped++
			continue
		}
		return rec, nil
	}
}

// payload reads the next n bytes into the decoder's buffer, growing it
// (doubling from 64 kB) only as the bytes arrive, so a torn or hostile
// length costs what was delivered, not what it claimed.
func (d *Decoder) payload(n int) ([]byte, error) {
	d.buf = d.buf[:0]
	for len(d.buf) < n {
		k := min(n-len(d.buf), max(len(d.buf), 64<<10))
		d.buf = slices.Grow(d.buf, k)
		got, err := io.ReadFull(d.r, d.buf[len(d.buf):len(d.buf)+k])
		d.buf = d.buf[:len(d.buf)+got]
		if err != nil {
			return nil, err
		}
	}
	return d.buf, nil
}
