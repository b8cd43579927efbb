// Package ids implements the undocumented 12-byte Dissenter object
// identifiers and Gab's sequential user identifiers, as reverse engineered
// in §2.2 and §3.1 of "Reading In-Between the Lines: An Analysis of
// Dissenter" (Rye, Blackburn, Beverly; IMC 2020).
//
// A Dissenter ObjectID is 12 bytes rendered as 24 lowercase hexadecimal
// digits. The first 4 bytes are a big-endian Unix timestamp (seconds)
// recording when the entity — a user account (author-id), a commented URL
// (commenturl-id), or a comment (comment-id) — was created. The paper
// observes "additional structure in the remaining 16 hexadecimal digits";
// we model the common MongoDB-style layout consistent with that
// observation: a 5-byte per-deployment machine/process value followed by a
// 3-byte big-endian counter. Analyses in this repository only rely on the
// timestamp prefix, exactly as the paper does.
//
// Gab user IDs are plain positive integers assigned by a monotone counter
// starting at 1 (the account "@e"), with occasional anomalies in which an
// unallocated lower ID is handed to a new account.
package ids

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// ObjectID is a 12-byte Dissenter identifier. The zero value is invalid;
// construct values with New, NewAt, or Parse.
type ObjectID [12]byte

// Errors returned by Parse.
var (
	ErrBadLength = errors.New("ids: object id must be 24 hexadecimal digits")
	ErrBadDigit  = errors.New("ids: object id contains a non-hexadecimal digit")
)

// Generator mints ObjectIDs with a fixed 5-byte machine value and an
// atomically incremented 3-byte counter, mirroring the structure observed
// in Dissenter identifiers. A Generator is safe for concurrent use. The
// zero value is usable and behaves like NewGenerator(0).
type Generator struct {
	machine [5]byte
	counter atomic.Uint32
}

// NewGenerator returns a Generator whose machine field is derived from
// seed. Two generators with the same seed and the same sequence of calls
// produce identical IDs, which keeps the synthetic platform deterministic.
func NewGenerator(seed uint64) *Generator {
	g := &Generator{}
	// Spread the seed over the 5 machine bytes with an xorshift-style mix
	// so nearby seeds do not share prefixes.
	x := seed*0x9e3779b97f4a7c15 + 0x632be59bd9b4e019
	x ^= x >> 29
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 32
	for i := 0; i < 5; i++ {
		g.machine[i] = byte(x >> (8 * uint(i)))
	}
	return g
}

// NewAt mints an ObjectID whose timestamp prefix encodes t (truncated to
// whole seconds, interpreted as Unix time).
func (g *Generator) NewAt(t time.Time) ObjectID {
	var id ObjectID
	binary.BigEndian.PutUint32(id[0:4], uint32(t.Unix()))
	copy(id[4:9], g.machine[:])
	c := g.counter.Add(1)
	id[9] = byte(c >> 16)
	id[10] = byte(c >> 8)
	id[11] = byte(c)
	return id
}

// New mints an ObjectID stamped with the current time.
func (g *Generator) New() ObjectID { return g.NewAt(time.Now()) }

// Parse decodes a 24-digit hexadecimal string into an ObjectID.
func Parse(s string) (ObjectID, error) {
	var id ObjectID
	if len(s) != 24 {
		return id, fmt.Errorf("%w (got %d digits)", ErrBadLength, len(s))
	}
	if _, err := hex.Decode(id[:], []byte(s)); err != nil {
		return id, fmt.Errorf("%w: %q", ErrBadDigit, s)
	}
	return id, nil
}

// String renders the identifier as 24 lowercase hexadecimal digits, the
// representation used throughout Dissenter HTML and URLs.
func (id ObjectID) String() string { return hex.EncodeToString(id[:]) }

// Time extracts the creation timestamp encoded in the first 4 bytes.
// This is the analysis primitive the paper uses to reconstruct account,
// URL, and comment creation histories without any platform cooperation.
func (id ObjectID) Time() time.Time {
	secs := binary.BigEndian.Uint32(id[0:4])
	return time.Unix(int64(secs), 0).UTC()
}

// Counter returns the trailing 3-byte counter value.
func (id ObjectID) Counter() uint32 {
	return uint32(id[9])<<16 | uint32(id[10])<<8 | uint32(id[11])
}

// IsZero reports whether id is the (invalid) zero identifier.
func (id ObjectID) IsZero() bool { return id == ObjectID{} }

// Before reports whether id's embedded timestamp is strictly earlier than
// other's; ties are broken by the counter so that IDs minted by one
// generator sort in creation order.
func (id ObjectID) Before(other ObjectID) bool {
	ta := binary.BigEndian.Uint32(id[0:4])
	tb := binary.BigEndian.Uint32(other[0:4])
	if ta != tb {
		return ta < tb
	}
	return id.Counter() < other.Counter()
}

// MarshalText implements encoding.TextMarshaler so ObjectIDs serialize as
// hex strings in JSON corpora.
func (id ObjectID) MarshalText() ([]byte, error) {
	return []byte(id.String()), nil
}

// UnmarshalText implements encoding.TextUnmarshaler.
func (id *ObjectID) UnmarshalText(b []byte) error {
	parsed, err := Parse(string(b))
	if err != nil {
		return err
	}
	*id = parsed
	return nil
}

// GabID is a Gab user identifier: a positive integer from a (mostly)
// monotone counter. GabID 1 belongs to "@e"; unallocated IDs return errors
// from the Gab API, which is what makes exhaustive enumeration possible.
type GabID int64

// Valid reports whether the identifier is in the allocatable range.
func (g GabID) Valid() bool { return g >= 1 }

// String formats the ID the way the Gab API path expects it.
func (g GabID) String() string { return fmt.Sprintf("%d", g) }
