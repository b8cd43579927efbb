package ids

import (
	"encoding/json"
	"errors"
	"testing"
	"testing/quick"
	"time"
)

func TestPaperExampleTimestamp(t *testing.T) {
	// The paper's worked example: an account created on February 28, 2019
	// at 16:23:53 UTC has an author-id beginning with 5c780b19.
	created := time.Date(2019, time.February, 28, 16, 23, 53, 0, time.UTC)
	g := NewGenerator(1)
	id := g.NewAt(created)
	if got := id.String()[:8]; got != "5c780b19" {
		t.Fatalf("timestamp prefix = %q, want 5c780b19", got)
	}
	if !id.Time().Equal(created) {
		t.Fatalf("Time() = %v, want %v", id.Time(), created)
	}
}

func TestParseRoundTrip(t *testing.T) {
	g := NewGenerator(42)
	id := g.NewAt(time.Unix(1580000000, 0))
	parsed, err := Parse(id.String())
	if err != nil {
		t.Fatalf("Parse(%q): %v", id.String(), err)
	}
	if parsed != id {
		t.Fatalf("round trip mismatch: %v != %v", parsed, id)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		in      string
		wantErr error
	}{
		{"", ErrBadLength},
		{"5c780b19", ErrBadLength},
		{"5c780b195c780b195c780b195c", ErrBadLength},
		{"zc780b19aaaaaaaaaaaaaaaa", ErrBadDigit},
		{"5c780b19aaaaaaaaaaaaaaaZ", ErrBadDigit},
	}
	for _, c := range cases {
		_, err := Parse(c.in)
		if err == nil {
			t.Errorf("Parse(%q): want error, got nil", c.in)
			continue
		}
		if !errors.Is(err, c.wantErr) {
			t.Errorf("Parse(%q) = %v, want %v", c.in, err, c.wantErr)
		}
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a := NewGenerator(7)
	b := NewGenerator(7)
	at := time.Unix(1550000000, 0)
	for i := 0; i < 100; i++ {
		if x, y := a.NewAt(at), b.NewAt(at); x != y {
			t.Fatalf("iteration %d: %v != %v", i, x, y)
		}
	}
	c := NewGenerator(8)
	if a.machine == c.machine {
		t.Fatal("different seeds produced the same machine bytes")
	}
}

func TestCounterIncrements(t *testing.T) {
	g := NewGenerator(3)
	at := time.Unix(1550000000, 0)
	prev := g.NewAt(at)
	for i := 0; i < 10; i++ {
		next := g.NewAt(at)
		if next.Counter() != prev.Counter()+1 {
			t.Fatalf("counter did not increment: %d -> %d", prev.Counter(), next.Counter())
		}
		if !prev.Before(next) {
			t.Fatalf("Before() false for sequential ids %v, %v", prev, next)
		}
		prev = next
	}
}

func TestBeforeOrdersByTime(t *testing.T) {
	g := NewGenerator(3)
	early := g.NewAt(time.Unix(1000, 0))
	late := g.NewAt(time.Unix(2000, 0))
	if !early.Before(late) || late.Before(early) {
		t.Fatal("Before() does not order by embedded timestamp")
	}
}

func TestIsZero(t *testing.T) {
	var zero ObjectID
	if !zero.IsZero() {
		t.Fatal("zero value not reported as zero")
	}
	if NewGenerator(0).New().IsZero() {
		t.Fatal("minted id reported as zero")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	g := NewGenerator(11)
	id := g.NewAt(time.Unix(1560000000, 0))
	blob, err := json.Marshal(id)
	if err != nil {
		t.Fatal(err)
	}
	var back ObjectID
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back != id {
		t.Fatalf("JSON round trip mismatch: %v != %v", back, id)
	}
	if err := json.Unmarshal([]byte(`"bogus"`), &back); err == nil {
		t.Fatal("unmarshal of invalid id succeeded")
	}
}

func TestGabID(t *testing.T) {
	if GabID(0).Valid() || GabID(-5).Valid() {
		t.Fatal("non-positive GabIDs reported valid")
	}
	if !GabID(1).Valid() {
		t.Fatal("GabID 1 (@e) reported invalid")
	}
	if GabID(123).String() != "123" {
		t.Fatalf("String() = %q", GabID(123).String())
	}
}

func TestQuickParseRoundTrip(t *testing.T) {
	// Property: any 12-byte value survives String/Parse unchanged.
	f := func(raw [12]byte) bool {
		id := ObjectID(raw)
		back, err := Parse(id.String())
		return err == nil && back == id
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickTimeMonotone(t *testing.T) {
	// Property: for non-negative 32-bit timestamps, Time() round-trips and
	// Before() agrees with numeric timestamp order across generators.
	f := func(a, b uint32, seedA, seedB uint64) bool {
		ga, gb := NewGenerator(seedA), NewGenerator(seedB)
		ia := ga.NewAt(time.Unix(int64(a), 0))
		ib := gb.NewAt(time.Unix(int64(b), 0))
		if ia.Time().Unix() != int64(a) || ib.Time().Unix() != int64(b) {
			return false
		}
		if a < b && !ia.Before(ib) {
			return false
		}
		if b < a && !ib.Before(ia) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkGenerate(b *testing.B) {
	g := NewGenerator(1)
	at := time.Unix(1550000000, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = g.NewAt(at)
	}
}

func BenchmarkParse(b *testing.B) {
	s := NewGenerator(1).NewAt(time.Unix(1550000000, 0)).String()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(s); err != nil {
			b.Fatal(err)
		}
	}
}
