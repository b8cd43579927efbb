package eventlog

import (
	"bytes"
	"encoding/binary"
	"flag"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"testing/iotest"
	"time"

	"dissenter/internal/ids"
	"dissenter/internal/platform"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenRecords is a deterministic record set covering every event
// type and the encoding's edge values (zero times, empty strings,
// negative vote deltas, all flag bits).
func goldenRecords() []Record {
	gen := ids.NewGenerator(0xBEEF) // deterministic machine+counter
	base := time.Unix(1_580_000_000, 0).UTC()
	uid := gen.NewAt(base)
	urlID := gen.NewAt(base.Add(time.Minute))
	commentID := gen.NewAt(base.Add(2 * time.Minute))
	parentID := gen.NewAt(base.Add(90 * time.Second))
	return []Record{
		{Seq: 1, Event: platform.UserAdded{User: &platform.User{
			GabID: 42, Username: "golden-user", DisplayName: "Golden User",
			Bio: "bio with unicode: héllo", CreatedAt: base.Add(time.Second),
			HasDissenter: true, AuthorID: uid, GabDeleted: true,
			Flags: platform.UserFlags{
				CanLogin: true, CanPost: true, CanReport: true, CanChat: true, CanVote: true,
				IsBanned: true, IsAdmin: true, IsModerator: true, IsPro: true, IsDonor: true,
				IsInvestor: true, IsPremium: true, IsTippable: true, IsPrivate: true, Verified: true,
			},
			Filters:  platform.ViewFilters{Pro: true, NSFW: true},
			Language: "en",
		}}},
		{Seq: 2, Event: platform.UserAdded{User: &platform.User{
			GabID: 7, Username: "minimal",
			// Everything else zero: pins zero-time and empty-string
			// round-tripping.
		}}},
		{Seq: 3, Event: platform.URLSubmitted{URL: &platform.CommentURL{
			ID: urlID, URL: "https://example.test/article?q=1&x=2",
			Title: "An Article", Description: "",
			Ups: 11, Downs: 3, FirstSeen: base.Add(time.Minute),
		}}},
		{Seq: 4, Event: platform.CommentAdded{Comment: &platform.Comment{
			ID: commentID, URLID: urlID, AuthorID: uid, ParentID: parentID,
			Text: "a reply <with> \"markup\" & newline\n", CreatedAt: base.Add(2 * time.Minute),
			NSFW: true, Offensive: true,
		}}},
		{Seq: 5, Event: platform.FollowAdded{From: 42, To: 7}},
		{Seq: 6, Event: platform.VoteCast{URLID: urlID, Ups: 0, Downs: -2}},
	}
}

func mustEncodeAll(recs []Record) []byte {
	var buf []byte
	var err error
	for _, rec := range recs {
		buf, err = AppendRecord(buf, rec)
		if err != nil {
			panic(err)
		}
	}
	return buf
}

// TestGoldenRecords pins the wire encoding byte-for-byte: an encoding
// change that breaks existing WAL files or replication peers fails
// here. Regenerate with -update only for a deliberate, versioned
// format change.
func TestGoldenRecords(t *testing.T) {
	got := mustEncodeAll(goldenRecords())
	golden := filepath.Join("testdata", "records_v1.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("encoding diverged from golden file: %d bytes vs %d", len(got), len(want))
	}

	// The golden bytes decode back to the source records.
	dec := NewDecoder(bytes.NewReader(want))
	var back []Record
	for {
		rec, err := dec.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("decode golden: %v", err)
		}
		back = append(back, rec)
	}
	if dec.Skipped() != 0 {
		t.Fatalf("decoder skipped %d golden records", dec.Skipped())
	}
	assertRecordsEqual(t, goldenRecords(), back)
}

// assertRecordsEqual compares records semantically: entity fields with
// time.Time compared by instant (decoding normalizes to UTC).
func assertRecordsEqual(t *testing.T, want, got []Record) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("decoded %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if want[i].Seq != got[i].Seq {
			t.Fatalf("record %d: seq %d, want %d", i, got[i].Seq, want[i].Seq)
		}
		// Re-encoding the decoded record must reproduce the original
		// bytes — a stricter, time-normalization-proof equality.
		wb, err := AppendRecord(nil, want[i])
		if err != nil {
			t.Fatal(err)
		}
		gb, err := AppendRecord(nil, got[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wb, gb) {
			t.Fatalf("record %d (%s) does not round-trip:\nwant %x\ngot  %x",
				i, platform.EventName(want[i].Event), wb, gb)
		}
		if reflect.TypeOf(want[i].Event) != reflect.TypeOf(got[i].Event) {
			t.Fatalf("record %d: type %T, want %T", i, got[i].Event, want[i].Event)
		}
	}
}

// TestDecoderSkipsUnknown pins the compatibility rule: well-formed
// records with an unknown wire name or a newer codec version are
// passed over with a counter, and decoding continues.
func TestDecoderSkipsUnknown(t *testing.T) {
	recs := goldenRecords()
	var buf []byte
	var err error
	buf, err = AppendRecord(buf, recs[0])
	if err != nil {
		t.Fatal(err)
	}
	buf = appendRawFrame(buf, encodePayload(CodecVersion, "user-promoted", 2, []byte{0x01, 0x02}))
	buf = appendRawFrame(buf, encodePayload(CodecVersion+1, "user-added", 3, nil))
	buf, err = AppendRecord(buf, Record{Seq: 4, Event: recs[4].Event})
	if err != nil {
		t.Fatal(err)
	}

	dec := NewDecoder(bytes.NewReader(buf))
	var got []Record
	for {
		rec, derr := dec.Next()
		if derr == io.EOF {
			break
		}
		if derr != nil {
			t.Fatalf("decode: %v", derr)
		}
		got = append(got, rec)
	}
	if len(got) != 2 || got[0].Seq != 1 || got[1].Seq != 4 {
		t.Fatalf("decoded %v, want the two known records (seq 1, 4)", got)
	}
	if dec.Skipped() != 2 {
		t.Fatalf("Skipped() = %d, want 2", dec.Skipped())
	}
}

// TestDecoderForwardFields pins the other half of the rule: a body
// with fields appended after the ones this decoder knows decodes
// cleanly (the extras are ignored), and a body that ends early at a
// field boundary defaults the missing fields to zero.
func TestDecoderForwardFields(t *testing.T) {
	// follow-added with two extra appended fields.
	body := binary.AppendVarint(nil, 42)
	body = binary.AppendVarint(body, 7)
	body = binary.AppendUvarint(body, 999) // future field
	body = appendString(body, "future")    // future field
	frame := appendRawFrame(nil, encodePayload(CodecVersion, "follow-added", 1, body))

	// vote-cast missing its trailing downs field entirely.
	short := make([]byte, 12) // zero URLID
	short = binary.AppendVarint(short, 5)
	frame = appendRawFrame(frame, encodePayload(CodecVersion, "vote-cast", 2, short))

	dec := NewDecoder(bytes.NewReader(frame))
	rec, err := dec.Next()
	if err != nil {
		t.Fatalf("decode with appended fields: %v", err)
	}
	if ev, ok := rec.Event.(platform.FollowAdded); !ok || ev.From != 42 || ev.To != 7 {
		t.Fatalf("got %#v, want FollowAdded{42, 7}", rec.Event)
	}
	rec, err = dec.Next()
	if err != nil {
		t.Fatalf("decode with missing trailing field: %v", err)
	}
	if ev, ok := rec.Event.(platform.VoteCast); !ok || ev.Ups != 5 || ev.Downs != 0 {
		t.Fatalf("got %#v, want VoteCast{Ups: 5, Downs: 0}", rec.Event)
	}
}

// TestDecoderChecksum pins corruption detection: a flipped payload bit
// fails with ErrChecksum, not a silent misparse.
func TestDecoderChecksum(t *testing.T) {
	buf := mustEncodeAll(goldenRecords()[:1])
	buf[len(buf)-1] ^= 0x40
	if _, err := NewDecoder(bytes.NewReader(buf)).Next(); err != ErrChecksum {
		t.Fatalf("corrupted frame decoded with err=%v, want ErrChecksum", err)
	}
}

// TestDecoderLengthCostsItsBytes pins that a frame's length field
// bounds a read, not an allocation: a header claiming maxFrame and then
// EOF — a torn stream, or a torn WAL length — fails with
// io.ErrUnexpectedEOF having allocated about what arrived, whether the
// bytes come whole or one per Read. A real frame longer than the
// decoder's first chunk still decodes both ways.
func TestDecoderLengthCostsItsBytes(t *testing.T) {
	torn := binary.BigEndian.AppendUint32(nil, maxFrame)
	torn = binary.BigEndian.AppendUint32(torn, 0)
	long := Record{Seq: 1, Event: platform.CommentAdded{Comment: &platform.Comment{Text: string(bytes.Repeat([]byte("long "), 100_000))}}}
	frame, err := AppendRecord(nil, long)
	if err != nil {
		t.Fatal(err)
	}
	for name, wrap := range map[string]func(io.Reader) io.Reader{
		"whole":             func(r io.Reader) io.Reader { return r },
		"one byte per read": iotest.OneByteReader,
	} {
		dec := NewDecoder(wrap(bytes.NewReader(torn)))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := dec.Next()
		runtime.ReadMemStats(&after)
		if err != io.ErrUnexpectedEOF {
			t.Errorf("%s: a header claiming %d bytes, then EOF: err = %v, want io.ErrUnexpectedEOF", name, maxFrame, err)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
			t.Errorf("%s: a header claiming %d bytes, then EOF: allocated %d bytes", name, maxFrame, n)
		}

		rec, err := NewDecoder(wrap(bytes.NewReader(frame))).Next()
		if err != nil {
			t.Fatalf("%s: a %d-byte frame: %v", name, len(frame), err)
		}
		assertRecordsEqual(t, []Record{long}, []Record{rec})
	}
}

// encodePayload hand-builds a payload with an arbitrary version and
// name — the test's stand-in for a future writer.
func encodePayload(version byte, name string, seq uint64, body []byte) []byte {
	p := []byte{version}
	p = appendString(p, name)
	p = binary.AppendUvarint(p, seq)
	return append(p, body...)
}

func appendRawFrame(dst, payload []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.BigEndian.AppendUint32(dst, crc32.Checksum(payload, castagnoli))
	return append(dst, payload...)
}

// TestSnapshotRoundTrip pins the snapshot format: encode a checkpoint
// cut from a mutated store, decode it, rebuild, and compare stores via
// Validate + Census + re-encode.
func TestSnapshotRoundTrip(t *testing.T) {
	src := testStore(t)
	cp := src.Checkpoint()
	enc := EncodeSnapshot(cp)

	cp2, err := ReadSnapshot(bytes.NewReader(enc))
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	if cp2.Seq != cp.Seq {
		t.Fatalf("seq %d, want %d", cp2.Seq, cp.Seq)
	}
	enc2 := EncodeSnapshot(platform.FromCheckpoint(cp2).Checkpoint())
	if !bytes.Equal(enc, enc2) {
		t.Fatal("snapshot does not round-trip through FromCheckpoint")
	}
	restored := platform.FromCheckpoint(cp2)
	if err := restored.Validate(); err != nil {
		t.Fatalf("restored store invalid: %v", err)
	}
	if src.Census() != restored.Census() {
		t.Fatalf("census diverged: %+v vs %+v", src.Census(), restored.Census())
	}

	// Corruption is detected.
	bad := append([]byte(nil), enc...)
	bad[len(bad)/2] ^= 0x10
	if _, err := ReadSnapshot(bytes.NewReader(bad)); err == nil {
		t.Fatal("corrupted snapshot decoded without error")
	}
}

// testStore builds a small store through the write paths (so its state
// is stream-reproducible) and mutates every surface.
func testStore(t testing.TB) *platform.DB {
	t.Helper()
	db := platform.New(nil, nil, nil, nil)
	gen := ids.NewGenerator(0xD15C0)
	base := time.Unix(1_580_100_000, 0).UTC()
	var authors []ids.ObjectID
	for i := 1; i <= 8; i++ {
		u := &platform.User{
			GabID: ids.GabID(i), Username: "store-user-" + string(rune('a'+i)),
			HasDissenter: i%2 == 0, CreatedAt: base,
		}
		if u.HasDissenter {
			u.AuthorID = gen.NewAt(base)
			authors = append(authors, u.AuthorID)
		}
		db.AddUser(u)
	}
	for i := 0; i < 6; i++ {
		cu := &platform.CommentURL{
			ID:  gen.NewAt(base.Add(time.Duration(i) * time.Second)),
			URL: "https://example.test/p/" + string(rune('0'+i)), Ups: i, Downs: 6 - i,
			FirstSeen: base,
		}
		db.SubmitURL(cu)
		for j := 0; j <= i; j++ {
			db.AddComment(&platform.Comment{
				ID: gen.NewAt(base.Add(time.Minute)), URLID: cu.ID,
				AuthorID: authors[j%len(authors)], Text: "snapshot comment",
				CreatedAt: base.Add(time.Minute), NSFW: j%3 == 0, Offensive: j%4 == 0,
			})
		}
		db.Vote(cu.ID, i, 1)
	}
	db.AddFollow(1, 2)
	db.AddFollow(3, 2)
	db.AddFollow(2, 1)
	return db
}

// FuzzDecoder hammers the frame decoder with arbitrary bytes: it must
// reject or skip, never panic or over-allocate.
func FuzzDecoder(f *testing.F) {
	f.Add(mustEncodeAll(goldenRecords()))
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 4, 1, 2, 3, 4, 9, 9, 9, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		dec := NewDecoder(bytes.NewReader(data))
		for i := 0; i < 1000; i++ {
			if _, err := dec.Next(); err != nil {
				break
			}
		}
	})
}

// FuzzSnapshotDecode runs the one snapshot decoder over arbitrary
// bytes twice: from the whole slice, and one byte per Read the way a
// slow network delivers it. Both must reach the same verdict, never
// panic or over-allocate, and whatever they accept must re-encode to
// the same bytes — bytes that decode and re-encode to themselves.
func FuzzSnapshotDecode(f *testing.F) {
	f.Add(EncodeSnapshot(platform.Checkpoint{Seq: 3}))
	f.Add(EncodeSnapshot(testStore(f).Checkpoint()))
	f.Fuzz(func(t *testing.T, data []byte) {
		cp, err := ReadSnapshot(bytes.NewReader(data))
		slow, slowErr := ReadSnapshot(iotest.OneByteReader(bytes.NewReader(data)))
		if (err == nil) != (slowErr == nil) {
			t.Fatalf("verdicts differ: whole slice %v, one byte per read %v", err, slowErr)
		}
		if err != nil {
			return
		}
		enc := EncodeSnapshot(cp)
		if !bytes.Equal(enc, EncodeSnapshot(slow)) {
			t.Fatal("the two reads decoded different checkpoints")
		}
		again, err := ReadSnapshot(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("a re-encoded snapshot does not decode: %v", err)
		}
		if !bytes.Equal(enc, EncodeSnapshot(again)) {
			t.Fatal("encode∘decode is not idempotent")
		}
	})
}

// FuzzRoundTrip asserts the codec's round-trip law on whatever the
// decoder accepts from arbitrary bytes: every decoded record must
// re-encode successfully, the re-encoding must decode to the same
// record, and a second encode must reproduce the first's bytes
// (encode∘decode is idempotent). This is the property the WAL and the
// replication stream both lean on: a replica that decodes and
// re-persists a frame has not changed what any later reader sees.
func FuzzRoundTrip(f *testing.F) {
	f.Add(mustEncodeAll(goldenRecords()))
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 4, 1, 2, 3, 4, 9, 9, 9, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		dec := NewDecoder(bytes.NewReader(data))
		for i := 0; i < 1000; i++ {
			rec, err := dec.Next()
			if err != nil {
				break
			}
			enc, err := AppendRecord(nil, rec)
			if err != nil {
				t.Fatalf("decoded record %d does not re-encode: %v", i, err)
			}
			dec2 := NewDecoder(bytes.NewReader(enc))
			rec2, err := dec2.Next()
			if err != nil {
				t.Fatalf("re-encoded record %d does not decode: %v", i, err)
			}
			enc2, err := AppendRecord(nil, rec2)
			if err != nil {
				t.Fatalf("twice-decoded record %d does not re-encode: %v", i, err)
			}
			if !bytes.Equal(enc, enc2) {
				t.Fatalf("record %d: encode∘decode not idempotent\n first: %x\nsecond: %x", i, enc, enc2)
			}
		}
	})
}
