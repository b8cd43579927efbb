package eventlog

import (
	"bytes"
	"encoding/binary"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"dissenter/internal/faultinject"
)

// TestWALRoundTrip pins the append → sync → reopen → replay cycle.
func TestWALRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal-0.wal")
	w, err := CreateWAL(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	recs := goldenRecords()
	for _, rec := range recs {
		if err := w.Append(rec); err != nil {
			t.Fatalf("Append(seq %d): %v", rec.Seq, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	var back []Record
	w2, skipped, err := OpenWALFS(faultinject.OS, path, func(rec Record) error {
		back = append(back, rec)
		return nil
	})
	if err != nil {
		t.Fatalf("OpenWALFS: %v", err)
	}
	defer w2.Close()
	if skipped != 0 {
		t.Fatalf("skipped %d records, want 0", skipped)
	}
	if w2.Base() != 0 || w2.LastSeq() != recs[len(recs)-1].Seq {
		t.Fatalf("reopened base=%d last=%d, want 0 and %d", w2.Base(), w2.LastSeq(), recs[len(recs)-1].Seq)
	}
	assertRecordsEqual(t, recs, back)

	// Appending after reopen continues the sequence.
	if err := w2.Append(Record{Seq: w2.LastSeq() + 1, Event: recs[4].Event}); err != nil {
		t.Fatalf("append after reopen: %v", err)
	}
	if err := w2.Append(Record{Seq: 99, Event: recs[4].Event}); err == nil {
		t.Fatal("sequence-gap append accepted")
	}
}

// TestWALTornTail pins crash recovery: a WAL whose last frame is cut
// short (or corrupted) reopens at the last whole record, truncating
// the tail, and keeps accepting appends from there.
func TestWALTornTail(t *testing.T) {
	recs := goldenRecords()
	for _, tc := range []struct {
		name string
		tear func([]byte) []byte
	}{
		{"cut-mid-payload", func(b []byte) []byte { return b[:len(b)-3] }},
		{"cut-mid-header", func(b []byte) []byte {
			last, _ := AppendRecord(nil, recs[len(recs)-1])
			return b[:len(b)-len(last)+5]
		}},
		{"bit-flip-in-last", func(b []byte) []byte {
			out := append([]byte(nil), b...)
			out[len(out)-2] ^= 0x80
			return out
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "wal-0.wal")
			w, err := CreateWAL(path, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, rec := range recs {
				if err := w.Append(rec); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			whole, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.tear(whole), 0o644); err != nil {
				t.Fatal(err)
			}

			var back []Record
			w2, _, err := OpenWALFS(faultinject.OS, path, func(rec Record) error {
				back = append(back, rec)
				return nil
			})
			if err != nil {
				t.Fatalf("OpenWALFS on torn file: %v", err)
			}
			wantLast := recs[len(recs)-2].Seq
			if w2.LastSeq() != wantLast {
				t.Fatalf("recovered through seq %d, want %d (last whole record)", w2.LastSeq(), wantLast)
			}
			assertRecordsEqual(t, recs[:len(recs)-1], back)

			// The torn bytes are gone and the log extends cleanly.
			if err := w2.Append(Record{Seq: wantLast + 1, Event: recs[len(recs)-1].Event}); err != nil {
				t.Fatalf("append after recovery: %v", err)
			}
			if err := w2.Close(); err != nil {
				t.Fatal(err)
			}
			var again []Record
			w3, _, err := OpenWALFS(faultinject.OS, path, func(rec Record) error {
				again = append(again, rec)
				return nil
			})
			if err != nil {
				t.Fatalf("second reopen: %v", err)
			}
			w3.Close()
			if len(again) != len(recs) {
				t.Fatalf("after recovery+append replay saw %d records, want %d", len(again), len(recs))
			}
		})
	}
}

// TestWALSkipsUnknownRecords pins version tolerance at the file level:
// an unknown event type in the middle of a WAL advances the cursor
// (counted) without failing the open or stopping the replay.
func TestWALSkipsUnknownRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal-0.wal")
	w, err := CreateWAL(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	recs := goldenRecords()
	if err := w.Append(recs[0]); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Splice in a future-typed record at seq 2, then a known one at 3.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	raw := appendRawFrame(nil, encodePayload(CodecVersion, "user-promoted", 2, []byte{1}))
	known, err := AppendRecord(nil, Record{Seq: 3, Event: recs[4].Event})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(append(raw, known...)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var back []Record
	w2, skipped, err := OpenWALFS(faultinject.OS, path, func(rec Record) error {
		back = append(back, rec)
		return nil
	})
	if err != nil {
		t.Fatalf("OpenWALFS: %v", err)
	}
	defer w2.Close()
	if skipped != 1 {
		t.Fatalf("skipped = %d, want 1", skipped)
	}
	if len(back) != 2 || back[0].Seq != 1 || back[1].Seq != 3 {
		t.Fatalf("replayed %v, want seqs 1 and 3", back)
	}
	if w2.LastSeq() != 3 {
		t.Fatalf("LastSeq = %d, want 3", w2.LastSeq())
	}
}

// FuzzWALOpen opens a WAL of the golden records with arbitrary bytes
// appended — where FuzzDecoder sees only a verdict, this sees where a
// torn tail is cut. Unless the bytes hold a sequence gap, the open must
// replay the golden records first and leave the file ending on a frame
// boundary; a second open must replay the same records, reach the same
// sequence point and truncate nothing; and the log must take the next
// append.
func FuzzWALOpen(f *testing.F) {
	recs := goldenRecords()
	golden := mustEncodeAll(recs)
	next, err := AppendRecord(nil, Record{Seq: 7, Event: recs[4].Event})
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{})
	f.Add(next)
	f.Add(next[:len(next)-3])
	f.Add(append(appendRawFrame(nil, encodePayload(CodecVersion, "user-promoted", 7, nil)), 0, 0))
	f.Add(binary.BigEndian.AppendUint64(nil, (maxFrame+1)<<32))
	f.Fuzz(func(t *testing.T, tail []byte) {
		path := filepath.Join(t.TempDir(), "wal-0.wal")
		if err := os.WriteFile(path, slices.Concat(walHeader(0), golden, tail), 0o644); err != nil {
			t.Fatal(err)
		}
		open := func() (*WAL, []Record, error) {
			var back []Record
			w, _, err := OpenWALFS(faultinject.OS, path, func(rec Record) error {
				back = append(back, rec)
				return nil
			})
			return w, back, err
		}
		w, first, err := open()
		if err != nil {
			if strings.Contains(err.Error(), "sequence gap") {
				return
			}
			t.Fatalf("OpenWALFS: %v", err)
		}
		if len(first) < len(recs) {
			t.Fatalf("replayed %d records, want the %d golden ones first", len(first), len(recs))
		}
		assertRecordsEqual(t, recs, first[:len(recs)])
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(b)) != w.Size() {
			t.Fatalf("the file holds %d bytes, the WAL counts %d", len(b), w.Size())
		}
		dec := NewDecoder(bytes.NewReader(b[len(walHeader(0)):]))
		for err == nil {
			_, err = dec.Next()
		}
		if err != io.EOF {
			t.Fatalf("the opened file does not end on a frame boundary: %v", err)
		}

		w2, second, err := open()
		if err != nil {
			t.Fatalf("second open: %v", err)
		}
		defer w2.Close()
		if w2.Size() != w.Size() || w2.LastSeq() != w.LastSeq() {
			t.Fatalf("second open: %d bytes through seq %d, the first left %d through %d", w2.Size(), w2.LastSeq(), w.Size(), w.LastSeq())
		}
		assertRecordsEqual(t, first, second)
		if err := w2.Append(Record{Seq: w2.LastSeq() + 1, Event: recs[4].Event}); err != nil {
			t.Fatalf("append at %d: %v", w2.LastSeq()+1, err)
		}
	})
}
