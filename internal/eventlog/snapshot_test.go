package eventlog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"testing/iotest"

	"dissenter/internal/benchkit"
	"dissenter/internal/faultinject"
	"dissenter/internal/platform"
	"dissenter/internal/synth"
)

// oneByteWriter accepts a single byte per call and reports no error:
// the short write io.Writer forbids and real writers still commit.
type oneByteWriter struct{ buf bytes.Buffer }

func (w *oneByteWriter) Write(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	w.buf.WriteByte(p[0])
	return 1, nil
}

// TestWriteSnapshotMatchesEncode pins the one encoder from both ends:
// streamed and in-memory output are the same bytes, those bytes are
// the golden file the parent's materialising encoder wrote (so
// directories move between the two builds in either direction), a
// writer that takes one byte per call loses nothing, and a writer that
// fails mid-stream surfaces its error and leaves no snapshot behind.
func TestWriteSnapshotMatchesEncode(t *testing.T) {
	cp := testStore(t).Checkpoint()
	enc := EncodeSnapshot(cp)
	golden := filepath.Join("testdata", "snapshot_v1.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, enc, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(enc, want) {
		t.Fatalf("EncodeSnapshot diverged from the golden file: %d bytes vs %d", len(enc), len(want))
	}

	var buf bytes.Buffer
	n, err := WriteSnapshot(&buf, cp)
	if err != nil || n != int64(buf.Len()) || !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("WriteSnapshot = (%d, %v) with %d bytes written, want the golden %d", n, err, buf.Len(), len(want))
	}

	// A writer that takes less than it was given ends the stream with
	// an error, never with a silently truncated snapshot.
	short := &oneByteWriter{}
	if _, err := WriteSnapshot(short, cp); !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("WriteSnapshot through a one-byte writer = %v, want io.ErrShortWrite", err)
	}
	if !bytes.HasPrefix(want, short.buf.Bytes()) {
		t.Fatal("a one-byte writer received bytes that are not a prefix of the snapshot")
	}

	// A snapshot larger than the encoder's buffer, failing on its second
	// write: the file write reports it and removes its tmp file.
	big := synth.Generate(synth.NewConfig(1.0/512, 1)).DB.Checkpoint()
	boom := errors.New("mid-stream fault")
	inj := faultinject.NewInjector(
		faultinject.Rule{Op: faultinject.OpWrite, Path: ".snap", After: 1, Err: boom},
	)
	dir := t.TempDir()
	if _, err := writeSnapshotFile(inj.FS(nil), dir, big); !errors.Is(err, boom) {
		t.Fatalf("writeSnapshotFile = %v, want the injected fault", err)
	}
	if inj.FireCount(faultinject.OpWrite) != 1 {
		t.Fatal("the snapshot fit one write: the fault never fired mid-stream")
	}
	if left, _ := os.ReadDir(dir); len(left) != 0 {
		t.Fatalf("a failed snapshot write left %v behind", left)
	}
	size, err := writeSnapshotFile(faultinject.OS, dir, big)
	if err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(snapPath(dir, big.Seq)); err != nil || st.Size() != size {
		t.Fatalf("writeSnapshotFile reported %d bytes, file has %v (%v)", size, st, err)
	}
}

// TestReadSnapshotRejects pins the decoder's verdicts on damaged
// streams: a cut at every byte — every section boundary among them —
// both as it stands and with a checksum recomputed over what is left,
// so structure alone must catch it; every byte flipped; a byte past the
// checksum. And since the decoder meets every count before it meets the
// checksum, a header may claim 2^40 entities in any count position: it
// must fail where its bytes end, having allocated about what those
// bytes cost (the reader's 64 kB buffer plus records), not what the
// count claimed.
func TestReadSnapshotRejects(t *testing.T) {
	cp := testStore(t).Checkpoint()
	enc := EncodeSnapshot(cp)
	body := enc[:len(enc)-4]
	reject := func(what string, b []byte) {
		t.Helper()
		if _, err := ReadSnapshot(bytes.NewReader(b)); err == nil {
			t.Errorf("%s: accepted", what)
		}
	}
	for cut := range body {
		reject(fmt.Sprintf("cut at %d of %d", cut, len(enc)), enc[:cut])
		resummed := binary.BigEndian.AppendUint32(slices.Clone(body[:cut]), crc32.Checksum(body[:cut], castagnoli))
		reject(fmt.Sprintf("cut at %d with its checksum", cut), resummed)
	}
	for i := range enc {
		flipped := slices.Clone(enc)
		flipped[i] ^= 0x20
		reject(fmt.Sprintf("byte %d flipped", i), flipped)
	}
	reject("a byte past the checksum", append(slices.Clone(enc), 0))

	head := slices.Concat(snapMagic[:], []byte{SnapshotVersion, 0})
	huge := binary.AppendUvarint(nil, 1<<40)
	c := appendComment(nil, cp.Comments[0])
	comment := append(binary.AppendUvarint(nil, uint64(len(c))), c...)
	for what, claim := range map[string][]byte{
		"users":           slices.Concat(head, huge),
		"urls":            slices.Concat(head, []byte{0}, huge),
		"comments":        slices.Concat(head, []byte{0, 0}, huge, comment, comment, comment),
		"follow sources":  slices.Concat(head, []byte{0, 0, 0}, huge, []byte{2, 0, 4, 0}),
		"one follow list": slices.Concat(head, []byte{0, 0, 0, 1, 2}, huge, []byte{4, 6, 8}),
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadSnapshot(bytes.NewReader(claim))
		runtime.ReadMemStats(&after)
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("2^40 %s in %d bytes: err = %v, want io.ErrUnexpectedEOF", what, len(claim), err)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 256<<10 {
			t.Errorf("2^40 %s in %d bytes: allocated %d bytes", what, len(claim), n)
		}
	}
}

// TestFromCheckpointReencodes is the oracle for the restore path: the
// (1/512, seed 33) corpus decoded by ReadSnapshot and rebuilt by
// FromCheckpoint — whose New builds its indexes on goroutines of their
// own — re-encodes to the snapshot it came from, and its trends and
// leaderboard views, rebuilt side by side, rank exactly as the source
// store's do. Run it under -race -count=10 after touching either.
func TestFromCheckpointReencodes(t *testing.T) {
	src := synth.Generate(synth.NewConfig(1.0/512, 33)).DB
	enc := EncodeSnapshot(src.Checkpoint())
	cp, err := ReadSnapshot(iotest.HalfReader(bytes.NewReader(enc)))
	if err != nil {
		t.Fatal(err)
	}
	restored := platform.FromCheckpoint(cp)
	if !bytes.Equal(EncodeSnapshot(restored.Checkpoint()), enc) {
		t.Fatal("FromCheckpoint(ReadSnapshot(s)) does not re-encode to s")
	}
	for _, v := range [][2]bool{{false, false}, {true, false}, {false, true}, {true, true}} {
		if !reflect.DeepEqual(restored.TopTrends(v[0], v[1]), src.TopTrends(v[0], v[1])) {
			t.Errorf("trends (nsfw %v, offensive %v) differ after the restore", v[0], v[1])
		}
	}
	if !reflect.DeepEqual(restored.Leaderboard(), src.Leaderboard()) {
		t.Error("the leaderboard differs after the restore")
	}
}

var snapshotSink int64

// BenchmarkWriteSnapshot streams the default-scale corpus to a writer
// that discards it: the encoder alone, no disk. The allocation count
// is the budget (`make bench-budget`, SNAPSHOT_ALLOCS_BUDGET via
// BENCH_SNAPSHOT_MAX_ALLOCS): a snapshot allocates its buffers and
// nothing per entity, where the materialising encoder it replaced
// allocated two objects for every user, URL and comment.
func BenchmarkWriteSnapshot(b *testing.B) {
	cp := synth.Generate(synth.NewConfig(synth.DefaultScale, 1)).DB.Checkpoint()
	size, err := WriteSnapshot(io.Discard, cp)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(size)
	b.ReportAllocs()
	allocs := testing.AllocsPerRun(1, func() { snapshotSink, _ = WriteSnapshot(io.Discard, cp) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snapshotSink, _ = WriteSnapshot(io.Discard, cp)
	}
	b.StopTimer()
	if max, ok := benchkit.EnvBudget(b, "BENCH_SNAPSHOT_MAX_ALLOCS"); ok && allocs > max {
		b.Fatalf("a snapshot of %d entities allocates %.0f objects, budget %v — the encoder allocates per entity again",
			len(cp.Users)+len(cp.URLs)+len(cp.Comments), allocs, max)
	}
}
