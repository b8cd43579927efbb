package eventlog

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"

	"dissenter/internal/faultinject"
)

// WALVersion is the WAL header layout version.
const WALVersion = 1

var walMagic = [4]byte{'D', 'W', 'A', 'L'}

// errBadWALHeader marks a file whose header never became whole — a
// crash or fault inside CreateWAL before its sync. Such a file never
// accepted an append, so recovery may skip past it to an older WAL.
var errBadWALHeader = errors.New("WAL header never completed")

// WAL is an append-only record file: a header naming the base sequence
// point, then the frames base+1, base+2, ... in order. Appends are
// buffered; Sync flushes and fsyncs, the group-commit edge the
// Persister batches on. A WAL is single-writer; it has no internal
// locking.
type WAL struct {
	path string
	f    faultinject.File
	w    *bufio.Writer
	base uint64
	last uint64
	size int64 // header plus every whole frame appended or recovered
	buf  []byte
}

func walHeader(base uint64) []byte {
	dst := append([]byte(nil), walMagic[:]...)
	dst = append(dst, WALVersion)
	return binary.AppendUvarint(dst, base)
}

// CreateWAL creates a fresh WAL at path starting after sequence point
// base, with the header already durable. An existing file at path is
// replaced (a crashed rotation can leave one behind).
func CreateWAL(path string, base uint64) (*WAL, error) {
	return CreateWALFS(faultinject.OS, path, base)
}

// CreateWALFS is CreateWAL through an injectable filesystem.
func CreateWALFS(fsys faultinject.FS, path string, base uint64) (*WAL, error) {
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	hdr := walHeader(base)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		fsys.Remove(path)
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fsys.Remove(path)
		return nil, err
	}
	return &WAL{path: path, f: f, w: bufio.NewWriter(f), base: base, last: base, size: int64(len(hdr))}, nil
}

// OpenWALFS opens an existing WAL through fsys, replaying every
// decodable record (in sequence order, contiguity enforced) through
// apply, and truncating any torn tail — a partial frame or one failing
// its checksum — at the last whole record, which is where a crashed
// append stopped. The returned WAL is positioned for appending. apply
// may be nil (scan without replay: the Persister resuming a log the
// store already restored). Records whose event type or codec version
// is unknown advance the sequence cursor but are not applied; the
// second result reports how many.
func OpenWALFS(fsys faultinject.FS, path string, apply func(Record) error) (*WAL, int, error) {
	b, err := fsys.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	hdr := walHeader(0)
	if len(b) < len(hdr)-1 || [4]byte(b[:4]) != walMagic {
		return nil, 0, fmt.Errorf("eventlog: %s: not a WAL file: %w", path, errBadWALHeader)
	}
	if ver := b[4]; ver == 0 || ver > WALVersion {
		return nil, 0, fmt.Errorf("eventlog: %s: unknown WAL version %d", path, ver)
	}
	base, n := binary.Uvarint(b[5:])
	if n <= 0 {
		return nil, 0, fmt.Errorf("eventlog: %s: malformed WAL header: %w", path, errBadWALHeader)
	}
	off := 5 + n

	last := base
	skipped := 0
	good := off // end of the last whole, valid record
	for off < len(b) {
		if len(b)-off < 8 {
			break // torn frame header
		}
		length := binary.BigEndian.Uint32(b[off:])
		sum := binary.BigEndian.Uint32(b[off+4:])
		if length > maxFrame || len(b)-off-8 < int(length) {
			break // implausible or torn payload
		}
		payload := b[off+8 : off+8+int(length)]
		if crc32.Checksum(payload, castagnoli) != sum {
			break // torn write caught by the checksum
		}
		rec, known, err := decodePayload(payload)
		if err != nil {
			break // checksummed-but-malformed: treat as tail corruption
		}
		if rec.Seq != last+1 {
			return nil, skipped, fmt.Errorf("eventlog: %s: sequence gap: record %d after %d", path, rec.Seq, last)
		}
		if known && apply != nil {
			if err := apply(rec); err != nil {
				return nil, skipped, err
			}
		}
		if !known {
			skipped++
		}
		last = rec.Seq
		off += 8 + int(length)
		good = off
	}

	f, err := fsys.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, skipped, err
	}
	if good < len(b) {
		if err := f.Truncate(int64(good)); err != nil {
			f.Close()
			return nil, skipped, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, skipped, err
		}
	}
	if _, err := f.Seek(int64(good), 0); err != nil {
		f.Close()
		return nil, skipped, err
	}
	return &WAL{path: path, f: f, w: bufio.NewWriter(f), base: base, last: last, size: int64(good)}, skipped, nil
}

// Base returns the sequence point the WAL starts after.
func (w *WAL) Base() uint64 { return w.base }

// LastSeq returns the sequence number of the last appended (or
// recovered) record — base when the WAL is empty.
func (w *WAL) LastSeq() uint64 { return w.last }

// Size returns the WAL's length in bytes, buffered appends included —
// what the Persister weighs against the snapshot's size to decide a
// rotation.
func (w *WAL) Size() int64 { return w.size }

// Path returns the WAL's file path.
func (w *WAL) Path() string { return w.path }

// Append buffers one record. Records must arrive in contiguous
// sequence order; the record is not durable until Sync returns.
func (w *WAL) Append(rec Record) error {
	if rec.Seq != w.last+1 {
		return fmt.Errorf("eventlog: append sequence gap: record %d after %d", rec.Seq, w.last)
	}
	var err error
	w.buf, err = AppendRecord(w.buf[:0], rec)
	if err != nil {
		return err
	}
	if _, err := w.w.Write(w.buf); err != nil {
		return err
	}
	w.last = rec.Seq
	w.size += int64(len(w.buf))
	return nil
}

// Sync flushes buffered appends and fsyncs the file: the group-commit
// barrier. After Sync returns, every appended record survives a crash.
func (w *WAL) Sync() error {
	if err := w.w.Flush(); err != nil {
		return err
	}
	return w.f.Sync()
}

// Close flushes, fsyncs, and closes the file.
func (w *WAL) Close() error {
	if err := w.Sync(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// abort closes the file handle without flushing — the recovery path
// after a failed append or sync, where the buffered writer may hold a
// sticky error and a torn tail is repaired by reopening.
func (w *WAL) abort() {
	w.f.Close()
}
