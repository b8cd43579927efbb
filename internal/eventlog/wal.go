package eventlog

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
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
// apply, and truncating any torn tail — a frame cut short, failing its
// checksum, too long or malformed — at the last whole record, which is
// where a crashed append stopped. Any other read error fails the open
// and truncates nothing. The returned WAL is positioned for appending.
// apply may be nil (scan without replay: the Persister resuming a log
// the store already restored). Records whose event type or codec
// version is unknown advance the sequence cursor but are not applied;
// the second result reports how many.
func OpenWALFS(fsys faultinject.FS, path string, apply func(Record) error) (w *WAL, skipped int, err error) {
	f, err := fsys.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, 0, err
	}
	defer func() {
		if err != nil {
			f.Close()
		}
	}()
	// The header is read through the frames' Decoder; Peek answers a
	// file shorter than it asks for with what there is and io.EOF.
	dec := NewDecoder(f)
	hdr, err := dec.r.Peek(len(walMagic) + 1 + binary.MaxVarintLen64)
	if err != nil && err != io.EOF {
		return nil, 0, fmt.Errorf("eventlog: opening %s: %w", path, err)
	}
	if len(hdr) <= len(walMagic) || [4]byte(hdr) != walMagic {
		return nil, 0, fmt.Errorf("eventlog: %s: not a WAL file: %w", path, errBadWALHeader)
	}
	if ver := hdr[4]; ver == 0 || ver > WALVersion {
		return nil, 0, fmt.Errorf("eventlog: %s: unknown WAL version %d", path, ver)
	}
	base, n := binary.Uvarint(hdr[5:])
	if n <= 0 {
		return nil, 0, fmt.Errorf("eventlog: %s: malformed WAL header: %w", path, errBadWALHeader)
	}
	dec.r.Discard(5 + n)
	dec.off = int64(5 + n)

	// A skipped record advances the cursor as it does for a replica.
	var applied uint64
	rec, err := dec.Next()
	for ; err == nil; rec, err = dec.Next() {
		if cur := base + applied + uint64(dec.Skipped()); rec.Seq != cur+1 {
			return nil, 0, fmt.Errorf("eventlog: %s: sequence gap: record %d after %d", path, rec.Seq, cur)
		}
		if apply != nil {
			if err := apply(rec); err != nil {
				return nil, 0, err
			}
		}
		applied++
	}
	switch {
	case err == io.EOF:
		err = nil
	case err == io.ErrUnexpectedEOF || err == ErrChecksum || errors.Is(err, errMalformed):
		// A torn tail; any other error is the disk's, not a crash's.
		if err = f.Truncate(dec.off); err == nil {
			err = f.Sync()
		}
	}
	if err == nil {
		_, err = f.Seek(dec.off, io.SeekStart)
	}
	if err != nil {
		return nil, 0, fmt.Errorf("eventlog: opening %s: %w", path, err)
	}
	skipped = dec.Skipped()
	return &WAL{path: path, f: f, w: bufio.NewWriter(f), base: base, last: base + applied + uint64(skipped), size: dec.off}, skipped, nil
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
