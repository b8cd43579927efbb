package faultinject

import (
	"io"
	iofs "io/fs"
	"os"
	"syscall"
)

// ErrNoSpace is the conventional injected disk-full error. It is the
// real ENOSPC errno, so code that classifies errors with errors.Is
// sees exactly what a full disk would produce.
var ErrNoSpace error = syscall.ENOSPC

// File is the per-file surface the durability layer writes through:
// the subset of *os.File that eventlog's WAL and snapshot paths use.
type File interface {
	io.Reader
	io.Writer
	io.Seeker
	io.Closer
	// Sync fsyncs the file — the group-commit barrier.
	Sync() error
	// Truncate cuts the file to size (torn-tail repair on open).
	Truncate(size int64) error
}

// FS is the filesystem surface the durability layer goes through. OS
// is the real implementation; Injector.FS wraps any FS with a fault
// schedule.
type FS interface {
	OpenFile(name string, flag int, perm iofs.FileMode) (File, error)
	ReadDir(name string) ([]iofs.DirEntry, error)
	Stat(name string) (iofs.FileInfo, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	RemoveAll(path string) error
	MkdirAll(path string, perm iofs.FileMode) error
}

// OS is the passthrough FS over the real filesystem.
var OS FS = osFS{}

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm iofs.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}
func (osFS) ReadDir(name string) ([]iofs.DirEntry, error)   { return os.ReadDir(name) }
func (osFS) Stat(name string) (iofs.FileInfo, error)        { return os.Stat(name) }
func (osFS) Rename(oldpath, newpath string) error           { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                       { return os.Remove(name) }
func (osFS) RemoveAll(path string) error                    { return os.RemoveAll(path) }
func (osFS) MkdirAll(path string, perm iofs.FileMode) error { return os.MkdirAll(path, perm) }

// faultFS wraps a base FS with an injector's schedule.
type faultFS struct {
	inj  *Injector
	base FS
}

// FS wraps base so every operation consults the injector's schedule
// first. A fired rule's Delay is slept before the operation; a fired
// rule's Err preempts it entirely.
func (inj *Injector) FS(base FS) FS {
	if base == nil {
		base = OS
	}
	return &faultFS{inj: inj, base: base}
}

func (f *faultFS) OpenFile(name string, flag int, perm iofs.FileMode) (File, error) {
	if err := f.inj.gate(OpOpen, name); err != nil {
		return nil, err
	}
	file, err := f.base.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{inj: f.inj, name: name, f: file}, nil
}

func (f *faultFS) ReadDir(name string) ([]iofs.DirEntry, error) {
	if err := f.inj.gate(OpOpen, name); err != nil {
		return nil, err
	}
	return f.base.ReadDir(name)
}

func (f *faultFS) Stat(name string) (iofs.FileInfo, error) {
	if err := f.inj.gate(OpOpen, name); err != nil {
		return nil, err
	}
	return f.base.Stat(name)
}

func (f *faultFS) Rename(oldpath, newpath string) error {
	if err := f.inj.gate(OpRename, oldpath); err != nil {
		return err
	}
	return f.base.Rename(oldpath, newpath)
}

func (f *faultFS) Remove(name string) error {
	if err := f.inj.gate(OpRemove, name); err != nil {
		return err
	}
	return f.base.Remove(name)
}

func (f *faultFS) RemoveAll(path string) error {
	if err := f.inj.gate(OpRemove, path); err != nil {
		return err
	}
	return f.base.RemoveAll(path)
}

func (f *faultFS) MkdirAll(path string, perm iofs.FileMode) error {
	if err := f.inj.gate(OpMkdir, path); err != nil {
		return err
	}
	return f.base.MkdirAll(path, perm)
}

// faultFile threads per-call faults through one open file.
type faultFile struct {
	inj  *Injector
	name string
	f    File
}

func (f *faultFile) Read(p []byte) (int, error) {
	if err := f.inj.gate(OpRead, f.name); err != nil {
		return 0, err
	}
	return f.f.Read(p)
}

// Write consults the schedule: a ShortWrite rule lands the first half
// of the buffer on the underlying file — a torn frame, exactly what a
// crash mid-write leaves — and then reports the rule's error.
func (f *faultFile) Write(p []byte) (int, error) {
	d := f.inj.check(OpWrite, f.name)
	d.sleep()
	if d.err != nil {
		if d.short && len(p) > 0 {
			n, werr := f.f.Write(p[:len(p)/2])
			if werr != nil {
				return n, werr
			}
			return n, d.err
		}
		return 0, d.err
	}
	return f.f.Write(p)
}

func (f *faultFile) Seek(offset int64, whence int) (int64, error) {
	return f.f.Seek(offset, whence)
}

func (f *faultFile) Sync() error {
	if err := f.inj.gate(OpSync, f.name); err != nil {
		return err
	}
	return f.f.Sync()
}

func (f *faultFile) Truncate(size int64) error {
	if err := f.inj.gate(OpTruncate, f.name); err != nil {
		return err
	}
	return f.f.Truncate(size)
}

func (f *faultFile) Close() error { return f.f.Close() }
