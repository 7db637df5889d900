// Package wal implements the durability layer of a reconciliation
// session: an append-only write-ahead log of the session's whole
// operation history — expert assertions and topology ops — with
// CRC32C/length framing, torn-write-tolerant recovery, and the atomic
// file primitive (write-sync-rename-syncdir) a log is rewritten with
// when it must be healed. The serving layer (schemanet.SessionStore)
// owns the replay; this package owns the bytes.
//
// Everything goes through the FS seam so tests can inject failures —
// a failed sync, a short write, a crash between any two filesystem
// operations — and prove that no acknowledged assertion is ever lost.
// See DESIGN.md, "Durability".
package wal

import (
	"io"
	"os"
)

// FS is the filesystem seam the WAL and the session store write
// through. OS() returns the real implementation; NewMemFS returns the
// fault-injection double used by the crash tests.
//
// Durability contract (matched by the strict MemFS model, and the
// reason SyncDir exists): bytes written to a File survive a crash only
// after File.Sync returns; a Create, Rename, or Remove survives a crash
// only after SyncDir on the containing directory returns. Rename is
// atomic: after a crash the name refers to either the old or the new
// content, never a mixture.
type FS interface {
	// MkdirAll creates dir and any missing parents.
	MkdirAll(dir string) error
	// ReadFile returns the full content of name, or an error
	// satisfying os.IsNotExist when it does not exist.
	ReadFile(name string) ([]byte, error)
	// Create opens name for writing, truncating it if it exists.
	Create(name string) (File, error)
	// OpenAppend opens name for appending, creating it if missing.
	OpenAppend(name string) (File, error)
	// Rename atomically replaces newname with oldname.
	Rename(oldname, newname string) error
	// Remove deletes name; removing a missing file is an error
	// satisfying os.IsNotExist.
	Remove(name string) error
	// SyncDir makes the directory's entries (creations, renames,
	// removals) durable.
	SyncDir(dir string) error
}

// File is a writable file handle.
type File interface {
	io.Writer
	// Sync makes the file's content durable.
	Sync() error
	io.Closer
}

// OS returns the real filesystem.
func OS() FS { return osFS{} }

type osFS struct{}

func (osFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (osFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

func (osFS) Create(name string) (File, error) {
	return os.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
}

func (osFS) OpenAppend(name string) (File, error) {
	return os.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}

func (osFS) Rename(oldname, newname string) error { return os.Rename(oldname, newname) }

func (osFS) Remove(name string) error { return os.Remove(name) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
