package wal

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"path/filepath"
	"sync"
)

// ErrCrashed is returned by every MemFS operation after a simulated
// crash point has been reached, until Restart.
var ErrCrashed = errors.New("wal: simulated crash")

// MemFS is an in-memory FS with a deliberately strict durability
// model, used to prove the WAL protocol loses nothing a crash
// is allowed to take:
//
//   - File content becomes durable only when File.Sync returns. Writes
//     since the last Sync are lost on crash.
//   - A namespace change (Create, OpenAppend-create, Rename, Remove)
//     becomes durable only when SyncDir on the containing directory
//     returns. File.Sync alone does NOT persist a new name — stricter
//     than most real filesystems, so a protocol that passes here does
//     not depend on ext4 being forgiving.
//   - Rename is atomic: a crash observes the old or the new binding.
//
// Fault injection: CrashAfterOps(k) makes the k-th subsequent mutating
// operation (and everything after it) fail with ErrCrashed; Restart
// then reverts the filesystem to its durable state, like a process
// restart after power loss. SetHook intercepts every mutating
// operation and may fail it; ShortWriteNext makes the next Write
// persist only a prefix before failing. MemFS is safe for concurrent
// use.
type MemFS struct {
	mu      sync.Mutex
	live    map[string]*memInode
	durable map[string]*memInode
	gen     int // bumped on Restart; stale handles fail

	ops       int // mutating operations executed so far
	crashAt   int // crash before executing op #crashAt; -1 = disabled
	crashed   bool
	hook      func(op, name string, n int) error
	shortKeep int // pending ShortWriteNext prefix length; -1 = none
}

type memInode struct {
	data   []byte // live content
	synced []byte // content as of the last File.Sync
}

// NewMemFS returns an empty in-memory filesystem.
func NewMemFS() *MemFS {
	return &MemFS{
		live:      make(map[string]*memInode),
		durable:   make(map[string]*memInode),
		crashAt:   -1,
		shortKeep: -1,
	}
}

// CrashAfterOps schedules a crash: the n-th mutating operation from
// now (0 = the very next one) fails with ErrCrashed, as does everything
// after it. A negative n disables a pending crash.
func (m *MemFS) CrashAfterOps(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if n < 0 {
		m.crashAt = -1
		return
	}
	m.crashAt = m.ops + n
}

// Crash triggers the crash point immediately.
func (m *MemFS) Crash() { m.CrashAfterOps(0) }

// Crashed reports whether the crash point has been reached.
func (m *MemFS) Crashed() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.crashed
}

// Restart reverts the filesystem to its durable state — what a process
// restart after power loss would observe — clears the crash, and
// invalidates every open handle.
func (m *MemFS) Restart() {
	m.mu.Lock()
	defer m.mu.Unlock()
	fresh := make(map[string]*memInode, len(m.durable))
	for name, ino := range m.durable {
		b := append([]byte(nil), ino.synced...)
		fresh[name] = &memInode{data: b, synced: append([]byte(nil), b...)}
	}
	m.durable = fresh
	m.live = make(map[string]*memInode, len(fresh))
	for name, ino := range fresh {
		m.live[name] = ino
	}
	m.crashed = false
	m.crashAt = -1
	m.gen++
}

// Ops returns the number of mutating operations executed so far; run a
// scenario once uncrashed to size an exhaustive crash-at-every-op loop.
func (m *MemFS) Ops() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ops
}

// SetHook installs a fault hook consulted before every mutating
// operation (op is "create", "append", "write", "sync", "rename",
// "remove", or "syncdir"; n is the operation's index). A non-nil
// return fails the operation with that error. nil uninstalls.
func (m *MemFS) SetHook(hook func(op, name string, n int) error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.hook = hook
}

// ShortWriteNext makes the next Write persist only its first keep
// bytes and then fail with io.ErrShortWrite — a torn append.
func (m *MemFS) ShortWriteNext(keep int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.shortKeep = keep
}

// step gates one mutating operation: crash accounting, then the hook.
// Called with m.mu held.
func (m *MemFS) step(op, name string) error {
	if m.crashed {
		return ErrCrashed
	}
	n := m.ops
	m.ops++
	if m.crashAt >= 0 && n >= m.crashAt {
		m.crashed = true
		return ErrCrashed
	}
	if m.hook != nil {
		if err := m.hook(op, name, n); err != nil {
			return err
		}
	}
	return nil
}

func (m *MemFS) MkdirAll(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return ErrCrashed
	}
	return nil
}

func (m *MemFS) ReadFile(name string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return nil, ErrCrashed
	}
	ino, ok := m.live[filepath.Clean(name)]
	if !ok {
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
	}
	return append([]byte(nil), ino.data...), nil
}

func (m *MemFS) Create(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.step("create", name); err != nil {
		return nil, err
	}
	name = filepath.Clean(name)
	ino := &memInode{}
	m.live[name] = ino
	return &memFile{fs: m, name: name, ino: ino, gen: m.gen}, nil
}

func (m *MemFS) OpenAppend(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.step("append", name); err != nil {
		return nil, err
	}
	name = filepath.Clean(name)
	ino, ok := m.live[name]
	if !ok {
		ino = &memInode{}
		m.live[name] = ino
	}
	return &memFile{fs: m, name: name, ino: ino, gen: m.gen}, nil
}

func (m *MemFS) Rename(oldname, newname string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.step("rename", oldname); err != nil {
		return err
	}
	oldname, newname = filepath.Clean(oldname), filepath.Clean(newname)
	ino, ok := m.live[oldname]
	if !ok {
		return &fs.PathError{Op: "rename", Path: oldname, Err: fs.ErrNotExist}
	}
	m.live[newname] = ino
	delete(m.live, oldname)
	return nil
}

func (m *MemFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.step("remove", name); err != nil {
		return err
	}
	name = filepath.Clean(name)
	if _, ok := m.live[name]; !ok {
		return &fs.PathError{Op: "remove", Path: name, Err: fs.ErrNotExist}
	}
	delete(m.live, name)
	return nil
}

func (m *MemFS) SyncDir(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.step("syncdir", dir); err != nil {
		return err
	}
	dir = filepath.Clean(dir)
	// The durable namespace for dir becomes the live one. Content
	// durability is still governed by File.Sync: crash recovery reads
	// each durable inode's last-synced bytes, whenever that sync ran.
	for name := range m.durable {
		if filepath.Dir(name) == dir {
			if _, ok := m.live[name]; !ok {
				delete(m.durable, name)
			}
		}
	}
	for name, ino := range m.live {
		if filepath.Dir(name) == dir {
			m.durable[name] = ino
		}
	}
	return nil
}

type memFile struct {
	fs     *MemFS
	name   string
	ino    *memInode
	gen    int
	closed bool
}

func (f *memFile) check() error {
	if f.closed {
		return fmt.Errorf("wal: %s: file already closed", f.name)
	}
	if f.gen != f.fs.gen {
		return fmt.Errorf("wal: %s: stale handle across restart", f.name)
	}
	return nil
}

func (f *memFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if err := f.check(); err != nil {
		return 0, err
	}
	if err := f.fs.step("write", f.name); err != nil {
		return 0, err
	}
	if keep := f.fs.shortKeep; keep >= 0 {
		f.fs.shortKeep = -1
		if keep > len(p) {
			keep = len(p)
		}
		f.ino.data = append(f.ino.data, p[:keep]...)
		return keep, io.ErrShortWrite
	}
	f.ino.data = append(f.ino.data, p...)
	return len(p), nil
}

func (f *memFile) Sync() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if err := f.check(); err != nil {
		return err
	}
	if err := f.fs.step("sync", f.name); err != nil {
		return err
	}
	f.ino.synced = append(f.ino.synced[:0], f.ino.data...)
	return nil
}

func (f *memFile) Close() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.closed {
		return fmt.Errorf("wal: %s: file already closed", f.name)
	}
	f.closed = true
	return nil
}
