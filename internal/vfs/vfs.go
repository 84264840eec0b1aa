// Package vfs provides the filesystem abstraction beneath the storage
// engine. Two implementations exist: MemFS, a deterministic in-memory
// filesystem used by tests and experiments, and OSFS, a thin wrapper
// over the operating system.
//
// The package also provides CountingFS, which wraps any FS and accounts
// for I/O at page (4 KiB) granularity, and an optional latency model
// that accumulates *simulated* device time instead of sleeping. The
// tutorial's experimental claims are about I/O counts and read/write
// amplification; the counting layer is what lets every experiment report
// them exactly and deterministically.
package vfs

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// PageSize is the granularity at which CountingFS accounts I/O
// operations, matching the block size used by the SSTable format.
const PageSize = 4096

// ErrNotExist is returned when a named file does not exist.
var ErrNotExist = errors.New("vfs: file does not exist")

// ErrExist is returned when creating a file that already exists with
// CreateExcl semantics (not currently used by Create, which truncates).
var ErrExist = errors.New("vfs: file already exists")

// ErrNoSpace is the portable out-of-space condition. Fault-injection
// wrappers (faultfs byte budgets) wrap it so the engine can classify a
// failed write as disk-full without depending on the injector; OS-level
// ENOSPC is classified separately via syscall.ENOSPC.
var ErrNoSpace = errors.New("vfs: no space left on device")

// File is an open file handle. Writers append sequentially (the engine
// only ever writes immutable files front to back); readers use ReadAt.
type File interface {
	io.ReaderAt
	io.Writer
	io.Closer
	// Sync flushes buffered writes to stable storage.
	Sync() error
	// Size returns the current size of the file in bytes.
	Size() (int64, error)
}

// FS is the filesystem interface the engine is written against.
type FS interface {
	// Create creates (or truncates) a file for writing.
	Create(name string) (File, error)
	// Append opens a file for appending, creating it if absent.
	Append(name string) (File, error)
	// Open opens an existing file for reading.
	Open(name string) (File, error)
	// Remove deletes a file.
	Remove(name string) error
	// Rename atomically renames a file, replacing any existing target.
	Rename(oldname, newname string) error
	// List returns the names (not paths) of files in dir, sorted.
	List(dir string) ([]string, error)
	// MkdirAll creates dir and any missing parents.
	MkdirAll(dir string) error
	// Exists reports whether the named file exists.
	Exists(name string) bool
}

// ---------------------------------------------------------------------
// MemFS

// MemFS is a concurrency-safe in-memory filesystem. It is the substrate
// for all experiments: deterministic, fast, and wrappable with I/O
// accounting.
type MemFS struct {
	mu    sync.RWMutex
	files map[string]*memFileData
	dirs  map[string]bool
	// syncDelayNs, when non-zero, makes every File.Sync block for that
	// long (a real sleep). It models device fsync latency so durability
	// optimizations — group commit amortizing one sync across many
	// writers — are measurable without a physical disk.
	syncDelayNs atomic.Int64
}

// SetSyncDelay makes subsequent Sync calls on files of this filesystem
// block for d. Zero (the default) restores free syncs.
func (fs *MemFS) SetSyncDelay(d time.Duration) { fs.syncDelayNs.Store(int64(d)) }

type memFileData struct {
	mu   sync.RWMutex
	data []byte
}

// NewMem returns an empty in-memory filesystem.
func NewMem() *MemFS {
	return &MemFS{files: make(map[string]*memFileData), dirs: map[string]bool{".": true, "/": true}}
}

func clean(name string) string { return filepath.Clean(name) }

// Create implements FS.
func (fs *MemFS) Create(name string) (File, error) {
	name = clean(name)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fd := &memFileData{}
	fs.files[name] = fd
	return &memFile{fs: fs, fd: fd, writable: true}, nil
}

// Append implements FS.
func (fs *MemFS) Append(name string) (File, error) {
	name = clean(name)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fd, ok := fs.files[name]
	if !ok {
		fd = &memFileData{}
		fs.files[name] = fd
	}
	return &memFile{fs: fs, fd: fd, writable: true}, nil
}

// Open implements FS.
func (fs *MemFS) Open(name string) (File, error) {
	name = clean(name)
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	fd, ok := fs.files[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotExist, name)
	}
	return &memFile{fs: fs, fd: fd}, nil
}

// Remove implements FS.
func (fs *MemFS) Remove(name string) error {
	name = clean(name)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.files[name]; !ok {
		return fmt.Errorf("%w: %s", ErrNotExist, name)
	}
	delete(fs.files, name)
	return nil
}

// Rename implements FS.
func (fs *MemFS) Rename(oldname, newname string) error {
	oldname, newname = clean(oldname), clean(newname)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fd, ok := fs.files[oldname]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotExist, oldname)
	}
	delete(fs.files, oldname)
	fs.files[newname] = fd
	return nil
}

// List implements FS.
func (fs *MemFS) List(dir string) ([]string, error) {
	dir = clean(dir)
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	var names []string
	for name := range fs.files {
		if filepath.Dir(name) == dir {
			names = append(names, filepath.Base(name))
		}
	}
	sort.Strings(names)
	return names, nil
}

// MkdirAll implements FS.
func (fs *MemFS) MkdirAll(dir string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.dirs[clean(dir)] = true
	return nil
}

// Exists implements FS.
func (fs *MemFS) Exists(name string) bool {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	_, ok := fs.files[clean(name)]
	return ok
}

// TotalBytes returns the sum of all file sizes: the store's disk
// footprint, used to measure space amplification.
func (fs *MemFS) TotalBytes() int64 {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	var total int64
	for _, fd := range fs.files {
		fd.mu.RLock()
		total += int64(len(fd.data))
		fd.mu.RUnlock()
	}
	return total
}

type memFile struct {
	fs       *MemFS
	fd       *memFileData
	writable bool
	closed   bool
}

func (f *memFile) Write(p []byte) (int, error) {
	if f.closed {
		return 0, errors.New("vfs: write on closed file")
	}
	if !f.writable {
		return 0, errors.New("vfs: file opened read-only")
	}
	f.fd.mu.Lock()
	d := f.fd.data
	if need := len(d) + len(p); need > cap(d) {
		// Grow by doubling rather than append's large-slice growth
		// factor: WAL segments take hundreds of thousands of small
		// appends, and fewer reallocations means far less copying and
		// garbage while the commit pipeline holds the WAL lock.
		newCap := 2 * cap(d)
		if newCap < need {
			newCap = need
		}
		if newCap < 4096 {
			newCap = 4096
		}
		nd := make([]byte, len(d), newCap)
		copy(nd, d)
		d = nd
	}
	f.fd.data = append(d, p...)
	f.fd.mu.Unlock()
	return len(p), nil
}

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	if f.closed {
		return 0, errors.New("vfs: read on closed file")
	}
	f.fd.mu.RLock()
	defer f.fd.mu.RUnlock()
	if off >= int64(len(f.fd.data)) {
		return 0, io.EOF
	}
	n := copy(p, f.fd.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *memFile) Size() (int64, error) {
	f.fd.mu.RLock()
	defer f.fd.mu.RUnlock()
	return int64(len(f.fd.data)), nil
}

func (f *memFile) Sync() error {
	if d := f.fs.syncDelayNs.Load(); d > 0 {
		time.Sleep(time.Duration(d))
	}
	return nil
}
func (f *memFile) Close() error {
	f.closed = true
	return nil
}

// ---------------------------------------------------------------------
// OSFS

// OSFS is the operating-system filesystem.
type OSFS struct{}

// NewOS returns a filesystem backed by the operating system.
func NewOS() OSFS { return OSFS{} }

type osFile struct{ *os.File }

func (f osFile) Size() (int64, error) {
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// Create implements FS.
func (OSFS) Create(name string) (File, error) {
	f, err := os.Create(name)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

// Append implements FS.
func (OSFS) Append(name string) (File, error) {
	f, err := os.OpenFile(name, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

// Open implements FS.
func (OSFS) Open(name string) (File, error) {
	f, err := os.Open(name)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("%w: %s", ErrNotExist, name)
		}
		return nil, err
	}
	return osFile{f}, nil
}

// Mapped returns f served from a read-only mapping made now, if f is a
// non-empty OSFS file and the platform maps files
// (Linux, mmap_linux.go): ReadAt is then a copy from the page cache
// rather than a pread. Any other file — a MemFS or wrapped file, an
// empty one, or one the kernel refuses to map — is returned as is.
// Mapping costs a stat, an mmap and, at Close, a munmap, so it pays
// only for a file that is read many times while open: the engine maps
// its table readers and nothing else.
func Mapped(f File) File {
	if of, ok := f.(osFile); ok {
		return openMapped(of.File)
	}
	return f
}

// Remove implements FS.
func (OSFS) Remove(name string) error { return os.Remove(name) }

// Rename implements FS.
func (OSFS) Rename(oldname, newname string) error { return os.Rename(oldname, newname) }

// List implements FS.
func (OSFS) List(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// MkdirAll implements FS.
func (OSFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

// Exists implements FS.
func (OSFS) Exists(name string) bool {
	_, err := os.Stat(name)
	return err == nil
}

// WriteFileAtomic makes name hold exactly data, durably and all or
// nothing: it writes name.tmp, syncs it and renames it over name. A
// crash may leave a stale name.tmp, which the next call truncates.
func WriteFileAtomic(fs FS, name string, data []byte) error {
	f, err := fs.Create(name + ".tmp")
	if err != nil {
		return err
	}
	if len(data) > 0 {
		_, err = f.Write(data)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fs.Rename(name+".tmp", name)
	}
	return err
}

// Join joins path elements with the platform separator; provided here so
// callers need not import path/filepath alongside vfs.
func Join(elem ...string) string { return filepath.Join(elem...) }

// Base returns the last element of the path.
func Base(p string) string { return filepath.Base(p) }
