//go:build linux

package vfs

import (
	"io"
	"os"
	"runtime/debug"
	"syscall"
)

// mappedFile is an OSFS file that Mapped mapped PROT_READ, MAP_SHARED:
// ReadAt copies from the page cache with no system call. Everything
// but ReadAt and Close is the embedded osFile's, so Size still stats
// the descriptor and a file that grows after mapping keeps growing.
type mappedFile struct {
	osFile
	data []byte // the file's first len(data) bytes; nil once closed
}

// openMapped maps f if it is non-empty; an empty file, or one the
// kernel refuses to map, is served by pread as before.
func openMapped(f *os.File) File {
	st, err := f.Stat()
	if err != nil || st.Size() <= 0 || int64(int(st.Size())) != st.Size() {
		return osFile{f}
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(st.Size()), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return osFile{f}
	}
	return &mappedFile{osFile: osFile{f}, data: data}
}

// ReadAt copies the part of [off, off+len(p)) that lies inside the
// mapping and reads the rest — a tail appended after mapping — with
// pread. It keeps os.File's contract: a short read carries an error,
// io.EOF past the end of the file.
func (f *mappedFile) ReadAt(p []byte, off int64) (int, error) {
	if f.data == nil {
		return 0, os.ErrClosed
	}
	n := 0
	if off >= 0 && off < int64(len(f.data)) {
		var err error
		if n, err = f.copyMapped(p, off); err != nil || n == len(p) {
			return n, err
		}
	}
	m, err := f.File.ReadAt(p[n:], off+int64(n))
	return n + m, err
}

// copyMapped copies from the mapping at off. A page past the end of a
// file truncated since open raises SIGBUS; with panic-on-fault set the
// runtime turns it into a panic, recovered here into an error, so a
// shrunken table reads as a short, corrupt one instead of killing the
// process.
func (f *mappedFile) copyMapped(p []byte, off int64) (n int, err error) {
	old := debug.SetPanicOnFault(true)
	defer func() {
		debug.SetPanicOnFault(old)
		if recover() != nil {
			n, err = 0, io.ErrUnexpectedEOF
		}
	}()
	return copy(p, f.data[off:]), nil
}

// Close unmaps the file, then closes its descriptor. The engine closes
// a table's reader only once no pinned read state can reach it, so no
// read races the unmap.
func (f *mappedFile) Close() error {
	var err error
	if f.data != nil {
		err = syscall.Munmap(f.data)
		f.data = nil
	}
	if cerr := f.File.Close(); err == nil {
		err = cerr
	}
	return err
}
