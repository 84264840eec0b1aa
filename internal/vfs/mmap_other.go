//go:build !linux

package vfs

import "os"

// openMapped serves reads with pread: the read-only mapping Mapped
// makes on Linux (mmap_linux.go) is not built on other platforms.
func openMapped(f *os.File) File { return osFile{f} }
