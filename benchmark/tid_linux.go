//go:build linux

package main

import "syscall"

// threadID is the kernel id of the calling thread. Go offers no
// goroutine identity, so the tracer pins a goroutine to its thread for
// the length of one engine call and uses this to tell which request a
// filesystem call underneath belongs to (about 120 ns).
func threadID() int64 {
	r, _, _ := syscall.RawSyscall(syscall.SYS_GETTID, 0, 0, 0)
	return int64(r)
}
