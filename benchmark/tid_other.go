//go:build !linux

package main

// threadID has no portable implementation; without it every filesystem
// span is recorded as background work (see tid_linux.go).
func threadID() int64 { return -1 }
