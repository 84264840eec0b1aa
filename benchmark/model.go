package main

import (
	"bytes"
	"encoding/binary"
	"sync/atomic"
)

// The harness's model of what the store must hold. Every value is a
// pure function of (key index, per-key version), and carries both, so
// any value read back can be checked without remembering it.

const (
	keyLen   = 16 // workload.Key: "user" + 12 digits
	valueLen = 100
)

// appendKey appends workload.Key(i) without allocating.
func appendKey(dst []byte, i int64) []byte {
	var d [12]byte
	for p := 11; p >= 0; p-- {
		d[p] = byte('0' + i%10)
		i /= 10
	}
	dst = append(dst, 'u', 's', 'e', 'r')
	return append(dst, d[:]...)
}

// parseKey inverts appendKey on the 16 bytes at the end of k (a tenant
// prefix may precede them).
func parseKey(k []byte) (int64, bool) {
	if len(k) < keyLen {
		return 0, false
	}
	k = k[len(k)-keyLen:]
	if string(k[:4]) != "user" {
		return 0, false
	}
	var i int64
	for _, c := range k[4:] {
		if c < '0' || c > '9' {
			return 0, false
		}
		i = i*10 + int64(c-'0')
	}
	return i, true
}

// fillValue writes the value of key idx at version ver into dst
// (valueLen bytes): the two numbers, then a xorshift stream seeded by
// them.
func fillValue(dst []byte, idx, ver uint32) {
	binary.LittleEndian.PutUint32(dst[0:], ver)
	binary.LittleEndian.PutUint32(dst[4:], idx)
	x := (uint64(idx)<<32 | uint64(ver)) ^ 0x9e3779b97f4a7c15
	for off := 8; off < valueLen; off += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if off+8 <= valueLen {
			binary.LittleEndian.PutUint64(dst[off:], x)
		} else {
			var t [8]byte
			binary.LittleEndian.PutUint64(t[:], x)
			copy(dst[off:], t[:])
		}
	}
}

// checkValue reports the version v carries when v is exactly the value
// of key idx at that version.
func checkValue(v []byte, idx uint32, scratch *[valueLen]byte) (ver uint32, ok bool) {
	if len(v) != valueLen || binary.LittleEndian.Uint32(v[4:]) != idx {
		return 0, false
	}
	ver = binary.LittleEndian.Uint32(v[0:])
	fillValue(scratch[:], idx, ver)
	return ver, bytes.Equal(v, scratch[:])
}

// keyState is one key's state in the model: version<<1 | deleted.
// Version 0 means never written.
type keyState uint32

func mkState(ver uint32, deleted bool) keyState {
	s := keyState(ver << 1)
	if deleted {
		s |= 1
	}
	return s
}

func (s keyState) ver() uint32 { return uint32(s >> 1) }

// live reports whether a reader at exactly this state finds the key.
func (s keyState) live() bool { return s>>1 != 0 && s&1 == 0 }

// versions is the shared model of a store written by several
// goroutines. Each key has one writer (the goroutine that owns it),
// which publishes the state it is about to write in pend before the
// call and in acked after it returns. A concurrent reader loads acked
// before its read and pend after it; what it saw must lie between.
type versions struct {
	acked []atomic.Uint32
	pend  []atomic.Uint32
}

func newVersions(n int, initial keyState) *versions {
	m := &versions{acked: make([]atomic.Uint32, n), pend: make([]atomic.Uint32, n)}
	for i := range m.acked {
		m.acked[i].Store(uint32(initial))
		m.pend[i].Store(uint32(initial))
	}
	return m
}

// consistent reports whether reading key idx and getting (found, value)
// is explained by some state between before and after, inclusive. Both
// bounds belong to the same single-writer history, so the versions in
// between are before.ver()+1 … after.ver()-1; whether those were puts
// or deletes is not recorded, so they explain either outcome.
func consistent(idx uint32, found bool, value []byte, before, after keyState, scratch *[valueLen]byte) bool {
	gap := after.ver() > before.ver()+1
	if !found {
		return !before.live() || !after.live() || gap
	}
	ver, ok := checkValue(value, idx, scratch)
	if !ok || ver < before.ver() || ver > after.ver() {
		return false
	}
	if ver == before.ver() && !before.live() {
		return false
	}
	if ver == after.ver() && !after.live() {
		return false
	}
	return true
}
