package core

import (
	"sync/atomic"

	"lsmlab/internal/bloom"
)

// keyFilter is the register-blocked Bloom filter of one write buffer:
// each key sets four bits inside one 64-bit word, so a probe loads a
// single word. Bits are set with atomics while readers probe, and never
// cleared; a buffer's filter lives and dies with the buffer.
type keyFilter []atomic.Uint64

// newKeyFilter sizes a filter for a buffer of bufferBytes: one bit per
// 8 bytes, rounded up to a power of two of words. At the default 1 MiB
// that is 2 048 words, about 20 bits per key for the ~6 400 entries a
// full buffer of 100-byte values holds.
func newKeyFilter(bufferBytes int) keyFilter {
	words := 1
	for words*64*8 < bufferBytes {
		words <<= 1
	}
	return make(keyFilter, words)
}

// bufferKeyHash remixes a key's bloom.Hash64 before it indexes a buffer
// filter. The shard router picks a shard by Hash64 % N, so inside one
// shard the raw hash's low bits are fixed and would leave part of the
// words unused.
func bufferKeyHash(h uint64) uint64 { return bloom.Rehash(h, 0) }

// slot returns the word a remixed hash h indexes and the four bits it
// sets there: the word from the low bits, the bits from the top 24.
func (f keyFilter) slot(h uint64) (*atomic.Uint64, uint64) {
	mask := uint64(1)<<(h>>40&63) | uint64(1)<<(h>>46&63) |
		uint64(1)<<(h>>52&63) | uint64(1)<<(h>>58)
	return &f[h&uint64(len(f)-1)], mask
}

// add sets the bits of the remixed hash h. A word that already holds
// the bits is left unwritten, so re-adding a hot key does not bounce the
// word's cache line between cores.
func (f keyFilter) add(h uint64) {
	w, mask := f.slot(h)
	if w.Load()&mask != mask {
		w.Or(mask)
	}
}

// mayContain reports whether a key with remixed hash h may have been
// added; false means it certainly was not.
func (f keyFilter) mayContain(h uint64) bool {
	w, mask := f.slot(h)
	return w.Load()&mask == mask
}
