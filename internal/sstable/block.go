// Package sstable implements the immutable sorted files of the LSM tree
// (tutorial §2.1.1 C). A table is a sequence of 4 KiB prefix-compressed
// data blocks, followed by a fence-pointer index block (the smallest and
// largest key of every block, realized as per-block separator keys), an
// optional Bloom filter block, an optional range-tombstone block, a
// properties block, and a fixed-size footer. Every block is a sealed
// record of internal/record: its bytes followed by their CRC-32C.
package sstable

import (
	"encoding/binary"
	"errors"
	"fmt"

	"lsmlab/internal/kv"
	"lsmlab/internal/record"
)

// DefaultBlockSize is the target uncompressed size of a data block. It
// matches vfs.PageSize so that one block read is one device page read.
const DefaultBlockSize = 4096

// restartInterval is the number of entries between restart points in a
// block. Keys between restarts are delta-encoded against their
// predecessor.
const restartInterval = 16

// ErrCorrupt is returned when a block or footer fails validation.
var ErrCorrupt = errors.New("sstable: corrupt table")

// blockBuilder assembles one block: entries with shared-prefix
// compression, a restart array, and a CRC trailer.
type blockBuilder struct {
	buf      []byte
	restarts []uint32
	counter  int
	lastKey  []byte
	nEntries int
}

func (b *blockBuilder) reset() {
	b.buf = b.buf[:0]
	b.restarts = b.restarts[:0]
	b.counter = 0
	b.lastKey = b.lastKey[:0]
	b.nEntries = 0
}

func (b *blockBuilder) empty() bool { return b.nEntries == 0 }

// estimatedSize returns the serialized size of the block so far.
func (b *blockBuilder) estimatedSize() int {
	return len(b.buf) + 4*len(b.restarts) + 8
}

func sharedPrefixLen(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// add appends an entry. Keys must arrive in ascending order.
func (b *blockBuilder) add(key, value []byte) {
	shared := 0
	if b.counter < restartInterval && b.nEntries > 0 {
		shared = sharedPrefixLen(b.lastKey, key)
	} else {
		b.restarts = append(b.restarts, uint32(len(b.buf)))
		b.counter = 0
	}
	b.buf = binary.AppendUvarint(b.buf, uint64(shared))
	b.buf = binary.AppendUvarint(b.buf, uint64(len(key)-shared))
	b.buf = binary.AppendUvarint(b.buf, uint64(len(value)))
	b.buf = append(b.buf, key[shared:]...)
	b.buf = append(b.buf, value...)
	b.lastKey = append(b.lastKey[:0], key...)
	b.counter++
	b.nEntries++
}

// finish serializes the block: payload, restart array, restart count,
// sealed with its CRC. The returned slice aliases the builder and is
// invalidated by reset.
func (b *blockBuilder) finish() []byte {
	if len(b.restarts) == 0 {
		b.restarts = append(b.restarts, 0)
	}
	for _, r := range b.restarts {
		b.buf = binary.LittleEndian.AppendUint32(b.buf, r)
	}
	b.buf = record.Seal(binary.LittleEndian.AppendUint32(b.buf, uint32(len(b.restarts))))
	return b.buf
}

// block is a parsed, validated block ready for iteration.
type block struct {
	data     []byte // entry payload only
	restarts []uint32
}

// decodeBlock validates the CRC and parses the restart array into a
// new block.
func decodeBlock(raw []byte) (*block, error) {
	b := new(block)
	if err := decodeBlockInto(b, raw); err != nil {
		return nil, err
	}
	return b, nil
}

// decodeBlockInto is decodeBlock into b, reusing its restart array. On
// error b is left empty, never holding a previous block's restarts.
func decodeBlockInto(b *block, raw []byte) error {
	b.data, b.restarts = nil, b.restarts[:0]
	if len(raw) < 12 {
		return fmt.Errorf("%w: block too short (%d bytes)", ErrCorrupt, len(raw))
	}
	payload, ok := record.Unseal(raw)
	if !ok {
		return fmt.Errorf("%w: block checksum mismatch", ErrCorrupt)
	}
	nRestarts := int(binary.LittleEndian.Uint32(payload[len(payload)-4:]))
	restartsEnd := len(payload) - 4
	restartsStart := restartsEnd - 4*nRestarts
	if nRestarts <= 0 || restartsStart < 0 {
		return fmt.Errorf("%w: bad restart count %d", ErrCorrupt, nRestarts)
	}
	if cap(b.restarts) < nRestarts {
		b.restarts = make([]uint32, 0, nRestarts)
	}
	for i := 0; i < nRestarts; i++ {
		r := binary.LittleEndian.Uint32(payload[restartsStart+4*i:])
		if int(r) > restartsStart {
			b.restarts = b.restarts[:0]
			return fmt.Errorf("%w: restart offset out of range", ErrCorrupt)
		}
		b.restarts = append(b.restarts, r)
	}
	b.data = payload[:restartsStart]
	return nil
}

// blockIterator iterates the entries of one block.
type blockIterator struct {
	b      *block
	offset int // offset of current entry
	next   int // offset just past current entry
	key    []byte
	value  []byte
	valid  bool
	err    error
}

func newBlockIterator(b *block) *blockIterator {
	return &blockIterator{b: b}
}

// reset repoints the iterator at another block, keeping the key
// scratch's capacity so repeated lookups through one iterator value
// stop allocating once the buffer has grown to the working key length.
func (it *blockIterator) reset(b *block) {
	it.b = b
	it.offset = 0
	it.next = 0
	it.key = it.key[:0]
	it.value = nil
	it.valid = false
	it.err = nil
}

// readEntryAt decodes the entry at off, using it.key as the
// delta-decoding context (it must hold the previous key unless off is a
// restart point, where shared is 0). It is the per-entry hot loop, so it
// decodes inline rather than through record.Decoder, comparing lengths
// as uint64 so no prefix can overflow an int.
func (it *blockIterator) readEntryAt(off int) bool {
	data := it.b.data
	if off >= len(data) {
		it.valid = false
		return false
	}
	shared, n1 := binary.Uvarint(data[off:])
	if n1 <= 0 {
		it.corrupt()
		return false
	}
	unshared, n2 := binary.Uvarint(data[off+n1:])
	if n2 <= 0 {
		it.corrupt()
		return false
	}
	valLen, n3 := binary.Uvarint(data[off+n1+n2:])
	if n3 <= 0 {
		it.corrupt()
		return false
	}
	keyStart := off + n1 + n2 + n3
	if rest := uint64(len(data) - keyStart); shared > uint64(len(it.key)) || unshared > rest || valLen > rest-unshared {
		it.corrupt()
		return false
	}
	valStart := keyStart + int(unshared)
	end := valStart + int(valLen)
	it.key = append(it.key[:shared], data[keyStart:valStart]...)
	it.value = data[valStart:end]
	it.offset = off
	it.next = end
	it.valid = true
	return true
}

func (it *blockIterator) corrupt() {
	it.valid = false
	it.err = fmt.Errorf("%w: bad block entry", ErrCorrupt)
}

func (it *blockIterator) First() bool {
	it.key = it.key[:0]
	return it.readEntryAt(0)
}

func (it *blockIterator) Next() bool {
	if !it.valid {
		return false
	}
	return it.readEntryAt(it.next)
}

// SeekGE binary-searches the restart array, then scans forward.
func (it *blockIterator) SeekGE(ikey []byte) bool {
	// Find the last restart whose key is < ikey.
	lo, hi := 0, len(it.b.restarts)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		it.key = it.key[:0]
		if !it.readEntryAt(int(it.b.restarts[mid])) {
			return false
		}
		if kv.Compare(it.key, ikey) < 0 {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	it.key = it.key[:0]
	if !it.readEntryAt(int(it.b.restarts[lo])) {
		return false
	}
	for kv.Compare(it.key, ikey) < 0 {
		if !it.Next() {
			return false
		}
	}
	return true
}

func (it *blockIterator) Valid() bool   { return it.valid }
func (it *blockIterator) Key() []byte   { return it.key }
func (it *blockIterator) Value() []byte { return it.value }
func (it *blockIterator) Close() error  { return it.err }
