// Package wal implements the write-ahead log that makes the in-memory
// buffer durable (tutorial §2.1.1 A: batched ingestion). Writes are
// grouped into batches; each batch is framed as
//
//	length (4 bytes LE) | crc32c (4 bytes LE) | payload
//
// and the payload encodes a base sequence number followed by the
// batch's operations. Recovery replays complete records and stops at
// the first torn or corrupt frame, which is the correct crash semantics
// for a log whose tail write may have been interrupted.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"lsmlab/internal/kv"
	"lsmlab/internal/vfs"
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt reports a damaged (non-tail) log structure.
var ErrCorrupt = errors.New("wal: corrupt record")

// Op is one operation within a batch.
type Op struct {
	Kind  kv.Kind
	Key   []byte
	Value []byte // end key for KindRangeDelete; value-log pointer for KindValuePointer
}

// Batch is an atomic group of operations sharing consecutive sequence
// numbers starting at Seq.
type Batch struct {
	Seq kv.SeqNum
	Ops []Op
}

// LastSeq returns the sequence number of the batch's final operation —
// the value a replication cursor resumes after.
func (b *Batch) LastSeq() kv.SeqNum { return b.Seq + kv.SeqNum(len(b.Ops)) - 1 }

// appendFrame encodes the batch's frame (header + payload) onto buf and
// returns the extended slice. The length and CRC are backfilled once the
// payload is in place, so a group of batches can be framed into one
// contiguous buffer without intermediate allocations.
func (b *Batch) appendFrame(buf []byte) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0) // header placeholder
	buf = binary.AppendUvarint(buf, uint64(b.Seq))
	buf = binary.AppendUvarint(buf, uint64(len(b.Ops)))
	for _, op := range b.Ops {
		buf = append(buf, byte(op.Kind))
		buf = binary.AppendUvarint(buf, uint64(len(op.Key)))
		buf = append(buf, op.Key...)
		buf = binary.AppendUvarint(buf, uint64(len(op.Value)))
		buf = append(buf, op.Value...)
	}
	payload := buf[start+8:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(payload, crcTable))
	return buf
}

func decodeBatch(payload []byte) (Batch, error) {
	var b Batch
	seq, off := binary.Uvarint(payload)
	if off <= 0 {
		return b, ErrCorrupt
	}
	b.Seq = kv.SeqNum(seq)
	count, n := binary.Uvarint(payload[off:])
	if n <= 0 {
		return b, ErrCorrupt
	}
	off += n
	// An op is at least three bytes (kind + two length prefixes), so a
	// count the payload cannot hold is damage, not a reason to allocate.
	if count > uint64(len(payload)-off)/3 {
		return b, ErrCorrupt
	}
	b.Ops = make([]Op, 0, count)
	for i := uint64(0); i < count; i++ {
		if off >= len(payload) {
			return b, ErrCorrupt
		}
		op := Op{Kind: kv.Kind(payload[off])}
		off++
		for _, dst := range []*[]byte{&op.Key, &op.Value} {
			l, n := binary.Uvarint(payload[off:])
			if n <= 0 || l > uint64(len(payload)-off-n) {
				return b, ErrCorrupt
			}
			off += n
			*dst = append([]byte(nil), payload[off:off+int(l)]...)
			off += int(l)
		}
		b.Ops = append(b.Ops, op)
	}
	return b, nil
}

// DecodeFrame verifies and decodes one complete framed batch (header +
// payload) exactly as it sits in a log segment. The replication
// receiver runs every shipped frame through it, so the follower trusts
// the leader's original checksum, not the network's. Any damage — a
// short frame, a length or CRC mismatch, an undecodable payload — is
// ErrCorrupt.
func DecodeFrame(frame []byte) (Batch, error) {
	if len(frame) < 8 {
		return Batch{}, ErrCorrupt
	}
	length := int(binary.LittleEndian.Uint32(frame[:4]))
	if len(frame) != 8+length {
		return Batch{}, ErrCorrupt
	}
	payload := frame[8:]
	if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(frame[4:8]) {
		return Batch{}, ErrCorrupt
	}
	return decodeBatch(payload)
}

// Writer appends batches to a log file. A Writer is not safe for
// concurrent use; the engine's commit pipeline guarantees one appender
// at a time (the group leader).
type Writer struct {
	f       vfs.File
	offset  int64
	scratch []byte // reusable frame buffer for Append/AppendGroup
}

// scratchCap bounds the retained frame buffer: a pathological group
// (huge values) should not pin its peak size forever.
const scratchCap = 4 << 20

// NewWriter returns a Writer appending to f.
func NewWriter(f vfs.File) *Writer { return &Writer{f: f} }

// Append frames and writes one batch, returning the bytes written.
func (w *Writer) Append(b *Batch) (int, error) {
	return w.AppendGroup([]*Batch{b})
}

// AppendGroup frames every batch of a commit group into one contiguous
// buffer and writes it with a single Write call — the group-commit I/O
// coalescing step. Each batch keeps its own frame (length | crc |
// payload), so crash recovery remains atomic per batch: a torn group
// write loses only the un-framed suffix, never a framed prefix batch.
func (w *Writer) AppendGroup(batches []*Batch) (int, error) {
	buf := w.scratch[:0]
	for _, b := range batches {
		buf = b.appendFrame(buf)
	}
	if cap(buf) <= scratchCap {
		w.scratch = buf[:0]
	} else {
		w.scratch = nil
	}
	n, err := w.f.Write(buf)
	w.offset += int64(n)
	return n, err
}

// Sync flushes the log to stable storage.
func (w *Writer) Sync() error { return w.f.Sync() }

// Size returns the bytes appended so far.
func (w *Writer) Size() int64 { return w.offset }

// Replay reads every complete batch from the log file, invoking fn for
// each in order. A torn tail (truncated or corrupt final record) ends
// replay without error; corruption before the tail is reported.
func Replay(f vfs.File, fn func(Batch) error) error {
	size, err := f.Size()
	if err != nil {
		return err
	}
	var off int64
	hdr := make([]byte, 8)
	for off < size {
		if size-off < 8 {
			return nil // torn header at tail
		}
		if _, err := f.ReadAt(hdr, off); err != nil && err != io.EOF {
			return err
		}
		length := int64(binary.LittleEndian.Uint32(hdr[:4]))
		wantCRC := binary.LittleEndian.Uint32(hdr[4:8])
		if off+8+length > size {
			return nil // torn payload at tail
		}
		payload := make([]byte, length)
		if _, err := f.ReadAt(payload, off+8); err != nil && err != io.EOF {
			return err
		}
		if crc32.Checksum(payload, crcTable) != wantCRC {
			// A bad CRC on the final record is a torn tail; earlier it is
			// real corruption.
			if off+8+length == size {
				return nil
			}
			return fmt.Errorf("%w at offset %d", ErrCorrupt, off)
		}
		batch, err := decodeBatch(payload)
		if err != nil {
			return fmt.Errorf("%w at offset %d: %v", ErrCorrupt, off, err)
		}
		if err := fn(batch); err != nil {
			return err
		}
		off += 8 + length
	}
	return nil
}
