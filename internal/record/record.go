// Package record owns every decision about bytes at rest: the one
// CRC-32C table, the two checksummed shapes every durable file and
// block is built from, the one loop that walks a log of frames, and the
// one decoder payloads are read with.
//
// A framed record, the unit of an append-only log (WAL, MANIFEST, value
// log), is
//
//	length u32 LE | crc32c(payload) u32 LE | payload
//
// and a sealed record, a whole file or block written at once (SHARDS,
// REPL, sstable blocks), is
//
//	payload | crc32c(payload) u32 LE
//
// What a damaged log tail means is the caller's decision: Scan and
// ReadFrame report which of four cases they hit and leave the torn-tail
// rule to the call site.
package record

import (
	"encoding/binary"
	"hash/crc32"
	"io"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func checksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// HeaderLen is the size of a frame's length and checksum header.
const HeaderLen = 8

// StartFrame appends a header placeholder to buf. The caller appends
// the payload after it and then calls FinishFrame on the frame's bytes,
// so a frame is encoded in place with no copy.
func StartFrame(buf []byte) []byte { return append(buf, 0, 0, 0, 0, 0, 0, 0, 0) }

// FinishFrame fills in the header of frame — the bytes from a
// StartFrame on — with the length and checksum of the payload after it.
func FinishFrame(frame []byte) {
	payload := frame[HeaderLen:]
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], checksum(payload))
}

// Unframe returns the payload of frame, which must be exactly one whole
// frame whose checksum matches; ok is false otherwise.
func Unframe(frame []byte) (payload []byte, ok bool) {
	if len(frame) < HeaderLen || uint64(len(frame)-HeaderLen) != uint64(binary.LittleEndian.Uint32(frame)) {
		return nil, false
	}
	payload = frame[HeaderLen:]
	return payload, checksum(payload) == binary.LittleEndian.Uint32(frame[4:])
}

// Seal appends the checksum of b to b.
func Seal(b []byte) []byte { return binary.LittleEndian.AppendUint32(b, checksum(b)) }

// Unseal strips and checks the checksum trailer of sealed; ok is false
// when it is too short to hold one or the checksum does not match.
func Unseal(sealed []byte) (payload []byte, ok bool) {
	if len(sealed) < 4 {
		return nil, false
	}
	payload = sealed[:len(sealed)-4]
	return payload, checksum(payload) == binary.LittleEndian.Uint32(sealed[len(payload):])
}

// Status classifies the frame at one offset of a log.
type Status int

const (
	// Complete is a whole frame whose checksum matches.
	Complete Status = iota
	// Incomplete means fewer bytes remain than a header, or than the
	// header's length claims — none at all, when ReadFrame is asked at
	// the end of the log: an append still in flight, or one a crash cut
	// short.
	Incomplete
	// CorruptTail is a whole frame with a bad checksum that ends exactly
	// at the end of the log: a torn final write, or damage.
	CorruptTail
	// Corrupt is a whole frame with a bad checksum and more bytes after
	// it: damage.
	Corrupt
)

// File is the read side of a log.
type File interface {
	io.ReaderAt
	Size() (int64, error)
}

// ReadFrame reads the frame at off of a log of size bytes, reusing
// buf's storage, and classifies it. frame holds the whole frame, header
// included, when a whole frame was there to read; the caller may pass
// it back as buf next time.
func ReadFrame(f io.ReaderAt, off, size int64, buf []byte) (frame []byte, st Status, err error) {
	if size-off < HeaderLen {
		return buf[:0], Incomplete, nil
	}
	if cap(buf) < HeaderLen {
		buf = make([]byte, HeaderLen)
	}
	hdr := buf[:HeaderLen]
	if _, err := f.ReadAt(hdr, off); err != nil && err != io.EOF {
		return buf[:0], Incomplete, err
	}
	end := off + HeaderLen + int64(binary.LittleEndian.Uint32(hdr))
	if end > size {
		return buf[:0], Incomplete, nil
	}
	if n := int(end - off); cap(buf) < n {
		buf = append(hdr, make([]byte, n-HeaderLen)...)
	}
	frame = buf[:end-off]
	if _, err := f.ReadAt(frame[HeaderLen:], off+HeaderLen); err != nil && err != io.EOF {
		return frame[:0], Incomplete, err
	}
	switch {
	case checksum(frame[HeaderLen:]) == binary.LittleEndian.Uint32(frame[4:]):
		return frame, Complete, nil
	case end == size:
		return frame, CorruptTail, nil
	default:
		return frame, Corrupt, nil
	}
}

// Scan walks the log f from its start, calling fn with the offset and
// payload of each Complete frame in order, and stops at the first frame
// that is not. It returns that frame's offset and Status; Complete means
// every byte of f belongs to a whole, valid frame. An error from fn
// stops the walk and is returned with the offset of its frame. The
// payload is valid only for the duration of the call.
func Scan(f File, fn func(off int64, payload []byte) error) (int64, Status, error) {
	size, err := f.Size()
	if err != nil {
		return 0, Incomplete, err
	}
	var buf []byte
	off := int64(0)
	for off < size {
		frame, st, err := ReadFrame(f, off, size, buf)
		if err != nil || st != Complete {
			return off, st, err
		}
		if err := fn(off, frame[HeaderLen:]); err != nil {
			return off, Complete, err
		}
		buf = frame
		off += int64(len(frame))
	}
	return off, Complete, nil
}

// Decoder reads the fields of a payload in order. The first read that
// does not fit marks the payload corrupt, and every read after it
// returns zero values, so a caller decodes straight through and checks
// Corrupt once. Lengths and counts are compared as uint64 against the
// bytes remaining, so no length prefix can overflow an int.
type Decoder struct {
	buf     []byte
	corrupt bool
}

// NewDecoder returns a decoder over payload.
func NewDecoder(payload []byte) Decoder { return Decoder{buf: payload} }

// Corrupt reports whether any read so far did not fit.
func (d *Decoder) Corrupt() bool { return d.corrupt }

func (d *Decoder) fail() {
	d.buf, d.corrupt = nil, true
}

// Byte reads one byte.
func (d *Decoder) Byte() byte {
	if len(d.buf) == 0 {
		d.fail()
		return 0
	}
	b := d.buf[0]
	d.buf = d.buf[1:]
	return b
}

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// Varint reads a signed varint.
func (d *Decoder) Varint() int64 {
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// Take reads the next n bytes. The result aliases the payload.
func (d *Decoder) Take(n uint64) []byte {
	if n > uint64(len(d.buf)) {
		d.fail()
		return nil
	}
	b := d.buf[:n:n]
	d.buf = d.buf[n:]
	return b
}

// Bytes reads a uvarint length and that many bytes. The result aliases
// the payload.
func (d *Decoder) Bytes() []byte { return d.Take(d.Uvarint()) }

// Count reads the element count of a sequence whose elements take at
// least minBytes each. A count the remaining bytes cannot hold is
// corrupt (and reads as 0), so the result is safe to allocate for.
func (d *Decoder) Count(minBytes int) int {
	n := d.Uvarint()
	if n > uint64(len(d.buf)/minBytes) {
		d.fail()
		return 0
	}
	return int(n)
}
