// Package wisckey implements WiscKey-style key–value separation
// (tutorial §2.2.2, [78]): large values live in an append-only value
// log, and the LSM-tree stores only small pointer entries. Compactions
// then move pointers instead of payloads, cutting write amplification
// roughly by the value/key size ratio; the log is garbage-collected by
// re-appending still-live values and dropping dead files. Every record
// is a framed record of internal/record, so a read, the garbage
// collector and the scrubber all check its CRC-32C.
package wisckey

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"

	"lsmlab/internal/record"
	"lsmlab/internal/vfs"
)

// ErrCorrupt reports a damaged value-log record.
var ErrCorrupt = errors.New("wisckey: corrupt value log")

// PointerLen is the encoded size of a Pointer.
const PointerLen = 20

// Pointer locates one value inside the log.
type Pointer struct {
	FileNum uint64
	Offset  uint64
	Length  uint32 // the whole framed record, header included
}

// Encode serializes the pointer (fixed 20 bytes).
func (p Pointer) Encode() []byte {
	buf := make([]byte, PointerLen)
	binary.LittleEndian.PutUint64(buf[0:], p.FileNum)
	binary.LittleEndian.PutUint64(buf[8:], p.Offset)
	binary.LittleEndian.PutUint32(buf[16:], p.Length)
	return buf
}

// DecodePointer parses an encoded pointer.
func DecodePointer(buf []byte) (Pointer, error) {
	if len(buf) != PointerLen {
		return Pointer{}, fmt.Errorf("%w: pointer length %d", ErrCorrupt, len(buf))
	}
	return Pointer{
		FileNum: binary.LittleEndian.Uint64(buf[0:]),
		Offset:  binary.LittleEndian.Uint64(buf[8:]),
		Length:  binary.LittleEndian.Uint32(buf[16:]),
	}, nil
}

// DefaultFileSize is the log segment size that triggers rotation.
const DefaultFileSize = 16 << 20

// Log is the append-only value log. A record is one framed record
// (length | crc32c | payload) whose payload is
//
//	keyLen (uvarint) | valueLen (uvarint) | key | value
//
// Keys are stored alongside values so that garbage collection can ask
// the tree whether a record is still live.
type Log struct {
	fs  vfs.FS
	dir string

	mu          sync.Mutex
	active      vfs.File
	activeNum   uint64
	offset      uint64
	maxFileSize uint64
	sizes       map[uint64]uint64 // fileNum → bytes (sealed and active)
}

// Open scans dir for existing value-log segments and opens a fresh
// active segment after the highest.
func Open(fs vfs.FS, dir string) (*Log, error) {
	l := &Log{fs: fs, dir: dir, maxFileSize: DefaultFileSize, sizes: make(map[uint64]uint64)}
	names, err := fs.List(dir)
	if err != nil {
		return nil, err
	}
	var max uint64
	for _, name := range names {
		if !strings.HasSuffix(name, ".vlog") {
			continue
		}
		num, err := strconv.ParseUint(strings.TrimSuffix(name, ".vlog"), 10, 64)
		if err != nil {
			continue
		}
		f, err := fs.Open(vfs.Join(dir, name))
		if err != nil {
			return nil, err
		}
		sz, err := f.Size()
		f.Close()
		if err != nil {
			return nil, err
		}
		l.sizes[num] = uint64(sz)
		if num > max {
			max = num
		}
	}
	if err := l.rotateLocked(max + 1); err != nil {
		return nil, err
	}
	return l, nil
}

// SetMaxFileSize overrides the rotation threshold (tests use small
// segments).
func (l *Log) SetMaxFileSize(n uint64) {
	l.mu.Lock()
	l.maxFileSize = n
	l.mu.Unlock()
}

func (l *Log) rotateLocked(num uint64) error {
	if l.active != nil {
		if err := l.active.Sync(); err != nil {
			return err
		}
		if err := l.active.Close(); err != nil {
			return err
		}
		l.sizes[l.activeNum] = l.offset
	}
	f, err := l.fs.Create(l.path(num))
	if err != nil {
		return err
	}
	l.active = f
	l.activeNum = num
	l.offset = 0
	l.sizes[num] = 0
	return nil
}

func (l *Log) path(num uint64) string { return vfs.Join(l.dir, fmt.Sprintf("%06d.vlog", num)) }

// Append writes one record and returns its pointer, rotating the
// segment when full.
func (l *Log) Append(key, value []byte) (Pointer, error) {
	rec := record.StartFrame(make([]byte, 0, record.HeaderLen+2*binary.MaxVarintLen32+len(key)+len(value)))
	rec = binary.AppendUvarint(rec, uint64(len(key)))
	rec = binary.AppendUvarint(rec, uint64(len(value)))
	rec = append(append(rec, key...), value...)
	record.FinishFrame(rec)

	l.mu.Lock()
	defer l.mu.Unlock()
	if l.offset > 0 && l.offset+uint64(len(rec)) > l.maxFileSize {
		if err := l.rotateLocked(l.activeNum + 1); err != nil {
			return Pointer{}, err
		}
	}
	p := Pointer{FileNum: l.activeNum, Offset: l.offset, Length: uint32(len(rec))}
	if _, err := l.active.Write(rec); err != nil {
		return Pointer{}, err
	}
	l.offset += uint64(len(rec))
	l.sizes[l.activeNum] = l.offset
	return p, nil
}

// Read returns the value a pointer refers to, or ErrCorrupt when the
// record there fails its checksum.
func (l *Log) Read(p Pointer) ([]byte, error) {
	f, err := l.fs.Open(l.path(p.FileNum))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	buf := make([]byte, p.Length)
	if _, err := f.ReadAt(buf, int64(p.Offset)); err != nil && err != io.EOF {
		return nil, err
	}
	payload, ok := record.Unframe(buf)
	if !ok {
		return nil, fmt.Errorf("%w: segment %d offset %d", ErrCorrupt, p.FileNum, p.Offset)
	}
	_, value, err := parseRecord(payload)
	return value, err
}

func parseRecord(payload []byte) (key, value []byte, err error) {
	d := record.NewDecoder(payload)
	kl, vl := d.Uvarint(), d.Uvarint()
	key, value = d.Take(kl), d.Take(vl)
	if d.Corrupt() {
		return nil, nil, ErrCorrupt
	}
	return key, value, nil
}

// OldestSealed returns the lowest-numbered sealed (non-active) segment.
func (l *Log) OldestSealed() (uint64, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var nums []uint64
	for num := range l.sizes {
		if num != l.activeNum {
			nums = append(nums, num)
		}
	}
	if len(nums) == 0 {
		return 0, false
	}
	sort.Slice(nums, func(i, j int) bool { return nums[i] < nums[j] })
	return nums[0], true
}

// ScanFile iterates every record of a segment, passing the stored key,
// value, and the record's pointer; key and value are valid only for the
// call. Every byte of the segment must belong to a whole record whose
// checksum matches: a torn tail is ErrCorrupt too. Used by garbage
// collection and the scrubber.
func (l *Log) ScanFile(num uint64, fn func(key, value []byte, p Pointer) error) error {
	f, err := l.fs.Open(l.path(num))
	if err != nil {
		return err
	}
	defer f.Close()
	off, st, err := record.Scan(f, func(off int64, payload []byte) error {
		key, value, err := parseRecord(payload)
		if err != nil {
			return fmt.Errorf("%w: segment %d offset %d", err, num, off)
		}
		return fn(key, value, Pointer{FileNum: num, Offset: uint64(off), Length: uint32(record.HeaderLen + len(payload))})
	})
	if err == nil && st != record.Complete {
		err = fmt.Errorf("%w: segment %d offset %d", ErrCorrupt, num, off)
	}
	return err
}

// SegmentNums returns every live segment number (sealed and active) in
// ascending order. The scrubber walks these.
func (l *Log) SegmentNums() []uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	nums := make([]uint64, 0, len(l.sizes))
	for num := range l.sizes {
		nums = append(nums, num)
	}
	sort.Slice(nums, func(i, j int) bool { return nums[i] < nums[j] })
	return nums
}

// VerifyFile checks every record of one segment: each must pass its
// checksum and parse, and the records must tile the file exactly.
func (l *Log) VerifyFile(num uint64) error {
	return l.ScanFile(num, func(key, value []byte, p Pointer) error { return nil })
}

// Remove deletes a sealed segment after garbage collection.
func (l *Log) Remove(num uint64) error {
	l.mu.Lock()
	if num == l.activeNum {
		l.mu.Unlock()
		return errors.New("wisckey: cannot remove active segment")
	}
	delete(l.sizes, num)
	l.mu.Unlock()
	return l.fs.Remove(l.path(num))
}

// RotateForGC seals the active segment so that it becomes collectable,
// opening a new active one.
func (l *Log) RotateForGC() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.rotateLocked(l.activeNum + 1)
}

// DiskBytes returns the log's total footprint.
func (l *Log) DiskBytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var total int64
	for _, sz := range l.sizes {
		total += int64(sz)
	}
	return total
}

// Close syncs and closes the active segment.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.active == nil {
		return nil
	}
	if err := l.active.Sync(); err != nil {
		return err
	}
	err := l.active.Close()
	l.active = nil
	return err
}
