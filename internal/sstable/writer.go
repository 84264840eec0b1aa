package sstable

import (
	"encoding/binary"
	"errors"
	"fmt"

	"lsmlab/internal/bloom"
	"lsmlab/internal/kv"
	"lsmlab/internal/record"
	"lsmlab/internal/vfs"
)

// footerLen is the fixed size of the table footer: five block handles
// (offset+length pairs) plus an 8-byte magic number.
const footerLen = 5*16 + 8

// tableMagic identifies lsmlab tables.
const tableMagic = 0x6c736d6c61620001 // "lsmlab" v1

// blockHandle locates a block within the file.
type blockHandle struct {
	offset uint64
	length uint64 // excluding nothing: full serialized block including CRC
}

// Properties summarizes a finished table. They are persisted in the
// properties block and drive compaction picking (tombstone density,
// entry counts) and the FADE delete-persistence trigger (oldest
// tombstone age).
type Properties struct {
	NumEntries        uint64
	NumTombstones     uint64 // point tombstones (delete + single-delete)
	NumRangeDels      uint64
	RawKeyBytes       uint64
	RawValueBytes     uint64
	NumDataBlocks     uint64
	SmallestSeq       kv.SeqNum // ..LargestSeq spans points and range tombstones
	LargestSeq        kv.SeqNum
	OldestTombstoneNs int64  // unix nanos of the oldest tombstone; 0 if none
	Smallest          []byte // smallest user key
	Largest           []byte // largest user key
}

// TombstoneDensity is the fraction of entries that are tombstones.
func (p Properties) TombstoneDensity() float64 {
	if p.NumEntries == 0 {
		return 0
	}
	return float64(p.NumTombstones+p.NumRangeDels) / float64(p.NumEntries)
}

func (p Properties) encode() []byte {
	var buf []byte
	buf = binary.AppendUvarint(buf, p.NumEntries)
	buf = binary.AppendUvarint(buf, p.NumTombstones)
	buf = binary.AppendUvarint(buf, p.NumRangeDels)
	buf = binary.AppendUvarint(buf, p.RawKeyBytes)
	buf = binary.AppendUvarint(buf, p.RawValueBytes)
	buf = binary.AppendUvarint(buf, p.NumDataBlocks)
	buf = binary.AppendUvarint(buf, uint64(p.SmallestSeq))
	buf = binary.AppendUvarint(buf, uint64(p.LargestSeq))
	buf = binary.AppendVarint(buf, p.OldestTombstoneNs)
	buf = binary.AppendUvarint(buf, uint64(len(p.Smallest)))
	buf = append(buf, p.Smallest...)
	buf = binary.AppendUvarint(buf, uint64(len(p.Largest)))
	buf = append(buf, p.Largest...)
	return buf
}

func decodeProperties(buf []byte) (Properties, error) {
	d := record.NewDecoder(buf)
	p := Properties{
		NumEntries:        d.Uvarint(),
		NumTombstones:     d.Uvarint(),
		NumRangeDels:      d.Uvarint(),
		RawKeyBytes:       d.Uvarint(),
		RawValueBytes:     d.Uvarint(),
		NumDataBlocks:     d.Uvarint(),
		SmallestSeq:       kv.SeqNum(d.Uvarint()),
		LargestSeq:        kv.SeqNum(d.Uvarint()),
		OldestTombstoneNs: d.Varint(),
		Smallest:          append([]byte(nil), d.Bytes()...),
		Largest:           append([]byte(nil), d.Bytes()...),
	}
	if d.Corrupt() {
		return Properties{}, fmt.Errorf("%w: properties", ErrCorrupt)
	}
	return p, nil
}

// WriterOptions configures table construction.
type WriterOptions struct {
	// BlockSize is the target data block size; DefaultBlockSize if zero.
	BlockSize int
	// BitsPerKey sizes the Bloom filter; <0.5 disables it (Monkey may
	// assign zero to deep levels).
	BitsPerKey float64
	// NowNs supplies tombstone creation timestamps (injected for
	// determinism in tests and experiments). If nil no timestamps are
	// recorded.
	NowNs func() int64
}

// Writer builds one immutable table from entries added in ascending
// internal-key order.
type Writer struct {
	f       vfs.File
	opts    WriterOptions
	data    blockBuilder
	index   blockBuilder
	offset  uint64
	hashes  []uint64 // user-key hashes for the filter
	lastUK  []byte   // last user key added to filter (avoid duplicate hashes)
	rangeTs []kv.RangeTombstone
	props   Properties
	lastKey []byte
	err     error
}

// NewWriter begins writing a table to f.
func NewWriter(f vfs.File, opts WriterOptions) *Writer {
	if opts.BlockSize <= 0 {
		opts.BlockSize = DefaultBlockSize
	}
	return &Writer{f: f, opts: opts}
}

// Add appends an entry. Keys must be strictly ascending in internal-key
// order.
func (w *Writer) Add(ikey, value []byte) error {
	if w.err != nil {
		return w.err
	}
	if w.lastKey != nil && kv.Compare(w.lastKey, ikey) >= 0 {
		w.err = fmt.Errorf("sstable: keys out of order: %q after %q", ikey, w.lastKey)
		return w.err
	}
	w.lastKey = append(w.lastKey[:0], ikey...)

	ukey, seq, kind, ok := kv.ParseKey(ikey)
	if !ok {
		w.err = errors.New("sstable: invalid internal key")
		return w.err
	}
	// Bookkeeping.
	w.props.NumEntries++
	w.props.RawKeyBytes += uint64(len(ikey))
	w.props.RawValueBytes += uint64(len(value))
	w.widenSeq(seq)
	if w.props.Smallest == nil {
		w.props.Smallest = append([]byte(nil), ukey...)
	}
	w.props.Largest = append(w.props.Largest[:0], ukey...)
	if kind == kv.KindDelete || kind == kv.KindSingleDelete {
		w.props.NumTombstones++
		if w.opts.NowNs != nil && w.props.OldestTombstoneNs == 0 {
			w.props.OldestTombstoneNs = w.opts.NowNs()
		}
	}
	// Filter hashes are per distinct user key.
	if w.opts.BitsPerKey >= 0.5 && !bytesEqual(w.lastUK, ukey) {
		w.hashes = append(w.hashes, bloom.Hash64(ukey))
		w.lastUK = append(w.lastUK[:0], ukey...)
	}

	w.data.add(ikey, value)
	if w.data.estimatedSize() >= w.opts.BlockSize {
		w.flushDataBlock()
	}
	return w.err
}

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// widenSeq extends the table's sequence range to seq. Callers count the
// point entry or range tombstone carrying seq first, so a count of one
// marks the table's first sequence.
func (w *Writer) widenSeq(seq kv.SeqNum) {
	if w.props.NumEntries+w.props.NumRangeDels == 1 || seq < w.props.SmallestSeq {
		w.props.SmallestSeq = seq
	}
	w.props.LargestSeq = max(w.props.LargestSeq, seq)
}

// AddRangeTombstone records a range tombstone. Tombstones may be added
// in any order, at any point before Finish.
func (w *Writer) AddRangeTombstone(t kv.RangeTombstone) {
	if t.Empty() {
		return
	}
	w.rangeTs = append(w.rangeTs, kv.RangeTombstone{
		Start: append([]byte(nil), t.Start...),
		End:   append([]byte(nil), t.End...),
		Seq:   t.Seq,
	})
	w.props.NumRangeDels++
	w.widenSeq(t.Seq)
	if w.opts.NowNs != nil && w.props.OldestTombstoneNs == 0 {
		w.props.OldestTombstoneNs = w.opts.NowNs()
	}
	// Range bounds also extend the table's key range. The end bound is
	// exclusive: when it is of the form k+"\x00" (the boundary keys used
	// to split tombstones across output files), the largest key the
	// tombstone can cover is exactly k, so recording k keeps adjacent
	// files in a run from appearing to touch. Other end forms fall back
	// to the conservative inclusive extension.
	end := t.End
	if n := len(end); n > 0 && end[n-1] == 0 {
		end = end[:n-1]
	}
	var r kv.KeyRange
	r.Smallest, r.Largest = w.props.Smallest, w.props.Largest
	r.Extend(t.Start)
	r.Extend(end)
	w.props.Smallest, w.props.Largest = r.Smallest, r.Largest
}

// flushDataBlock writes the current data block and adds its fence
// pointer to the index.
func (w *Writer) flushDataBlock() {
	if w.data.empty() || w.err != nil {
		return
	}
	h, err := w.writeBlock(w.data.finish())
	if err != nil {
		w.err = err
		return
	}
	w.props.NumDataBlocks++
	// Fence pointer: the last key of the block maps to its handle.
	var hv [16]byte
	binary.LittleEndian.PutUint64(hv[:8], h.offset)
	binary.LittleEndian.PutUint64(hv[8:], h.length)
	w.index.add(w.data.lastKey, hv[:])
	w.data.reset()
}

func (w *Writer) writeBlock(serialized []byte) (blockHandle, error) {
	h := blockHandle{offset: w.offset, length: uint64(len(serialized))}
	n, err := w.f.Write(serialized)
	w.offset += uint64(n)
	return h, err
}

// EstimatedSize returns the bytes written so far plus the current
// in-progress block, used by compactions to split output files at the
// target size.
func (w *Writer) EstimatedSize() uint64 {
	sz := w.offset
	if !w.data.empty() {
		sz += uint64(w.data.estimatedSize())
	}
	return sz
}

// NumEntries returns the number of entries added so far.
func (w *Writer) NumEntries() uint64 { return w.props.NumEntries }

// LargestUserKey returns the largest user key among entries added so
// far (nil if none). Range tombstones added before Finish may extend
// the final properties beyond this.
func (w *Writer) LargestUserKey() []byte { return w.props.Largest }

// Finish writes the index, filter, range-del, and properties blocks and
// the footer, syncs the file, and returns the table's properties. The
// caller owns closing the file.
func (w *Writer) Finish() (Properties, error) {
	if w.err != nil {
		return Properties{}, w.err
	}
	if w.props.NumEntries == 0 && len(w.rangeTs) == 0 {
		return Properties{}, errors.New("sstable: empty table")
	}
	w.flushDataBlock()
	if w.err != nil {
		return Properties{}, w.err
	}

	indexHandle, err := w.writeBlock(w.index.finish())
	if err != nil {
		return Properties{}, err
	}

	var filterHandle blockHandle
	if filter := bloom.New(w.hashes, w.opts.BitsPerKey); len(filter) > 0 {
		if filterHandle, err = w.writeBlock(record.Seal(filter)); err != nil {
			return Properties{}, err
		}
	}

	var rangeDelHandle blockHandle
	if len(w.rangeTs) > 0 {
		if rangeDelHandle, err = w.writeBlock(record.Seal(encodeRangeTombstones(w.rangeTs))); err != nil {
			return Properties{}, err
		}
	}

	propsHandle, err := w.writeBlock(record.Seal(w.props.encode()))
	if err != nil {
		return Properties{}, err
	}

	footer := make([]byte, 0, footerLen)
	for _, h := range []blockHandle{indexHandle, filterHandle, rangeDelHandle, propsHandle, {}} {
		footer = binary.LittleEndian.AppendUint64(footer, h.offset)
		footer = binary.LittleEndian.AppendUint64(footer, h.length)
	}
	footer = binary.LittleEndian.AppendUint64(footer, tableMagic)
	if _, err := w.f.Write(footer); err != nil {
		return Properties{}, err
	}
	w.offset += uint64(len(footer))
	if err := w.f.Sync(); err != nil {
		return Properties{}, err
	}
	return w.props, nil
}

func encodeRangeTombstones(ts []kv.RangeTombstone) []byte {
	var buf []byte
	buf = binary.AppendUvarint(buf, uint64(len(ts)))
	for _, t := range ts {
		buf = binary.AppendUvarint(buf, uint64(len(t.Start)))
		buf = append(buf, t.Start...)
		buf = binary.AppendUvarint(buf, uint64(len(t.End)))
		buf = append(buf, t.End...)
		buf = binary.AppendUvarint(buf, uint64(t.Seq))
	}
	return buf
}

func decodeRangeTombstones(buf []byte) ([]kv.RangeTombstone, error) {
	d := record.NewDecoder(buf)
	// A tombstone is at least three bytes: two length prefixes and seq.
	ts := make([]kv.RangeTombstone, d.Count(3))
	for i := range ts {
		ts[i] = kv.RangeTombstone{
			Start: append([]byte(nil), d.Bytes()...),
			End:   append([]byte(nil), d.Bytes()...),
			Seq:   kv.SeqNum(d.Uvarint()),
		}
	}
	if d.Corrupt() {
		return nil, fmt.Errorf("%w: rangedel block", ErrCorrupt)
	}
	return ts, nil
}
