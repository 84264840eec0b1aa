package sstable

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"lsmlab/internal/bloom"
	"lsmlab/internal/kv"
	"lsmlab/internal/record"
	"lsmlab/internal/vfs"
)

// BlockCache caches decoded data blocks across tables, keyed by (file
// number, block offset). The engine's block cache implements it; a nil
// cache is always a miss that refuses the block.
type BlockCache interface {
	// Lookup returns the cached value, if present. On a miss, admit
	// says whether the block of charge bytes the caller is about to
	// read may be added; a refused block is read into a buffer the
	// caller owns and never added. A zero charge always admits.
	Lookup(fileNum, offset uint64, charge int) (v any, hit, admit bool)
	// Add inserts a value with the given charge in bytes.
	Add(fileNum, offset uint64, value any, charge int)
}

// ReadStats receives read-path events from a Reader: one FilterProbe
// per Bloom-filter probe and one BlockRead per data-block fetch, with
// the block's on-disk size. The engine wires this to its metrics; a nil
// ReadStats is silently ignored.
type ReadStats interface {
	FilterProbe(negative bool)
	BlockRead(cached bool, bytes int)
}

// ReaderOptions configures how a table is opened.
type ReaderOptions struct {
	// FileNum namespaces this table's blocks in the shared cache.
	FileNum uint64
	// Cache is the shared block cache; nil disables caching.
	Cache BlockCache
	// Stats receives read-path events; nil disables reporting.
	Stats ReadStats
}

// Reader provides random access to one immutable table. The index
// block, Bloom filter, range tombstones, and properties are loaded
// eagerly and pinned — these are the light-weight auxiliary in-memory
// structures of tutorial §2.1.3. Data blocks are fetched on demand
// through the block cache.
type Reader struct {
	f        vfs.File
	opts     ReaderOptions
	index    *block
	filter   bloom.Filter
	rangeTs  []kv.RangeTombstone
	props    Properties
	fileSize int64
}

// Open reads the footer and pinned blocks of a table.
func Open(f vfs.File, opts ReaderOptions) (*Reader, error) {
	size, err := f.Size()
	if err != nil {
		return nil, err
	}
	if size < footerLen {
		return nil, fmt.Errorf("%w: file too small (%d bytes)", ErrCorrupt, size)
	}
	footer := make([]byte, footerLen)
	if _, err := f.ReadAt(footer, size-footerLen); err != nil {
		return nil, err
	}
	if got := binary.LittleEndian.Uint64(footer[len(footer)-8:]); got != tableMagic {
		return nil, fmt.Errorf("%w: bad magic %x", ErrCorrupt, got)
	}
	handles := make([]blockHandle, 5)
	for i := range handles {
		handles[i].offset = binary.LittleEndian.Uint64(footer[i*16:])
		handles[i].length = binary.LittleEndian.Uint64(footer[i*16+8:])
	}
	indexH, filterH, rangeDelH, propsH := handles[0], handles[1], handles[2], handles[3]

	r := &Reader{f: f, opts: opts, fileSize: size}

	raw, err := r.readRaw(indexH, nil)
	if err != nil {
		return nil, err
	}
	if r.index, err = decodeBlock(raw); err != nil {
		return nil, err
	}
	if filterH.length > 0 {
		payload, err := r.readRawUnwrapped(filterH)
		if err != nil {
			return nil, err
		}
		r.filter = bloom.Filter(payload)
	}
	if rangeDelH.length > 0 {
		payload, err := r.readRawUnwrapped(rangeDelH)
		if err != nil {
			return nil, err
		}
		if r.rangeTs, err = decodeRangeTombstones(payload); err != nil {
			return nil, err
		}
	}
	if propsH.length == 0 {
		return nil, fmt.Errorf("%w: missing properties", ErrCorrupt)
	}
	payload, err := r.readRawUnwrapped(propsH)
	if err != nil {
		return nil, err
	}
	if r.props, err = decodeProperties(payload); err != nil {
		return nil, err
	}
	return r, nil
}

// readRaw reads the block at h into buf, reallocating it only if it is
// too small.
func (r *Reader) readRaw(h blockHandle, buf []byte) ([]byte, error) {
	if h.offset > uint64(r.fileSize) || h.length > uint64(r.fileSize)-h.offset {
		return nil, fmt.Errorf("%w: block handle %d+%d past the end of the file", ErrCorrupt, h.offset, h.length)
	}
	if uint64(cap(buf)) < h.length {
		buf = make([]byte, h.length)
	}
	buf = buf[:h.length]
	if _, err := r.f.ReadAt(buf, int64(h.offset)); err != nil {
		return nil, err
	}
	return buf, nil
}

func (r *Reader) readRawUnwrapped(h blockHandle) ([]byte, error) {
	raw, err := r.readRaw(h, nil)
	if err != nil {
		return nil, err
	}
	payload, ok := record.Unseal(raw)
	if !ok {
		return nil, fmt.Errorf("%w: raw block checksum", ErrCorrupt)
	}
	return payload, nil
}

// blockBuf is a reader-owned home for the data blocks the cache
// refuses: one raw buffer and its decoded view, reused by every refused
// read through the cursor that owns it.
type blockBuf struct {
	raw []byte
	blk block
}

// readDataBlock fetches a data block through the cache, reporting to st.
// A block the cache refuses (or every block, without a cache) is read
// into own and is valid until the next read through own. A nil own is
// a deliberate fill: the block is added whether or not the cache would
// admit it.
func (r *Reader) readDataBlock(h blockHandle, st ReadStats, own *blockBuf) (*block, error) {
	admit := false
	if c := r.opts.Cache; c != nil {
		charge := int(h.length)
		if own == nil {
			charge = 0 // ask only whether the block is resident
		}
		v, hit, ok := c.Lookup(r.opts.FileNum, h.offset, charge)
		if hit {
			if st != nil {
				st.BlockRead(true, int(h.length))
			}
			return v.(*block), nil
		}
		admit = ok
	}
	if admit || own == nil {
		own = new(blockBuf) // a block the cache keeps gets memory of its own
	}
	raw, err := r.readRaw(h, own.raw)
	if err != nil {
		return nil, err
	}
	own.raw = raw
	if err := decodeBlockInto(&own.blk, raw); err != nil {
		return nil, err
	}
	if st != nil {
		st.BlockRead(false, int(h.length))
	}
	if admit {
		r.opts.Cache.Add(r.opts.FileNum, h.offset, &own.blk, len(raw))
	}
	return &own.blk, nil
}

// Props returns the table's properties.
func (r *Reader) Props() Properties { return r.props }

// RangeTombstones returns the table's range tombstones (may be nil).
func (r *Reader) RangeTombstones() []kv.RangeTombstone { return r.rangeTs }

// FilterSizeBytes returns the in-memory footprint of the pinned Bloom
// filter.
func (r *Reader) FilterSizeBytes() int { return len(r.filter) }

// FileSize returns the on-disk size of the table.
func (r *Reader) FileSize() int64 { return r.fileSize }

// MayContainHash probes the Bloom filter with a precomputed user-key
// hash (hash sharing across levels, §2.1.3). It returns false only if
// the key is definitely absent.
func (r *Reader) MayContainHash(h uint64) bool {
	return r.mayContainHash(h, r.opts.Stats)
}

func (r *Reader) mayContainHash(h uint64, st ReadStats) bool {
	if len(r.filter) == 0 {
		return true
	}
	neg := !r.filter.MayContainHash(h)
	if st != nil {
		st.FilterProbe(neg)
	}
	return !neg
}

// decodeHandle parses an index-block value into a block handle.
func decodeHandle(v []byte) (blockHandle, error) {
	if len(v) != 16 {
		return blockHandle{}, fmt.Errorf("%w: bad index value", ErrCorrupt)
	}
	return blockHandle{
		offset: binary.LittleEndian.Uint64(v[:8]),
		length: binary.LittleEndian.Uint64(v[8:]),
	}, nil
}

// Get returns the newest point entry for ukey visible at snapshot snap
// within this table (it may be a tombstone). Range tombstones are not
// consulted here — the read path merges them across runs. The Bloom
// filter is probed with the precomputed hash.
func (r *Reader) Get(ukey []byte, hash uint64, snap kv.SeqNum) (kv.Entry, bool, error) {
	var sc GetScratch
	e, ok, err := r.GetScratched(ukey, kv.MakeSearchKey(ukey, snap), hash, nil, &sc)
	if ok {
		e = e.Clone() // detach from the scratch for standalone callers
	}
	return e, ok, err
}

// GetScratch holds the reusable per-lookup state of GetScratched: the
// index and data cursors, whose key buffers amortize to zero
// allocations across lookups, and the buffer a refused block is read
// into. A scratch must not be used concurrently; the engine pools one
// per in-flight read.
type GetScratch struct {
	idx  blockIterator
	data blockIterator
	buf  blockBuf
}

// GetScratched is the allocation-free point lookup: search must be
// kv.MakeSearchKey(ukey, snap) (built once by the caller and shared
// across every run probed), and sc carries the cursors across calls. A
// non-nil st replaces the reader's configured ReadStats for this
// lookup, so a traced or sampled request sees its own probes.
//
// The returned key ALIASES sc's key buffer and is valid only until the
// next lookup through sc. The value is read-only and valid for as long
// as the caller retains it: it aliases the cached data block (blocks
// are immutable and the slice keeps the block alive), or, when the
// block was read into sc because the cache refused it, it is a private
// copy.
func (r *Reader) GetScratched(ukey, search []byte, hash uint64, st ReadStats, sc *GetScratch) (kv.Entry, bool, error) {
	if st == nil {
		st = r.opts.Stats
	}
	if !r.mayContainHash(hash, st) {
		return kv.Entry{}, false, nil
	}
	idx := &sc.idx
	idx.reset(r.index)
	if !idx.SeekGE(search) {
		return kv.Entry{}, false, idx.Close()
	}
	h, err := decodeHandle(idx.Value())
	if err != nil {
		return kv.Entry{}, false, err
	}
	b, err := r.readDataBlock(h, st, &sc.buf)
	if err != nil {
		return kv.Entry{}, false, err
	}
	it := &sc.data
	it.reset(b)
	if !it.SeekGE(search) {
		return kv.Entry{}, false, it.Close()
	}
	if kv.CompareUser(kv.UserKey(it.Key()), ukey) != 0 {
		return kv.Entry{}, false, it.Close()
	}
	v := it.Value()
	if b == &sc.buf.blk {
		v = bytes.Clone(v) // sc's block is overwritten by the next miss
	}
	return kv.Entry{Key: it.Key(), Value: v}, true, it.Close()
}

// NewIterator returns an iterator over the table's point entries.
func (r *Reader) NewIterator() kv.Iterator {
	it := new(TableIter)
	r.InitIterator(it, nil)
	return it
}

// InitIterator points the caller-owned cursor it at this table,
// unpositioned, keeping the key buffers of its last use so a reused
// cursor stops allocating. A non-nil st replaces the reader's
// configured ReadStats for this cursor, so a scan can attribute its
// block fetches to the level it is reading.
func (r *Reader) InitIterator(it *TableIter, st ReadStats) {
	if st == nil {
		st = r.opts.Stats
	}
	it.r, it.st, it.loaded, it.err = r, st, false, nil
	it.index.reset(r.index)
	it.data.reset(nil)
}

// BlockSpans invokes fn for every data block with its file offset and
// the last internal key it holds, in key order. Used by the Leaper-
// style prefetcher to map cached blocks to key ranges.
func (r *Reader) BlockSpans(fn func(offset uint64, lastKey []byte)) {
	idx := newBlockIterator(r.index)
	for ok := idx.First(); ok; ok = idx.Next() {
		h, err := decodeHandle(idx.Value())
		if err != nil {
			return
		}
		fn(h.offset, idx.Key())
	}
}

// WarmRange reads every data block whose keys may intersect the user-
// key range [start, end] into the block cache, bypassing admission,
// stopping once budget bytes have been loaded (budget <= 0 means
// unlimited). It returns the bytes loaded.
func (r *Reader) WarmRange(start, end []byte, budget int64) int64 {
	idx := newBlockIterator(r.index)
	var loaded int64
	ok := idx.SeekGE(kv.MakeSearchKey(start, kv.MaxSeqNum))
	for ; ok; ok = idx.Next() {
		if end != nil && kv.CompareUser(kv.UserKey(idx.Key()), end) > 0 {
			// This block still overlaps (it may start before end); load
			// it, then stop.
			if h, err := decodeHandle(idx.Value()); err == nil {
				if _, err := r.readDataBlock(h, r.opts.Stats, nil); err == nil {
					loaded += int64(h.length)
				}
			}
			break
		}
		h, err := decodeHandle(idx.Value())
		if err != nil {
			break
		}
		if _, err := r.readDataBlock(h, r.opts.Stats, nil); err != nil {
			break
		}
		loaded += int64(h.length)
		if budget > 0 && loaded >= budget {
			break
		}
	}
	return loaded
}

// VerifyChecksums re-reads the table from the file as Open does — the
// footer and the pinned blocks (index, filter, range tombstones,
// properties), so damage since Open cannot hide behind the copies the
// reader holds — then every data block, bypassing the block cache, and
// validates each block's checksum and structure. It returns the data
// bytes verified and the first corruption found.
func (r *Reader) VerifyChecksums() (int64, error) {
	fresh, err := Open(r.f, ReaderOptions{})
	if err != nil {
		return 0, err
	}
	idx := newBlockIterator(fresh.index)
	var verified int64
	var own blockBuf
	for ok := idx.First(); ok; ok = idx.Next() {
		h, err := decodeHandle(idx.Value())
		if err != nil {
			return verified, err
		}
		if _, err := fresh.readDataBlock(h, nil, &own); err != nil {
			return verified, fmt.Errorf("block at %d: %w", h.offset, err)
		}
		verified += int64(h.length)
	}
	return verified, idx.Close()
}

// Close releases the underlying file.
func (r *Reader) Close() error { return r.f.Close() }

// TableIter is the two-level table cursor: an index cursor selects
// data blocks, a block cursor walks entries. Reader.InitIterator points
// one at a table; Close drops its reader and block references. Blocks
// the cache refuses are read into the cursor's own buffer, so a key or
// value is valid only until the next positioning call.
type TableIter struct {
	r      *Reader
	st     ReadStats
	index  blockIterator
	data   blockIterator
	buf    blockBuf
	loaded bool // data holds the block the index cursor points at
	err    error
}

// loadCurrentBlock opens the data block the index cursor points at.
func (it *TableIter) loadCurrentBlock() bool {
	h, err := decodeHandle(it.index.Value())
	if err != nil {
		it.err = err
		return false
	}
	b, err := it.r.readDataBlock(h, it.st, &it.buf)
	if err != nil {
		it.err = err
		return false
	}
	it.data.reset(b)
	it.loaded = true
	return true
}

// First implements kv.Iterator.
func (it *TableIter) First() bool {
	it.loaded = false
	if !it.index.First() || !it.loadCurrentBlock() {
		return false
	}
	return it.data.First()
}

// SeekGE implements kv.Iterator.
func (it *TableIter) SeekGE(ikey []byte) bool {
	it.loaded = false
	if !it.index.SeekGE(ikey) || !it.loadCurrentBlock() {
		return false
	}
	if it.data.SeekGE(ikey) {
		return true
	}
	// The sought key fell in the gap past this block's last entry; the
	// next block starts at a greater key.
	return it.advanceBlock()
}

func (it *TableIter) advanceBlock() bool {
	if !it.index.Next() || !it.loadCurrentBlock() {
		it.loaded = false
		return false
	}
	return it.data.First()
}

// Next implements kv.Iterator.
func (it *TableIter) Next() bool {
	if !it.loaded {
		return false
	}
	if it.data.Next() {
		return true
	}
	return it.advanceBlock()
}

// Valid implements kv.Iterator.
func (it *TableIter) Valid() bool { return it.loaded && it.data.Valid() }

// Error returns the deferred block-read error, if any. Positioning
// returns false both at end-of-table and on a corrupt block, so bulk
// consumers (compaction, scans) must check this after iterating — see
// kv.IterError.
func (it *TableIter) Error() error { return it.err }

// Key implements kv.Iterator.
func (it *TableIter) Key() []byte { return it.data.Key() }

// Value implements kv.Iterator.
func (it *TableIter) Value() []byte { return it.data.Value() }

// Close reports the cursor's first error and drops its reader and
// block references; InitIterator makes it usable again.
func (it *TableIter) Close() error {
	err := it.err
	if err == nil && it.loaded {
		err = it.data.Close()
	}
	if err == nil {
		err = it.index.Close()
	}
	it.r, it.st, it.loaded = nil, nil, false
	it.index.reset(nil)
	it.data.reset(nil)
	return err
}
