package sstable

import (
	"encoding/binary"
	"fmt"

	"lsmlab/internal/bloom"
	"lsmlab/internal/kv"
	"lsmlab/internal/record"
	"lsmlab/internal/vfs"
)

// BlockCache caches decoded data blocks across tables, keyed by (file
// number, block offset). The engine's block cache implements it; a nil
// cache is always a miss.
type BlockCache interface {
	// Get returns the cached value, if present.
	Get(fileNum, offset uint64) (any, bool)
	// Add inserts a value with the given charge in bytes.
	Add(fileNum, offset uint64, value any, charge int)
}

// ReadStats receives read-path events from a Reader. The engine wires
// this to its metrics; a nil ReadStats is silently ignored.
type ReadStats interface {
	FilterProbe(negative bool)
	BlockRead(cached bool)
}

// BlockBytesSink is an optional ReadStats extension: sinks that also
// implement it receive the on-disk byte size of every data block
// fetched, alongside the BlockRead count. The engine's per-level I/O
// profiler uses it to attribute real read bytes to the level each
// block came from.
type BlockBytesSink interface {
	BlockReadBytes(n int, cached bool)
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

	raw, err := r.readRaw(indexH)
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

func (r *Reader) readRaw(h blockHandle) ([]byte, error) {
	if h.offset > uint64(r.fileSize) || h.length > uint64(r.fileSize)-h.offset {
		return nil, fmt.Errorf("%w: block handle %d+%d past the end of the file", ErrCorrupt, h.offset, h.length)
	}
	buf := make([]byte, h.length)
	if _, err := r.f.ReadAt(buf, int64(h.offset)); err != nil {
		return nil, err
	}
	return buf, nil
}

func (r *Reader) readRawUnwrapped(h blockHandle) ([]byte, error) {
	raw, err := r.readRaw(h)
	if err != nil {
		return nil, err
	}
	payload, ok := record.Unseal(raw)
	if !ok {
		return nil, fmt.Errorf("%w: raw block checksum", ErrCorrupt)
	}
	return payload, nil
}

// readDataBlock fetches a data block through the cache, reporting to
// the reader's configured stats sink.
func (r *Reader) readDataBlock(h blockHandle) (*block, error) {
	return r.readDataBlockWith(h, r.opts.Stats)
}

// readDataBlockWith is readDataBlock with an explicit stats sink, so a
// traced lookup can attribute the fetch to its own span.
func (r *Reader) readDataBlockWith(h blockHandle, st ReadStats) (*block, error) {
	if r.opts.Cache != nil {
		if v, ok := r.opts.Cache.Get(r.opts.FileNum, h.offset); ok {
			if st != nil {
				st.BlockRead(true)
				if bs, ok := st.(BlockBytesSink); ok {
					bs.BlockReadBytes(int(h.length), true)
				}
			}
			return v.(*block), nil
		}
	}
	raw, err := r.readRaw(h)
	if err != nil {
		return nil, err
	}
	b, err := decodeBlock(raw)
	if err != nil {
		return nil, err
	}
	if st != nil {
		st.BlockRead(false)
		if bs, ok := st.(BlockBytesSink); ok {
			bs.BlockReadBytes(int(h.length), false)
		}
	}
	if r.opts.Cache != nil {
		r.opts.Cache.Add(r.opts.FileNum, h.offset, b, len(raw))
	}
	return b, nil
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
	return r.GetWith(ukey, hash, snap, nil)
}

// GetWith is Get with a per-operation stats sink: a non-nil st replaces
// the reader's configured ReadStats for this lookup, so a traced
// request can attribute its filter probes and block fetches to its own
// span. A nil st reports to r.opts.Stats as usual.
func (r *Reader) GetWith(ukey []byte, hash uint64, snap kv.SeqNum, st ReadStats) (kv.Entry, bool, error) {
	var sc GetScratch
	e, ok, err := r.GetScratched(ukey, kv.MakeSearchKey(ukey, snap), hash, st, &sc)
	if ok {
		e = e.Clone() // detach from the scratch for standalone callers
	}
	return e, ok, err
}

// GetScratch holds the reusable per-lookup state of GetScratched: the
// index and data cursors, whose key buffers amortize to zero
// allocations across lookups. A scratch must not be used concurrently;
// the engine pools one per in-flight read.
type GetScratch struct {
	idx  blockIterator
	data blockIterator
}

// GetScratched is the allocation-free point lookup: search must be
// kv.MakeSearchKey(ukey, snap) (built once by the caller and shared
// across every run probed), and sc carries the cursors across calls.
//
// The returned entry ALIASES sc's key buffer and the cached data
// block: the key is valid only until the next lookup through sc, the
// value for as long as the caller retains it (blocks are immutable and
// the slice keeps the block alive).
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
	b, err := r.readDataBlockWith(h, st)
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
	return kv.Entry{Key: it.Key(), Value: it.Value()}, true, it.Close()
}

// NewIterator returns an iterator over the table's point entries.
func (r *Reader) NewIterator() kv.Iterator {
	return &tableIterator{r: r, st: r.opts.Stats, index: newBlockIterator(r.index)}
}

// NewIteratorWith is NewIterator with a per-iterator stats sink
// replacing the reader's configured ReadStats, so a scan can attribute
// its block fetches to the level it is reading. A nil st reports to
// r.opts.Stats as usual.
func (r *Reader) NewIteratorWith(st ReadStats) kv.Iterator {
	if st == nil {
		st = r.opts.Stats
	}
	return &tableIterator{r: r, st: st, index: newBlockIterator(r.index)}
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
// key range [start, end] through the block cache, stopping once budget
// bytes have been loaded (budget <= 0 means unlimited). It returns the
// bytes loaded.
func (r *Reader) WarmRange(start, end []byte, budget int64) int64 {
	idx := newBlockIterator(r.index)
	var loaded int64
	ok := idx.SeekGE(kv.MakeSearchKey(start, kv.MaxSeqNum))
	for ; ok; ok = idx.Next() {
		if end != nil && kv.CompareUser(kv.UserKey(idx.Key()), end) > 0 {
			// This block still overlaps (it may start before end); load
			// it, then stop.
			if h, err := decodeHandle(idx.Value()); err == nil {
				if _, err := r.readDataBlock(h); err == nil {
					loaded += int64(h.length)
				}
			}
			break
		}
		h, err := decodeHandle(idx.Value())
		if err != nil {
			break
		}
		if _, err := r.readDataBlock(h); err != nil {
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
	for ok := idx.First(); ok; ok = idx.Next() {
		h, err := decodeHandle(idx.Value())
		if err != nil {
			return verified, err
		}
		raw, err := fresh.readRaw(h)
		if err != nil {
			return verified, fmt.Errorf("block at %d: %w", h.offset, err)
		}
		if _, err := decodeBlock(raw); err != nil {
			return verified, fmt.Errorf("block at %d: %w", h.offset, err)
		}
		verified += int64(h.length)
	}
	return verified, idx.Close()
}

// Close releases the underlying file.
func (r *Reader) Close() error { return r.f.Close() }

// tableIterator is the two-level iterator: an index cursor selects data
// blocks, a block cursor walks entries.
type tableIterator struct {
	r     *Reader
	st    ReadStats
	index *blockIterator
	data  *blockIterator
	err   error
}

// loadCurrentBlock opens the data block the index cursor points at.
func (it *tableIterator) loadCurrentBlock() bool {
	h, err := decodeHandle(it.index.Value())
	if err != nil {
		it.err = err
		return false
	}
	b, err := it.r.readDataBlockWith(h, it.st)
	if err != nil {
		it.err = err
		return false
	}
	it.data = newBlockIterator(b)
	return true
}

func (it *tableIterator) First() bool {
	it.data = nil
	if !it.index.First() {
		return false
	}
	if !it.loadCurrentBlock() {
		return false
	}
	return it.data.First()
}

func (it *tableIterator) SeekGE(ikey []byte) bool {
	it.data = nil
	if !it.index.SeekGE(ikey) {
		return false
	}
	if !it.loadCurrentBlock() {
		return false
	}
	if it.data.SeekGE(ikey) {
		return true
	}
	// The sought key fell in the gap past this block's last entry; the
	// next block starts at a greater key.
	return it.advanceBlock()
}

func (it *tableIterator) advanceBlock() bool {
	if !it.index.Next() {
		it.data = nil
		return false
	}
	if !it.loadCurrentBlock() {
		return false
	}
	return it.data.First()
}

func (it *tableIterator) Next() bool {
	if it.data == nil {
		return false
	}
	if it.data.Next() {
		return true
	}
	return it.advanceBlock()
}

func (it *tableIterator) Valid() bool { return it.data != nil && it.data.Valid() }

// Error returns the deferred block-read error, if any. Positioning
// returns false both at end-of-table and on a corrupt block, so bulk
// consumers (compaction, scans) must check this after iterating — see
// kv.IterError.
func (it *tableIterator) Error() error { return it.err }

func (it *tableIterator) Key() []byte { return it.data.Key() }

func (it *tableIterator) Value() []byte { return it.data.Value() }

func (it *tableIterator) Close() error {
	if it.err != nil {
		return it.err
	}
	if it.data != nil {
		if err := it.data.Close(); err != nil {
			return err
		}
	}
	return it.index.Close()
}
