package kv

import "container/heap"

// Iterator is the uniform iteration interface over sorted runs of
// internal keys. Implementations exist for memtables, SSTable blocks,
// whole SSTables, level concatenations, and merged views.
//
// The positioning methods return true when the iterator lands on a valid
// entry. Key and Value must only be called while the iterator is valid;
// the returned slices are only guaranteed to remain stable until the next
// positioning call.
type Iterator interface {
	// First positions at the first entry.
	First() bool
	// SeekGE positions at the first entry with internal key >= ikey.
	SeekGE(ikey []byte) bool
	// Next advances to the next entry.
	Next() bool
	// Valid reports whether the iterator is positioned at an entry.
	Valid() bool
	// Key returns the current internal key.
	Key() []byte
	// Value returns the current value.
	Value() []byte
	// Close releases resources. The iterator must not be used after.
	Close() error
}

// IterError surfaces the deferred read error of an iterator, if it
// keeps one. Block-backed iterators cannot fail inline — positioning
// returns false both at end-of-data and on a bad block — so a consumer
// that treats exhaustion as success (compaction, scans) must check this
// after the loop or it will silently truncate the stream.
func IterError(it Iterator) error {
	if e, ok := it.(interface{ Error() error }); ok {
		return e.Error()
	}
	return nil
}

// EmptyIterator is an Iterator over nothing.
type EmptyIterator struct{}

// First implements Iterator.
func (EmptyIterator) First() bool { return false }

// SeekGE implements Iterator.
func (EmptyIterator) SeekGE([]byte) bool { return false }

// Next implements Iterator.
func (EmptyIterator) Next() bool { return false }

// Valid implements Iterator.
func (EmptyIterator) Valid() bool { return false }

// Key implements Iterator.
func (EmptyIterator) Key() []byte { return nil }

// Value implements Iterator.
func (EmptyIterator) Value() []byte { return nil }

// Close implements Iterator.
func (EmptyIterator) Close() error { return nil }

// SliceIterator iterates over an in-memory slice of entries that must
// already be sorted by Compare. It is used by vector memtables, tests,
// and compaction of buffered runs.
type SliceIterator struct {
	entries []Entry
	idx     int
}

// NewSliceIterator returns an iterator over entries, which must be
// sorted by Compare and must not be mutated while iterating.
func NewSliceIterator(entries []Entry) *SliceIterator {
	return &SliceIterator{entries: entries, idx: -1}
}

// First implements Iterator.
func (it *SliceIterator) First() bool {
	it.idx = 0
	return it.Valid()
}

// SeekGE implements Iterator.
func (it *SliceIterator) SeekGE(ikey []byte) bool {
	lo, hi := 0, len(it.entries)
	for lo < hi {
		mid := (lo + hi) / 2
		if Compare(it.entries[mid].Key, ikey) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	it.idx = lo
	return it.Valid()
}

// Next implements Iterator.
func (it *SliceIterator) Next() bool {
	if it.idx < len(it.entries) {
		it.idx++
	}
	return it.Valid()
}

// Valid implements Iterator.
func (it *SliceIterator) Valid() bool { return it.idx >= 0 && it.idx < len(it.entries) }

// Key implements Iterator.
func (it *SliceIterator) Key() []byte { return it.entries[it.idx].Key }

// Value implements Iterator.
func (it *SliceIterator) Value() []byte { return it.entries[it.idx].Value }

// Close implements Iterator.
func (it *SliceIterator) Close() error { return nil }

// mergeItem is one source iterator inside a MergingIterator.
type mergeItem struct {
	iter Iterator
	// index breaks ties deterministically (lower index = newer source),
	// though with unique sequence numbers ties cannot occur in practice.
	index int
}

type mergeHeap []*mergeItem

func (h mergeHeap) Len() int { return len(h) }
func (h mergeHeap) Less(i, j int) bool {
	if c := Compare(h[i].iter.Key(), h[j].iter.Key()); c != 0 {
		return c < 0
	}
	return h[i].index < h[j].index
}
func (h mergeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x interface{}) { *h = append(*h, x.(*mergeItem)) }
func (h *mergeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	item := old[n-1]
	*h = old[:n-1]
	return item
}

// MergingIterator merges any number of sorted iterators into one sorted
// stream of internal keys. It performs a k-way merge with a binary heap;
// every version of every key is surfaced (no de-duplication — that is
// the job of compaction iterators and read paths, which also know about
// snapshots and tombstones).
type MergingIterator struct {
	items []mergeItem // one per source; the heap points into it
	heap  mergeHeap
	err   error
}

// NewMergingIterator merges the given iterators. Order matters only for
// tie-breaking: earlier iterators win ties (they should be the newer
// sources).
func NewMergingIterator(iters ...Iterator) *MergingIterator {
	m := &MergingIterator{}
	m.Reset(iters)
	return m
}

// Reset points m at a new set of sources, as NewMergingIterator does,
// reusing its merge items and heap and clearing any error of the last
// use. The caller owns iters; m keeps no reference to the slice.
func (m *MergingIterator) Reset(iters []Iterator) {
	clear(m.items) // drop the last sources
	m.items = m.items[:0]
	m.heap = m.heap[:0]
	m.err = nil
	for i, it := range iters {
		if it != nil {
			m.items = append(m.items, mergeItem{iter: it, index: i})
		}
	}
}

// First implements Iterator.
func (m *MergingIterator) First() bool {
	m.heap = m.heap[:0]
	for i := range m.items {
		if item := &m.items[i]; item.iter.First() {
			m.heap = append(m.heap, item)
		} else {
			m.noteExhausted(item.iter)
		}
	}
	heap.Init(&m.heap)
	return m.Valid()
}

// SeekGE implements Iterator.
func (m *MergingIterator) SeekGE(ikey []byte) bool {
	m.heap = m.heap[:0]
	for i := range m.items {
		if item := &m.items[i]; item.iter.SeekGE(ikey) {
			m.heap = append(m.heap, item)
		} else {
			m.noteExhausted(item.iter)
		}
	}
	heap.Init(&m.heap)
	return m.Valid()
}

// Next implements Iterator.
func (m *MergingIterator) Next() bool {
	if len(m.heap) == 0 {
		return false
	}
	top := m.heap[0]
	if top.iter.Next() {
		heap.Fix(&m.heap, 0)
	} else {
		m.noteExhausted(top.iter)
		heap.Pop(&m.heap)
	}
	return m.Valid()
}

// noteExhausted records why a source stopped yielding: a source that
// "ends" on a bad block must not masquerade as a short but healthy run.
func (m *MergingIterator) noteExhausted(it Iterator) {
	if m.err == nil {
		m.err = IterError(it)
	}
}

// Error returns the first deferred read error of any merged source.
// A merge that consumed a corrupt table looks exhausted, not failed, so
// compaction and scan loops must check this after iterating.
func (m *MergingIterator) Error() error { return m.err }

// Valid implements Iterator.
func (m *MergingIterator) Valid() bool { return len(m.heap) > 0 }

// Key implements Iterator.
func (m *MergingIterator) Key() []byte { return m.heap[0].iter.Key() }

// Value implements Iterator.
func (m *MergingIterator) Value() []byte { return m.heap[0].iter.Value() }

// Close closes every source iterator, returning the deferred read
// error if one occurred, else the first close error. It drops its
// references to the sources; Reset makes m usable again.
func (m *MergingIterator) Close() error {
	first := m.err
	for _, item := range m.items {
		if err := item.iter.Close(); err != nil && first == nil {
			first = err
		}
	}
	clear(m.items)
	m.items = m.items[:0]
	m.heap = m.heap[:0]
	return first
}
