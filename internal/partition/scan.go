package partition

import (
	"lsmlab/internal/core"
	"lsmlab/internal/kv"
)

// Cross-shard reads. A globally consistent scan needs more than merging
// per-shard iterators: each shard advances its own sequence numbers, so
// "one moment in time" across the store is a vector — one visibility
// watermark per shard. snapshotVec captures that vector as real
// core.Snapshots (pinning each shard's data against compaction GC)
// under the write side of applyMu, which multi-shard Apply holds
// read-locked through publish on every shard. The captured vector
// therefore observes every multi-shard batch fully or not at all —
// without stopping writers: single-shard traffic never touches the
// lock, and the exclusive section is a few atomic loads per shard.

// snapshotVec captures one snapshot per shard, atomically with respect
// to multi-shard batches.
func (s *Store) snapshotVec() []*core.Snapshot {
	s.applyMu.Lock()
	snaps := make([]*core.Snapshot, len(s.parts))
	for i, p := range s.parts {
		snaps[i] = p.NewSnapshot()
	}
	s.applyMu.Unlock()
	return snaps
}

// SeqVector returns the per-shard visibility watermarks, captured with
// the same all-or-nothing guarantee as snapshotVec. It is the sharded
// generalization of the single tree's visibleSeq token (read-your-
// writes over the wire: see wire.OpWatermark).
func (s *Store) SeqVector() []uint64 {
	if len(s.parts) == 1 {
		return s.parts[0].SeqVector()
	}
	s.applyMu.Lock()
	defer s.applyMu.Unlock()
	vec := make([]uint64, len(s.parts))
	for i, p := range s.parts {
		vec[i] = p.VisibleSeq()
	}
	return vec
}

// shardSource adapts one shard's resolved user-key iterator to the
// kv.Iterator shape the merging heap consumes, synthesizing a trailer
// on each key. The trailer content never matters for ordering: hash
// routing makes user keys disjoint across shards, so the heap only
// ever compares distinct user keys.
type shardSource struct {
	it    *core.Iterator
	ikey  []byte
	valid bool
}

func (a *shardSource) load(ok bool) bool {
	a.valid = ok
	if ok {
		a.ikey = kv.AppendKey(a.ikey[:0], a.it.Key(), 0, kv.KindSet)
	}
	return ok
}

// First implements kv.Iterator.
func (a *shardSource) First() bool { return a.load(a.it.First()) }

// SeekGE implements kv.Iterator.
func (a *shardSource) SeekGE(ikey []byte) bool { return a.load(a.it.SeekGE(kv.UserKey(ikey))) }

// Next implements kv.Iterator.
func (a *shardSource) Next() bool { return a.load(a.it.Next()) }

// Valid implements kv.Iterator.
func (a *shardSource) Valid() bool { return a.valid }

// Key implements kv.Iterator.
func (a *shardSource) Key() []byte { return a.ikey }

// Value implements kv.Iterator.
func (a *shardSource) Value() []byte { return a.it.Value() }

// Close implements kv.Iterator.
func (a *shardSource) Close() error { return a.it.Close() }

// Error surfaces the shard iterator's deferred error, so the merging
// iterator's exhaustion check (kv.IterError) sees a corrupt shard as a
// truncated stream rather than a clean end.
func (a *shardSource) Error() error { return a.it.Err() }

// storeIter is the merged cross-shard iterator: a k-way merge over one
// snapshot-pinned iterator per shard, yielding user keys in global
// order at snapshot-vector isolation. It implements core.RangeIter.
type storeIter struct {
	merge *kv.MergingIterator
	srcs  []*shardSource
	snaps []*core.Snapshot
	valid bool
	err   error
}

func (it *storeIter) load(ok bool) bool {
	it.valid = ok
	if !ok && it.err == nil {
		it.err = it.merge.Error()
	}
	return ok
}

// First implements core.RangeIter.
func (it *storeIter) First() bool { return it.load(it.merge.First()) }

// Next implements core.RangeIter.
func (it *storeIter) Next() bool {
	if !it.valid {
		return false
	}
	return it.load(it.merge.Next())
}

// Key implements core.RangeIter.
func (it *storeIter) Key() []byte { return kv.UserKey(it.merge.Key()) }

// Value implements core.RangeIter.
func (it *storeIter) Value() []byte { return it.merge.Value() }

// Err implements core.RangeIter.
func (it *storeIter) Err() error { return it.err }

// Close releases the per-shard iterators and unpins the snapshots.
func (it *storeIter) Close() error {
	if it.merge != nil {
		it.merge.Close()
		it.merge = nil
	} else {
		for _, src := range it.srcs {
			src.Close()
		}
	}
	for _, snap := range it.snaps {
		snap.Release()
	}
	it.snaps = nil
	it.valid = false
	return it.err
}

// NewRangeIter returns a merged iterator over the live entries of every
// shard in [lower, upper) (nil = unbounded), at snapshot-vector
// isolation: the result is globally sorted and observes each
// multi-shard batch all-or-nothing. One shard's own iterator already is
// that stream.
func (s *Store) NewRangeIter(lower, upper []byte) (core.RangeIter, error) {
	if len(s.parts) == 1 {
		return s.parts[0].NewRangeIter(lower, upper)
	}
	it := &storeIter{snaps: s.snapshotVec()}
	sources := make([]kv.Iterator, 0, len(it.snaps))
	for _, snap := range it.snaps {
		ci, err := snap.NewIterator(core.IterOptions{LowerBound: lower, UpperBound: upper})
		if err != nil {
			it.Close()
			return nil, err
		}
		src := &shardSource{it: ci}
		it.srcs = append(it.srcs, src)
		sources = append(sources, src)
	}
	it.merge = kv.NewMergingIterator(sources...)
	return it, nil
}

// Scan returns up to limit live entries in [start, end) across all
// shards, globally ordered and snapshot-vector consistent.
func (s *Store) Scan(start, end []byte, limit int) ([]core.KV, error) {
	if len(s.parts) == 1 {
		return s.parts[0].Scan(start, end, limit)
	}
	it, err := s.NewRangeIter(start, end)
	if err != nil {
		return nil, err
	}
	defer it.Close()
	return core.Collect(it, limit)
}
