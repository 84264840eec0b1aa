package core

import (
	"bytes"

	"lsmlab/internal/kv"
	"lsmlab/internal/wisckey"
)

// IterOptions bounds and versions an iterator.
type IterOptions struct {
	// LowerBound (inclusive) and UpperBound (exclusive) restrict the
	// iterated user-key range; nil means unbounded.
	LowerBound []byte
	UpperBound []byte
	// snapshot pins visibility; 0 means "latest". Set via Snapshot.NewIterator.
	snapshot kv.SeqNum
}

// Iterator yields the live user keys and values of the store in key
// order, merging every run, hiding tombstoned and range-deleted data,
// and resolving WiscKey value pointers (tutorial §2.1.2 Scan).
type Iterator struct {
	db      *DB
	rs      *readState // pinned until Close: keeps every source alive
	merge   *kv.MergingIterator
	rangeTs []kv.RangeTombstone
	opts    IterOptions
	seq     kv.SeqNum

	key        []byte
	value      []byte
	valid      bool
	srcPastKey bool // merge resolution left the stream on the next key
	err        error

	// sinks are the profiler's per-level ReadStats shims for this
	// iterator's table sources (one per level, so scan block fetches
	// attribute to the level they came from). Empty when the profiler
	// is off.
	sinks []profSink
}

// NewIterator returns an iterator over the current contents.
func (db *DB) NewIterator(opts IterOptions) (*Iterator, error) {
	rs, err := db.pin()
	if err != nil {
		return nil, err
	}
	db.m.Scans.Add(1)
	it := &Iterator{db: db, rs: rs, opts: opts, seq: db.readSeq(opts.snapshot)}

	var sources []kv.Iterator
	for _, mw := range rs.mems {
		sources = append(sources, mw.mt.NewIterator())
		it.rangeTs = append(it.rangeTs, mw.rangeTombstones()...)
	}
	if db.prof != nil {
		it.sinks = make([]profSink, len(rs.version.Levels))
		for i := range it.sinks {
			// Weight 1: scans attribute every block exactly (the setup
			// cost amortizes over the entries scanned).
			it.sinks[i] = profSink{base: db.stSink, lv: db.prof.levels, level: i, w: 1}
		}
	}
	for lvl, level := range rs.version.Levels {
		for _, run := range level.Runs {
			for _, f := range run.Files {
				// Skip files wholly outside the bounds.
				if opts.UpperBound != nil && bytes.Compare(f.Smallest, opts.UpperBound) >= 0 {
					continue
				}
				if opts.LowerBound != nil && bytes.Compare(f.Largest, opts.LowerBound) < 0 {
					continue
				}
				r, err := rs.reader(f.Num)
				if err != nil {
					it.Close()
					return nil, err
				}
				if it.sinks != nil {
					sources = append(sources, r.NewIteratorWith(&it.sinks[lvl]))
				} else {
					sources = append(sources, r.NewIterator())
				}
				it.rangeTs = append(it.rangeTs, r.RangeTombstones()...)
			}
		}
	}
	it.merge = kv.NewMergingIterator(sources...)
	return it, nil
}

// covered reports whether the entry is shadowed by a visible, newer
// range tombstone.
func (it *Iterator) covered(ukey []byte, seq kv.SeqNum) bool {
	for _, rt := range it.rangeTs {
		if rt.Seq <= it.seq && rt.Seq > seq && rt.Covers(ukey, seq) {
			return true
		}
	}
	return false
}

// inBounds reports whether ukey is within the iterator's bounds.
func (it *Iterator) inBounds(ukey []byte) bool {
	if it.opts.UpperBound != nil && bytes.Compare(ukey, it.opts.UpperBound) >= 0 {
		return false
	}
	return true
}

// settle advances the merged stream until it rests on the newest
// visible live version of some user key, loading it into key/value.
func (it *Iterator) settle(srcValid bool) bool {
	for srcValid {
		ukey, seq, kind, _ := kv.ParseKey(it.merge.Key())
		if !it.inBounds(ukey) {
			it.valid = false
			return false
		}
		// Skip versions newer than the read snapshot.
		if !kv.Visible(seq, it.seq) {
			srcValid = it.merge.Next()
			continue
		}
		// First visible version of this key is the newest one. Decide
		// whether it is live.
		if kind == kv.KindMerge && !it.covered(ukey, seq) {
			// Fold the key's operand chain from the iterator's own
			// pinned sources (§2.2.6); the key is live even over a
			// tombstone (FullMerge with a nil base).
			return it.resolveMergeInline(ukey)
		}
		live := (kind == kv.KindSet || kind == kv.KindValuePointer) && !it.covered(ukey, seq)
		if live {
			it.key = append(it.key[:0], ukey...)
			if kind == kv.KindValuePointer {
				p, err := wisckey.DecodePointer(it.merge.Value())
				if err != nil {
					it.err = err
					it.valid = false
					return false
				}
				v, err := it.db.vlog.Read(p)
				if err != nil {
					it.err = err
					it.valid = false
					return false
				}
				it.value = append(it.value[:0], v...)
			} else {
				it.value = append(it.value[:0], it.merge.Value()...)
			}
			it.valid = true
			// Leave the source on this entry; Next will skip the rest of
			// the key's versions.
			return true
		}
		// Dead key: skip every remaining version of it. (Copy the key —
		// the merged iterator's buffer is invalidated by Next.)
		it.key = append(it.key[:0], ukey...)
		srcValid = it.skipKey(it.key)
	}
	// Exhaustion and a corrupt block look identical from here; keep the
	// distinction so Error/Close report a truncated scan.
	if it.err == nil {
		it.err = it.merge.Error()
	}
	it.valid = false
	return false
}

// skipKey advances the source past every version of ukey, reporting
// whether the source remains valid.
func (it *Iterator) skipKey(ukey []byte) bool {
	for it.merge.Next() {
		if kv.CompareUser(kv.UserKey(it.merge.Key()), ukey) != 0 {
			return true
		}
	}
	return false
}

// First positions at the first live entry.
func (it *Iterator) First() bool {
	var ok bool
	if it.opts.LowerBound != nil {
		ok = it.merge.SeekGE(kv.MakeSearchKey(it.opts.LowerBound, kv.MaxSeqNum))
	} else {
		ok = it.merge.First()
	}
	return it.settle(ok)
}

// SeekGE positions at the first live entry with user key >= ukey.
func (it *Iterator) SeekGE(ukey []byte) bool {
	if it.opts.LowerBound != nil && bytes.Compare(ukey, it.opts.LowerBound) < 0 {
		ukey = it.opts.LowerBound
	}
	return it.settle(it.merge.SeekGE(kv.MakeSearchKey(ukey, kv.MaxSeqNum)))
}

// resolveMergeInline is called with the merged stream positioned on the
// newest visible merge operand of ukey. It collects the operand chain
// down to the base value and yields the folded result. The stream is
// left either on an older same-key version (srcPastKey false) or on the
// next key already (srcPastKey true).
func (it *Iterator) resolveMergeInline(ukey []byte) bool {
	if it.db.opts.MergeOperator == nil {
		it.err = ErrNoMergeOperator
		it.valid = false
		return false
	}
	it.key = append(it.key[:0], ukey...)
	newestFirst := [][]byte{cp(it.merge.Value())}
	var base []byte
	it.srcPastKey = true // assume exhaustion; corrected on base/tombstone
	for it.merge.Next() {
		uk, seq, kind, _ := kv.ParseKey(it.merge.Key())
		if kv.CompareUser(uk, it.key) != 0 {
			break // stream now on the next key
		}
		if !kv.Visible(seq, it.seq) {
			continue
		}
		if it.covered(it.key, seq) {
			it.srcPastKey = false // still on this key; Next will skip it
			break
		}
		if kind == kv.KindMerge {
			newestFirst = append(newestFirst, cp(it.merge.Value()))
			continue
		}
		it.srcPastKey = false
		if kind == kv.KindSet {
			base = cp(it.merge.Value())
		} else if kind == kv.KindValuePointer {
			p, err := wisckey.DecodePointer(it.merge.Value())
			if err != nil {
				it.err = err
				it.valid = false
				return false
			}
			if base, err = it.db.vlog.Read(p); err != nil {
				it.err = err
				it.valid = false
				return false
			}
		}
		break // tombstones leave base nil
	}
	operands := make([][]byte, 0, len(newestFirst))
	for i := len(newestFirst) - 1; i >= 0; i-- {
		operands = append(operands, newestFirst[i])
	}
	v, err := it.db.opts.MergeOperator.FullMerge(it.key, base, operands)
	if err != nil {
		it.err = err
		it.valid = false
		return false
	}
	it.value = append(it.value[:0], v...)
	it.valid = true
	return true
}

// Next advances to the next live user key.
func (it *Iterator) Next() bool {
	if !it.valid {
		return false
	}
	if it.db.timeOps {
		start := it.db.opts.NowNs()
		defer func() { it.db.m.ScanNextNs.RecordSince(start, it.db.opts.NowNs()) }()
	}
	if it.srcPastKey {
		it.srcPastKey = false
		return it.settle(it.merge.Valid())
	}
	return it.settle(it.skipKey(it.key))
}

// Valid reports whether the iterator rests on a live entry.
func (it *Iterator) Valid() bool { return it.valid }

// Key returns the current user key (stable until the next move).
func (it *Iterator) Key() []byte { return it.key }

// Value returns the current value (stable until the next move).
func (it *Iterator) Value() []byte { return it.value }

// Err returns the first error the iterator encountered.
func (it *Iterator) Err() error { return it.err }

// Close releases the sources the iterator pinned.
func (it *Iterator) Close() error {
	if it.merge != nil {
		it.merge.Close()
	}
	it.rs.unpin()
	it.rs = nil
	it.valid = false
	return it.err
}
