package core

import (
	"bytes"

	"lsmlab/internal/kv"
	"lsmlab/internal/sstable"
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
//
// The handle owns its read state and borrows an iterStack from the
// DB's pool for as long as it is open; Close returns the stack, and
// every method of a closed handle finds no stack to touch.
type Iterator struct {
	db   *DB
	rs   *readState // pinned until Close: keeps every source alive
	s    *iterStack // nil once closed
	opts IterOptions
	seq  kv.SeqNum

	valid      bool
	srcPastKey bool // merge resolution left the stream on the next key
	err        error
}

// iterStack is the reusable body of an Iterator: everything NewIterator
// would otherwise build per call. Its slices and buffers keep their
// capacity across uses; Iterator.Close drops every reader and block
// reference before pooling it.
type iterStack struct {
	sources []kv.Iterator
	tables  []*sstable.TableIter // cursors and their block buffers, reused in order
	merge   kv.MergingIterator
	rangeTs []kv.RangeTombstone

	// sinks report this iterator's table reads, one per level, so the
	// profiler attributes each block fetch to the level it came from.
	// Empty when the profiler is off: the tables then report to the
	// metrics alone.
	sinks []readSink

	chain mergeChain // reused by every merged key the iterator folds
	key   []byte
	value []byte
}

// NewIterator returns an iterator over the current contents.
func (db *DB) NewIterator(opts IterOptions) (*Iterator, error) {
	rs, err := db.pin()
	if err != nil {
		return nil, err
	}
	db.m.Scans.Add(1)
	return db.newIterator(rs, opts, db.readSeq(opts.snapshot))
}

// newIterator builds an iterator over the pinned state rs at visibility
// bound seq. It takes over the caller's reference on rs: Close, or a
// failed build, drops it.
func (db *DB) newIterator(rs *readState, opts IterOptions, seq kv.SeqNum) (*Iterator, error) {
	s, _ := db.iterStacks.Get().(*iterStack)
	if s == nil {
		s = new(iterStack)
	}
	it := &Iterator{db: db, rs: rs, s: s, opts: opts, seq: seq}

	for _, mw := range rs.mems {
		s.sources = append(s.sources, mw.mt.NewIterator())
		s.rangeTs = append(s.rangeTs, mw.rangeTombstones()...)
	}
	if db.prof != nil {
		for i := range rs.version.Levels {
			// Weight 1: scans attribute every block exactly (the setup
			// cost amortizes over the entries scanned).
			s.sinks = append(s.sinks, readSink{m: &db.m, lv: db.prof.levels, level: i, w: 1})
		}
	}
	n := 0
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
					s.merge.Reset(s.sources) // so Close closes what is open
					it.Close()
					return nil, err
				}
				if n == len(s.tables) {
					s.tables = append(s.tables, new(sstable.TableIter))
				}
				t := s.tables[n]
				n++
				var st sstable.ReadStats
				if db.prof != nil {
					st = &s.sinks[lvl]
				}
				r.InitIterator(t, st)
				s.sources = append(s.sources, t)
				s.rangeTs = append(s.rangeTs, r.RangeTombstones()...)
			}
		}
	}
	s.merge.Reset(s.sources)
	return it, nil
}

// covered reports whether the entry is shadowed by a visible, newer
// range tombstone.
func (it *Iterator) covered(ukey []byte, seq kv.SeqNum) bool {
	for _, rt := range it.s.rangeTs {
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
		ukey, seq, kind, _ := kv.ParseKey(it.s.merge.Key())
		if !it.inBounds(ukey) {
			it.valid = false
			return false
		}
		// Skip versions newer than the read snapshot.
		if !kv.Visible(seq, it.seq) {
			srcValid = it.s.merge.Next()
			continue
		}
		// First visible version of this key is the newest one. Decide
		// whether it is live.
		if kind == kv.KindMerge && !it.covered(ukey, seq) {
			// Fold the key's operand chain from the iterator's own
			// pinned sources (§2.2.6); the key is live even over a
			// tombstone (FullMerge with a nil base).
			return it.resolveMergeInline()
		}
		live := (kind == kv.KindSet || kind == kv.KindValuePointer) && !it.covered(ukey, seq)
		if live {
			it.s.key = append(it.s.key[:0], ukey...)
			if kind == kv.KindValuePointer {
				p, err := wisckey.DecodePointer(it.s.merge.Value())
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
				it.s.value = append(it.s.value[:0], v...)
			} else {
				it.s.value = append(it.s.value[:0], it.s.merge.Value()...)
			}
			it.valid = true
			// Leave the source on this entry; Next will skip the rest of
			// the key's versions.
			return true
		}
		// Dead key: skip every remaining version of it. (Copy the key —
		// the merged iterator's buffer is invalidated by Next.)
		it.s.key = append(it.s.key[:0], ukey...)
		srcValid = it.skipKey(it.s.key)
	}
	// Exhaustion and a corrupt block look identical from here; keep the
	// distinction so Error/Close report a truncated scan.
	if it.err == nil {
		it.err = it.s.merge.Error()
	}
	it.valid = false
	return false
}

// skipKey advances the source past every version of ukey, reporting
// whether the source remains valid.
func (it *Iterator) skipKey(ukey []byte) bool {
	for it.s.merge.Next() {
		if kv.CompareUser(kv.UserKey(it.s.merge.Key()), ukey) != 0 {
			return true
		}
	}
	return false
}

// First positions at the first live entry.
func (it *Iterator) First() bool {
	if it.s == nil {
		return false
	}
	if it.opts.LowerBound != nil {
		return it.SeekGE(it.opts.LowerBound)
	}
	return it.settle(it.s.merge.First())
}

// SeekGE positions at the first live entry with user key >= ukey.
func (it *Iterator) SeekGE(ukey []byte) bool {
	if it.s == nil {
		return false
	}
	if it.opts.LowerBound != nil && bytes.Compare(ukey, it.opts.LowerBound) < 0 {
		ukey = it.opts.LowerBound
	}
	// The search key borrows the key buffer, which settle overwrites.
	it.s.key = kv.AppendSearchKey(it.s.key[:0], ukey, kv.MaxSeqNum)
	return it.settle(it.s.merge.SeekGE(it.s.key))
}

// resolveMergeInline is called with the merged stream positioned on the
// newest visible merge operand of a key. It folds the key's chain,
// which a read ends only at a covering range tombstone (every older
// version of a visible one is visible too), and yields the result. The
// stream is left either on an older same-key version (srcPastKey false)
// or on the next key already (srcPastKey true).
func (it *Iterator) resolveMergeInline() bool {
	c := &it.s.chain
	end, err := c.walk(it.db, &it.s.merge, func(ukey []byte, seq kv.SeqNum) chainEnd {
		if it.covered(ukey, seq) {
			return chainCovered
		}
		return chainNext
	})
	var v []byte
	if err == nil {
		v, err = c.fold(it.db.opts.MergeOperator)
	}
	if err != nil {
		it.err = err
		it.valid = false
		return false
	}
	it.srcPastKey = end == chainOpen
	it.s.key = append(it.s.key[:0], c.key...)
	it.s.value = append(it.s.value[:0], v...)
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
		return it.settle(it.s.merge.Valid())
	}
	return it.settle(it.skipKey(it.s.key))
}

// Valid reports whether the iterator rests on a live entry.
func (it *Iterator) Valid() bool { return it.valid }

// Key returns the current user key (stable until the next move or
// Close; nil once closed).
func (it *Iterator) Key() []byte {
	if it.s == nil {
		return nil
	}
	return it.s.key
}

// Value returns the current value (stable until the next move or
// Close; nil once closed).
func (it *Iterator) Value() []byte {
	if it.s == nil {
		return nil
	}
	return it.s.value
}

// Err returns the first error the iterator encountered.
func (it *Iterator) Err() error { return it.err }

// Close releases the sources the iterator pinned and returns its stack
// to the pool. Closing twice is a no-op.
func (it *Iterator) Close() error {
	s := it.s
	if s == nil {
		return it.err
	}
	it.s, it.valid = nil, false
	s.merge.Close() // closes every source; the table cursors drop their readers
	clear(s.sources)
	clear(s.rangeTs)
	s.sources, s.rangeTs, s.sinks = s.sources[:0], s.rangeTs[:0], s.sinks[:0]
	s.key, s.value = s.key[:0], s.value[:0]
	it.db.iterStacks.Put(s)
	it.rs.unpin()
	it.rs = nil
	return it.err
}
