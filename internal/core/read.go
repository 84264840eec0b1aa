package core

import (
	"bytes"
	"sync"

	"lsmlab/internal/bloom"
	"lsmlab/internal/kv"
	"lsmlab/internal/metrics"
	"lsmlab/internal/sstable"
	"lsmlab/internal/trace"
	"lsmlab/internal/wisckey"
)

// readScratch carries the reusable buffers of one point lookup: the
// search key shared by every probe, the sstable cursors with the
// buffer a block the cache refuses is read into, and the sink of a
// traced or sampled lookup. Pooled so the
// steady-state get path does zero heap allocations (proved by
// BenchmarkGetHot).
type readScratch struct {
	search []byte
	sst    sstable.GetScratch
	sink   readSink
}

// readSink is the ReadStats of one traced or profiler-sampled read:
// each filter probe and block fetch counts once in the metrics, once in
// the span sp (when traced), and w times in the levelIO of the level
// being read (when lv is set: profSample on a sampled get, 1 on a scan,
// which attributes every block). It lives in the pooled readScratch for
// gets and the pooled iterStack for scans, so handing one to a table
// allocates nothing. A read that is neither traced nor sampled hands
// the tables no sink, and they report to the metrics alone.
type readSink struct {
	m     *metrics.Metrics
	sp    *trace.Span
	lv    []levelIO
	level int
	w     int64
}

func (s *readSink) FilterProbe(negative bool) {
	s.m.FilterProbe(negative)
	s.sp.FilterProbe(negative)
}

func (s *readSink) BlockRead(cached bool, bytes int) {
	s.m.BlockRead(cached, bytes)
	s.sp.BlockRead(cached)
	if s.lv == nil {
		return
	}
	l := &s.lv[s.level]
	l.blockReads.Add(s.w)
	if cached {
		l.blockReadsCached.Add(s.w)
	} else {
		l.readBytes.Add(int64(bytes) * s.w) // only uncached fetches touched the disk
	}
}

var readScratchPool = sync.Pool{New: func() any { return new(readScratch) }}

type wiscPointer = wisckey.Pointer

// readSeq resolves a reader's visibility bound: its snapshot, or the
// published watermark — not the allocation cursor, so a commit group
// still applying to the memtable stays invisible and no sequence hole
// can be observed. Call it after pinning: everything at or below a
// watermark read then is in the pinned sources or in a buffer newer than
// all of them, so the reader sees a prefix of the history.
func (db *DB) readSeq(snap kv.SeqNum) kv.SeqNum {
	if snap == 0 {
		snap = kv.SeqNum(db.visibleSeq.Load())
	}
	return snap
}

// Get returns the current value of key, or ErrNotFound.
//
// The value is read-only: it may alias the memtable or a cached block,
// so a caller that modifies it corrupts every later read of the key.
// A value read from a block the cache refused is a private copy.
func (db *DB) Get(key []byte) ([]byte, error) { return db.get(key, 0, 0) }

// GetTraced is Get carrying a wire-propagated trace id: the lookup's
// span adopts the id (0 mints a fresh one) and is always retained in
// the tracer's ring, so a client-requested trace can be found later via
// /traces. Without a tracer it behaves exactly like Get.
func (db *DB) GetTraced(key []byte, traceID uint64) ([]byte, error) {
	return db.get(key, 0, traceID)
}

func (db *DB) get(key []byte, snap kv.SeqNum, traceID uint64) ([]byte, error) {
	if !db.timeOps {
		return db.getInner(key, snap, traceID)
	}
	// Timed wrapper kept out of the common body: a deferred closure
	// capturing start would cost an allocation per get.
	start := db.opts.NowNs()
	v, err := db.getInner(key, snap, traceID)
	db.m.GetNs.RecordSince(start, db.opts.NowNs())
	return v, err
}

func (db *DB) getInner(key []byte, snap kv.SeqNum, traceID uint64) ([]byte, error) {
	// The get counter's return value doubles as the profiler's sampling
	// clock: every profSample-th lookup feeds the sketches and carries
	// the level-tagging sink (weighted back up by the sampling factor),
	// so the common get pays the always-on profiler nothing beyond the
	// counter increment it already did. One hash serves the profiler and
	// every Bloom probe (hash sharing, §2.1.3).
	n := db.m.Gets.Add(1)
	hash := bloom.Hash64(key)
	profiled := db.prof != nil && profSampled(uint64(n))
	if profiled {
		db.prof.observe(profGet, hash, key)
	}
	sp := db.startSpan(trace.OpGet, traceID, key)
	defer db.tracer.Finish(sp)
	t0 := db.spanNow(sp)
	rs, err := db.pin()
	if err != nil {
		sp.SetErr(err)
		return nil, err
	}
	defer rs.unpin()
	seq := db.readSeq(snap)
	sc := readScratchPool.Get().(*readScratch)
	e, err := db.search(rs, seq, key, hash, profiled, sp, sc)
	sp.StageSince("search", t0, db.spanNow(sp))
	if err != nil {
		readScratchPool.Put(sc)
		if err != ErrNotFound {
			sp.SetErr(err)
		}
		return nil, err
	}
	// e.Key aliases the scratch; read everything needed from it before
	// the scratch returns to the pool. e.Value aliases the memtable or
	// an immutable cached block, or is a copy out of a refused block
	// read into the scratch, and stays valid either way.
	kind := e.Kind()
	readScratchPool.Put(sc)
	var v []byte
	switch kind {
	case kv.KindSet:
		v = e.Value
	case kv.KindMerge:
		// Slow path: fold the key's operands onto their base (§2.2.6)
		// through a one-key scan of the same pinned state.
		t0 = db.spanNow(sp)
		v, err = db.getMerged(rs, key, seq)
		sp.StageSince("merge", t0, db.spanNow(sp))
	case kv.KindValuePointer:
		var p wisckey.Pointer
		if p, err = wisckey.DecodePointer(e.Value); err == nil {
			t0 = db.spanNow(sp)
			v, err = db.vlog.Read(p)
			sp.AddVlogRead()
			sp.StageSince("vlog", t0, db.spanNow(sp))
		}
	default:
		return nil, ErrNotFound
	}
	if err != nil {
		sp.SetErr(err)
		return nil, err
	}
	db.m.GetHits.Add(1)
	sp.AddBytes(int64(len(v)))
	return v, nil
}

// getEntry returns the newest visible raw entry (which may be a
// tombstone or value pointer), with range tombstones applied.
func (db *DB) getEntry(key []byte, snap kv.SeqNum) (kv.Entry, error) {
	rs, err := db.pin()
	if err != nil {
		return kv.Entry{}, err
	}
	defer rs.unpin()
	sc := readScratchPool.Get().(*readScratch)
	e, err := db.search(rs, db.readSeq(snap), key, bloom.Hash64(key), false, nil, sc)
	if err == nil {
		e = e.Clone() // detach from the scratch for non-hot-path callers
	}
	readScratchPool.Put(sc)
	return e, err
}

// search walks the pinned sources newest to oldest, maintaining the
// highest covering range-tombstone sequence seen so far. The first
// point entry found is the newest visible version; it is live only if
// no newer range tombstone covers it (tutorial §2.1.2 Get); anything
// else is ErrNotFound. It takes the key's precomputed hash, the
// profiler's sampling decision, an optional span (nil on untraced
// lookups), and the caller's pooled scratch. The returned entry's key
// aliases sc; the probe chain allocates nothing.
func (db *DB) search(rs *readState, seq kv.SeqNum, key []byte, hash uint64, profiled bool, sp *trace.Span, sc *readScratch) (kv.Entry, error) {
	var maxRT kv.SeqNum
	// One search key serves every memtable and run probe.
	sc.search = kv.AppendSearchKey(sc.search[:0], key, seq)
	// A traced or sampled lookup reports its probes through the
	// scratch's sink; any other leaves the tables reporting to the
	// metrics.
	var st sstable.ReadStats
	if sp != nil || profiled {
		sc.sink = readSink{m: &db.m, sp: sp}
		if profiled {
			sc.sink.lv, sc.sink.w = db.prof.levels, profSample
		}
		st = &sc.sink
	}

	// Memtables. A buffer's range tombstones count even when its key
	// filter rules the key out: maxRT spans every source.
	bh := bufferKeyHash(hash)
	for _, mw := range rs.mems {
		for _, rt := range mw.rangeTombstones() {
			if rt.Seq <= seq && rt.Seq > maxRT &&
				bytes.Compare(rt.Start, key) <= 0 && bytes.Compare(key, rt.End) < 0 {
				maxRT = rt.Seq
			}
		}
		if !mw.keys.mayContain(bh) {
			continue
		}
		if e, ok := mw.mt.GetSeek(sc.search, key, seq); ok {
			if e.Seq() < maxRT {
				return kv.Entry{}, ErrNotFound // shadowed by a range delete
			}
			return e, nil
		}
	}

	// Disk levels: L0 runs newest first, then deeper levels.
	for lvl, level := range rs.version.Levels {
		sc.sink.level = lvl
		for _, run := range level.Runs {
			f := run.FindFile(key)
			if f == nil {
				continue
			}
			r, err := rs.reader(f.Num)
			if err != nil {
				return kv.Entry{}, err
			}
			for _, rt := range r.RangeTombstones() {
				if rt.Seq <= seq && rt.Seq > maxRT && rt.Covers(key, 0) {
					maxRT = rt.Seq
				}
			}
			db.m.RunsProbed.Add(1)
			if profiled {
				db.prof.levels[lvl].runsProbed.Add(profSample)
			}
			sp.AddRun()
			e, ok, err := r.GetScratched(key, sc.search, hash, st, &sc.sst)
			if err != nil {
				return kv.Entry{}, err
			}
			if ok {
				if e.Seq() < maxRT {
					return kv.Entry{}, ErrNotFound // shadowed by a range delete
				}
				return e, nil
			}
			if len(r.RangeTombstones()) == 0 && r.FilterSizeBytes() > 0 {
				// The filter passed but the key was absent: a false
				// positive worth counting (only unambiguous without
				// range tombstones extending the key range).
				db.m.FilterFalsePos.Add(1)
				sp.AddFalsePositive()
			}
		}
	}
	return kv.Entry{}, ErrNotFound
}

// pointerIsLive reports whether p is still the live value location of
// key — the WiscKey GC liveness check.
func (db *DB) pointerIsLive(key []byte, p wisckey.Pointer) (bool, error) {
	e, err := db.getEntry(key, 0)
	if err == ErrNotFound {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	if e.Kind() != kv.KindValuePointer {
		return false, nil
	}
	cur, err := wisckey.DecodePointer(e.Value)
	if err != nil {
		return false, err
	}
	return cur == p, nil
}

// KV is one key-value pair returned by Scan.
type KV struct {
	Key   []byte
	Value []byte
}

// Scan returns up to limit live entries with keys in [start, end);
// limit <= 0 means unlimited. It is a convenience wrapper over
// NewIterator and Collect (tutorial §2.1.2 Scan): the keys and values
// of one call share one backing buffer.
func (db *DB) Scan(start, end []byte, limit int) ([]KV, error) {
	return db.scan(start, end, limit, 0, 0)
}

// ScanTraced is Scan carrying a wire-propagated trace id: the scan's
// span adopts the id (0 mints a fresh one) and is always retained in
// the tracer's ring. Without a tracer it behaves exactly like Scan.
func (db *DB) ScanTraced(start, end []byte, limit int, traceID uint64) ([]KV, error) {
	return db.scan(start, end, limit, 0, traceID)
}

// scan is every Scan: the latest state (snap 0) or a snapshot's.
func (db *DB) scan(start, end []byte, limit int, snap kv.SeqNum, traceID uint64) ([]KV, error) {
	if db.prof != nil {
		if h := bloom.Hash64(start); db.prof.tick(h) {
			db.prof.observe(profScan, h, start)
		}
	}
	sp := db.startSpan(trace.OpScan, traceID, start)
	defer db.tracer.Finish(sp)
	it, err := db.NewIterator(IterOptions{LowerBound: start, UpperBound: end, snapshot: snap})
	if err != nil {
		sp.SetErr(err)
		return nil, err
	}
	defer it.Close()
	t0 := db.spanNow(sp)
	out, err := Collect(it, limit)
	db.m.ScanEntries.Add(int64(len(out)))
	sp.StageSince("iterate", t0, db.spanNow(sp))
	if sp != nil {
		var bytes int64
		for _, e := range out {
			bytes += int64(len(e.Key) + len(e.Value))
		}
		sp.AddEntries(len(out))
		sp.AddBytes(bytes)
		sp.SetErr(err)
	}
	return out, err
}
