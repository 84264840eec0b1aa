package core

import (
	"fmt"
	"testing"

	"lsmlab/internal/compaction"
	"lsmlab/internal/trace"
)

// traceTestDB opens a DB with an attached tracer that retains every
// span, no block cache (every read hits disk), and no filters (every
// run is probed), so lookups produce fully annotated spans.
func traceTestDB(t *testing.T, mutate func(*Options)) (*DB, *trace.Tracer) {
	t.Helper()
	tr := trace.New(trace.Options{SampleEvery: 1, RingSize: 1024, Seed: 42})
	db, _ := testDB(t, func(o *Options) {
		o.Tracer = tr
		o.CacheBytes = 0
		o.FilterMode = FilterNone
		if mutate != nil {
			mutate(o)
		}
	})
	return db, tr
}

// lastSpan returns the most recent retained span for op.
func lastSpan(t *testing.T, tr *trace.Tracer, op string) trace.Span {
	t.Helper()
	spans := tr.Spans()
	for i := len(spans) - 1; i >= 0; i-- {
		if spans[i].Op == op {
			return spans[i]
		}
	}
	t.Fatalf("no %q span among %d retained", op, len(spans))
	return trace.Span{}
}

// TestTracedGetAnnotatesAccessPath forces a multi-run lookup with a
// cold cache and checks that the span records the runs probed, the
// uncached block reads, and a timed search stage — the slow-Get shape
// the /traces endpoint serves.
func TestTracedGetAnnotatesAccessPath(t *testing.T) {
	db, tr := traceTestDB(t, nil)
	// Two flushed L0 runs with overlapping key ranges; the probed key
	// lives only in the older run but inside the newer run's fence
	// range, so the lookup must read blocks from both.
	for i := 0; i < 50; i++ {
		db.Put([]byte(fmt.Sprintf("k-%03d", i)), []byte("gen1"))
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	db.Put([]byte("k-000"), []byte("gen2"))
	db.Put([]byte("k-049"), []byte("gen2"))
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}

	if v, err := db.Get([]byte("k-010")); err != nil || string(v) != "gen1" {
		t.Fatalf("get: %q %v", v, err)
	}
	sp := lastSpan(t, tr, trace.OpGet)
	if sp.Runs < 2 {
		t.Fatalf("multi-run lookup probed %d runs, want >= 2", sp.Runs)
	}
	if sp.BlockReads == 0 || sp.BlockReadsCached != 0 {
		t.Fatalf("cold-cache lookup: reads=%d cached=%d", sp.BlockReads, sp.BlockReadsCached)
	}
	stages := sp.Stages()
	if len(stages) == 0 || stages[0].Name != "search" {
		t.Fatalf("stages = %v, want leading search stage", stages)
	}
	if sp.DurNs <= 0 {
		t.Fatalf("span duration not stamped: %+v", sp)
	}
}

// TestTracedGetCountsFilterOutcomes checks filter probes and negatives
// reach the span when filters are enabled.
func TestTracedGetCountsFilterOutcomes(t *testing.T) {
	db, tr := traceTestDB(t, func(o *Options) {
		o.FilterMode = FilterUniform
		o.BitsPerKey = 10
	})
	for i := 0; i < 50; i++ {
		db.Put([]byte(fmt.Sprintf("k-%03d", i)), []byte("v"))
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	// In-range absent key: fence pointers admit the file, so the filter
	// gets probed and answers negative.
	if _, err := db.Get([]byte("k-025x")); err != ErrNotFound {
		t.Fatalf("get absent: %v", err)
	}
	sp := lastSpan(t, tr, trace.OpGet)
	if sp.FilterProbes == 0 {
		t.Fatalf("filtered lookup recorded no probes: %+v", sp)
	}
	if sp.FilterNegatives == 0 {
		t.Fatalf("absent key should hit a filter negative: %+v", sp)
	}
}

// TestTracedApplyRecordsCommitStages checks the write span carries the
// pipeline stages and the commit-group size.
func TestTracedApplyRecordsCommitStages(t *testing.T) {
	db, tr := traceTestDB(t, nil)
	if err := db.Put([]byte("a"), []byte("b")); err != nil {
		t.Fatal(err)
	}
	sp := lastSpan(t, tr, trace.OpPut)
	if sp.Batches < 1 {
		t.Fatalf("group size not stamped: %+v", sp)
	}
	if sp.Entries != 1 || sp.Bytes != 2 {
		t.Fatalf("entries/bytes = %d/%d", sp.Entries, sp.Bytes)
	}
	names := map[string]bool{}
	for _, st := range sp.Stages() {
		names[st.Name] = true
	}
	for _, want := range []string{"commit", "apply", "publish"} {
		if !names[want] {
			t.Fatalf("missing stage %q in %v", want, sp.Stages())
		}
	}

	// A multi-op batch spans as "batch".
	var b Batch
	b.Put([]byte("x"), []byte("1"))
	b.Put([]byte("y"), []byte("2"))
	if err := db.Apply(&b); err != nil {
		t.Fatal(err)
	}
	if sp := lastSpan(t, tr, trace.OpBatch); sp.Entries != 2 {
		t.Fatalf("batch span entries = %d", sp.Entries)
	}
}

// TestTracedScanFlushCompaction covers the remaining span sources.
func TestTracedScanFlushCompaction(t *testing.T) {
	db, tr := traceTestDB(t, nil)
	for i := 0; i < 50; i++ {
		db.Put([]byte(fmt.Sprintf("k-%03d", i)), []byte("v"))
	}
	if _, err := db.Scan([]byte("k-000"), []byte("k-010"), 0); err != nil {
		t.Fatal(err)
	}
	if sp := lastSpan(t, tr, trace.OpScan); sp.Entries != 10 {
		t.Fatalf("scan span entries = %d, want 10", sp.Entries)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if sp := lastSpan(t, tr, trace.OpFlush); sp.Bytes == 0 {
		t.Fatalf("flush span bytes = 0: %+v", sp)
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	lastSpan(t, tr, trace.OpCompaction) // must exist
}

// TestTracedIDRetention checks wire-propagated ids force retention even
// when sampling would drop the span.
func TestTracedIDRetention(t *testing.T) {
	tr := trace.New(trace.Options{SampleEvery: 1 << 30, RingSize: 64, Seed: 42})
	db, _ := testDB(t, func(o *Options) { o.Tracer = tr })
	if err := db.Put([]byte("k"), []byte("v")); err != nil { // untraced: dropped
		t.Fatal(err)
	}
	if err := db.ApplyTraced(batchOf("k2", "v2"), 0xfeed); err != nil {
		t.Fatal(err)
	}
	if _, err := db.GetTraced([]byte("k"), 0xbeef); err != nil {
		t.Fatal(err)
	}
	if _, err := db.ScanTraced(nil, nil, 1, 0xcafe); err != nil {
		t.Fatal(err)
	}
	ids := map[uint64]bool{}
	for _, sp := range tr.Spans() {
		ids[sp.TraceID] = true
	}
	for _, want := range []uint64{0xfeed, 0xbeef, 0xcafe} {
		if !ids[want] {
			t.Fatalf("wire id %#x not retained; ids=%v", want, ids)
		}
	}
	if len(ids) != 3 {
		t.Fatalf("untraced ops leaked into ring: %v", ids)
	}
}

func batchOf(k, v string) *Batch {
	var b Batch
	b.Put([]byte(k), []byte(v))
	return &b
}

// TestUntracedPathsUnchanged pins the nil-tracer behavior: no spans, no
// accessor surprises.
func TestUntracedPathsUnchanged(t *testing.T) {
	db, _ := testDB(t, nil)
	if db.Tracer() != nil {
		t.Fatal("tracer should default to nil")
	}
	if err := db.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if v, err := db.GetTraced([]byte("k"), 7); err != nil || string(v) != "v" {
		t.Fatalf("GetTraced without tracer: %q %v", v, err)
	}
	if err := db.ApplyTraced(batchOf("k2", "v2"), 7); err != nil {
		t.Fatalf("ApplyTraced without tracer: %v", err)
	}
	if _, err := db.ScanTraced(nil, nil, 0, 7); err != nil {
		t.Fatalf("ScanTraced without tracer: %v", err)
	}
}

// TestTracedSampledGetReportsOnce pins the fan-out of a table read
// that is both traced and profiler-sampled: every filter probe and
// block fetch counts once in the metrics and once in the span, and
// profSample times in the levelIO of the level it read. A lookup that
// is neither traced nor sampled touches the metrics alone.
func TestTracedSampledGetReportsOnce(t *testing.T) {
	tr := trace.New(trace.Options{RingSize: 64, Seed: 1}) // keeps wire-traced spans only
	db, _ := testDB(t, func(o *Options) {
		o.Tracer = tr
		o.Layout = compaction.TieredFirst{K0: 100} // both runs stay in L0
	})
	for i := 0; i < 50; i++ {
		db.Put([]byte(fmt.Sprintf("k-%03d", i)), []byte("gen1"))
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	db.Put([]byte("k-000"), []byte("gen2"))
	db.Put([]byte("k-049"), []byte("gen2"))
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if runs := len(db.Version().Levels[0].Runs); runs != 2 {
		t.Fatalf("L0 holds %d runs, want 2", runs)
	}
	db.Put([]byte("mem"), []byte("v")) // a lookup that reaches no table
	key := []byte("k-020")             // in the older run, inside the newer run's range
	levels := func() []levelIOSnap {
		out := make([]levelIOSnap, len(db.prof.levels))
		for i := range db.prof.levels {
			out[i] = db.prof.levels[i].snap()
		}
		return out
	}
	getSpans := func() int {
		n := 0
		for _, sp := range tr.Spans() {
			if sp.Op == trace.OpGet {
				n++
			}
		}
		return n
	}
	// nextSampled moves the get clock with memtable hits until the next
	// get is (want true) or is not (want false) sampled.
	nextSampled := func(want bool) {
		for profSampled(uint64(db.m.Gets.Load())+1) != want {
			if _, err := db.Get([]byte("mem")); err != nil {
				t.Fatal(err)
			}
		}
	}
	check := func(name string, traced bool) {
		m0, l0, s0 := db.Metrics(), levels(), getSpans()
		var v []byte
		var err error
		if traced {
			v, err = db.GetTraced(key, 99)
		} else {
			v, err = db.Get(key)
		}
		if err != nil || string(v) != "gen1" {
			t.Fatalf("%s: get = %q, %v", name, v, err)
		}
		d := db.Metrics().Sub(m0)
		l1 := levels()
		if !traced {
			if d.BlockReads == 0 || d.FilterProbes == 0 {
				t.Fatalf("%s: metrics saw %d block reads, %d filter probes", name, d.BlockReads, d.FilterProbes)
			}
			for i := range l1 {
				if l1[i].sub(l0[i]) != (levelIOSnap{}) {
					t.Errorf("%s: level %d I/O moved: %+v", name, i, l1[i].sub(l0[i]))
				}
			}
			if getSpans() != s0 {
				t.Errorf("%s: a get span was retained", name)
			}
			return
		}
		sp := lastSpan(t, tr, trace.OpGet)
		if sp.TraceID != 99 || getSpans() != s0+1 {
			t.Fatalf("%s: span %x, %d new get spans", name, sp.TraceID, getSpans()-s0)
		}
		if sp.BlockReads == 0 || sp.FilterProbes == 0 {
			t.Fatalf("%s: span saw %d block reads, %d filter probes", name, sp.BlockReads, sp.FilterProbes)
		}
		if d.BlockReads != int64(sp.BlockReads) || d.BlockReadsCached != int64(sp.BlockReadsCached) ||
			d.FilterProbes != int64(sp.FilterProbes) || d.FilterNegatives != int64(sp.FilterNegatives) {
			t.Errorf("%s: metrics reads %d (cached %d), probes %d (negative %d); span %d (%d), %d (%d)", name,
				d.BlockReads, d.BlockReadsCached, d.FilterProbes, d.FilterNegatives,
				sp.BlockReads, sp.BlockReadsCached, sp.FilterProbes, sp.FilterNegatives)
		}
		l := l1[0].sub(l0[0])
		if l.blockReads != profSample*int64(sp.BlockReads) || l.blockReadsCached != profSample*int64(sp.BlockReadsCached) ||
			l.runsProbed != profSample*int64(sp.Runs) {
			t.Errorf("%s: L0 I/O %+v, want %d× the span's %d reads (%d cached), %d runs", name,
				l, profSample, sp.BlockReads, sp.BlockReadsCached, sp.Runs)
		}
		if uncached := sp.BlockReads - sp.BlockReadsCached; (uncached > 0) != (l.readBytes > 0) || l.readBytes%profSample != 0 {
			t.Errorf("%s: L0 read %d bytes for %d uncached blocks", name, l.readBytes, uncached)
		}
		for i := 1; i < len(l1); i++ {
			if l1[i].sub(l0[i]) != (levelIOSnap{}) {
				t.Errorf("%s: level %d I/O moved: %+v", name, i, l1[i].sub(l0[i]))
			}
		}
	}
	nextSampled(true)
	check("traced+sampled, cold", true)
	nextSampled(true)
	check("traced+sampled, cached", true)
	nextSampled(false)
	check("untraced, unsampled", false)
}
