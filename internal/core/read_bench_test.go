package core

import (
	"fmt"
	"testing"

	"lsmlab/internal/kv"
	"lsmlab/internal/vfs"
)

// hotDB builds the two steady-state hit shapes the get fast path must
// serve without allocating: keys resident in the memtable, and keys in
// an L0 table whose blocks are warm in the block cache. Tracing and
// latency recording are off, as in a default production open.
func hotDB(tb testing.TB) (db *DB, memKey, sstKey []byte) {
	tb.Helper()
	opts := DefaultOptions(vfs.NewMem(), "db")
	var err error
	db, err = Open(opts)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { db.Close() })

	val := make([]byte, 100)
	for i := 0; i < 2000; i++ {
		if err := db.Put([]byte(fmt.Sprintf("sst%06d", i)), val); err != nil {
			tb.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := db.Put([]byte(fmt.Sprintf("mem%06d", i)), val); err != nil {
			tb.Fatal(err)
		}
	}

	memKey = []byte("mem000100")
	sstKey = []byte("sst001000")
	// Warm the block cache, the scratch pool, and the workload profiler
	// so the measured phase starts in steady state: the profiler samples
	// 1-in-32 gets, and a hot key's first sampled observation inserts it
	// into the bounded top-K/tenant tables (a one-time allocation). 128
	// warm gets make several sampled observations per key overwhelmingly
	// likely (and AllocsPerRun truncates, so a rare straggler admission
	// cannot fail the zero-alloc gate anyway).
	for i := 0; i < 128; i++ {
		if _, err := db.Get(memKey); err != nil {
			tb.Fatal(err)
		}
		if _, err := db.Get(sstKey); err != nil {
			tb.Fatal(err)
		}
	}
	return db, memKey, sstKey
}

// TestGetHotZeroAllocs pins the zero-allocation invariant of the get
// hot path: a memtable hit and a warm-cache SST hit must not touch the
// heap. A regression here shows up as GC pressure under read load long
// before it shows up in a latency percentile, so it is gated exactly.
func TestGetHotZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	db, memKey, sstKey := hotDB(t)

	if n := testing.AllocsPerRun(500, func() {
		if _, err := db.Get(memKey); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("memtable-hit Get allocates %.1f allocs/op, want 0", n)
	}

	if n := testing.AllocsPerRun(500, func() {
		if _, err := db.Get(sstKey); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("warm SST-hit Get allocates %.1f allocs/op, want 0", n)
	}

	absent := []byte("zzz-absent")
	if n := testing.AllocsPerRun(500, func() {
		if _, err := db.Get(absent); err != ErrNotFound {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("not-found Get allocates %.1f allocs/op, want 0", n)
	}
}

// TestGetColdMissAllocs pins what a Get costs when it misses a full
// block cache: the first miss on a block is refused admission and read
// into the pooled scratch, so it allocates only the value copy; the
// second miss admits the block, and the Get after that is a 0-alloc
// hit.
func TestGetColdMissAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	opts := DefaultOptions(vfs.NewMem(), "db")
	opts.CacheBytes = 16 * 4 * 4096 // four blocks per cache shard
	opts.DisableProfiler = true     // its top-K admits each new key once
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	val := make([]byte, 100)
	for i := 0; i < 20000; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%06d", i)), val); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	db.WaitIdle()

	// One user key per data block, with the block's cache key.
	type blk struct {
		key      []byte
		num, off uint64
	}
	var blocks []blk
	rs := db.state.Load()
	for _, level := range rs.version.Levels {
		for _, run := range level.Runs {
			for _, f := range run.Files {
				r, err := rs.reader(f.Num)
				if err != nil {
					t.Fatal(err)
				}
				r.BlockSpans(func(off uint64, last []byte) {
					blocks = append(blocks, blk{append([]byte(nil), kv.UserKey(last)...), f.Num, off})
				})
			}
		}
	}
	if len(blocks) < 400 {
		t.Fatalf("%d blocks, want at least 400", len(blocks))
	}
	get := func(b blk) {
		if _, err := db.Get(b.key); err != nil {
			t.Fatal(err)
		}
	}
	// Fill every shard from the first half; the second half stays
	// untouched, so no ghost fingerprint names its blocks.
	for _, b := range blocks[:len(blocks)/2] {
		get(b)
	}
	cold := blocks[len(blocks)/2:]
	i := 0
	n := testing.AllocsPerRun(40, func() { get(cold[i]); i++ })
	t.Logf("%.1f allocs per refused cold miss", n)
	for _, b := range cold[:i] {
		if db.bcache.Contains(b.num, b.off) {
			t.Fatalf("first miss on block %d@%d was admitted into a full cache", b.num, b.off)
		}
	}
	if n > 1 {
		t.Errorf("refused cold-miss Get allocates %.1f times, want at most 1 (the value copy)", n)
	}

	b := cold[i]
	get(b)
	if db.bcache.Contains(b.num, b.off) {
		t.Fatal("first miss was admitted into a full cache")
	}
	get(b)
	if !db.bcache.Contains(b.num, b.off) {
		t.Fatal("second miss was not admitted")
	}
	if n := testing.AllocsPerRun(100, func() { get(b) }); n != 0 {
		t.Errorf("Get on the admitted block allocates %.1f times, want 0", n)
	}
}

func BenchmarkGetHot(b *testing.B) {
	db, memKey, sstKey := hotDB(b)

	b.Run("memtable", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := db.Get(memKey); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sst-warm", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := db.Get(sstKey); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("not-found", func(b *testing.B) {
		key := []byte("zzz-absent")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := db.Get(key); err != ErrNotFound {
				b.Fatal(err)
			}
		}
	})
}
