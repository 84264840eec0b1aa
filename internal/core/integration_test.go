package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"lsmlab/internal/compaction"
	"lsmlab/internal/vfs"
)

// TestLifecycleMatrix drives a full lifecycle — load, update, delete,
// manual compaction, reopen — across every layout with and without
// key-value separation, checking the model at each phase.
func TestLifecycleMatrix(t *testing.T) {
	for name, layout := range layoutsUnderTest() {
		for _, wisc := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/wisckey=%v", name, wisc), func(t *testing.T) {
				fs := vfs.NewMem()
				opts := DefaultOptions(fs, "db")
				opts.BufferBytes = 8 << 10
				opts.TargetFileSize = 16 << 10
				opts.BaseLevelBytes = 32 << 10
				opts.NumLevels = 4
				opts.SizeRatio = 4
				opts.Layout = layout
				if wisc {
					opts.ValueSeparationThreshold = 100
				}
				db, err := Open(opts)
				if err != nil {
					t.Fatal(err)
				}

				model := map[string]string{}
				r := rand.New(rand.NewSource(31))
				bigVal := func(i int) string {
					return fmt.Sprintf("big-%04d-%s", i, string(make([]byte, 200)))
				}

				// Phase 1: load with mixed value sizes.
				for i := 0; i < 1500; i++ {
					k := fmt.Sprintf("key-%04d", i)
					v := fmt.Sprintf("v%d", i)
					if i%3 == 0 {
						v = bigVal(i)
					}
					if err := db.Put([]byte(k), []byte(v)); err != nil {
						t.Fatal(err)
					}
					model[k] = v
				}
				// Phase 2: updates and deletes.
				for i := 0; i < 800; i++ {
					k := fmt.Sprintf("key-%04d", r.Intn(1500))
					if r.Intn(3) == 0 {
						db.Delete([]byte(k))
						delete(model, k)
					} else {
						v := fmt.Sprintf("u%d", i)
						db.Put([]byte(k), []byte(v))
						model[k] = v
					}
				}
				// Phase 3: a range delete.
				db.DeleteRange([]byte("key-0400"), []byte("key-0500"))
				for i := 400; i < 500; i++ {
					delete(model, fmt.Sprintf("key-%04d", i))
				}

				check := func(phase string) {
					t.Helper()
					for k, want := range model {
						v, err := db.Get([]byte(k))
						if err != nil || string(v) != want {
							t.Fatalf("%s: get %s = %q/%v want %q", phase, k, v, err, want)
						}
					}
					got, err := db.Scan(nil, nil, 0)
					if err != nil {
						t.Fatal(err)
					}
					if len(got) != len(model) {
						t.Fatalf("%s: scan %d keys, model %d", phase, len(got), len(model))
					}
				}
				check("pre-compact")

				if err := db.Compact(); err != nil {
					t.Fatal(err)
				}
				check("post-compact")

				if err := db.Close(); err != nil {
					t.Fatal(err)
				}
				db, err = Open(opts)
				if err != nil {
					t.Fatal(err)
				}
				defer db.Close()
				check("post-reopen")
			})
		}
	}
}

// TestSnapshotSurvivesRangeDeleteCompaction pins data with a snapshot,
// range-deletes it, compacts fully, and verifies the snapshot still
// reads the old values (the compaction must retain snapshot-protected
// versions under range tombstones).
func TestSnapshotSurvivesRangeDeleteCompaction(t *testing.T) {
	db, _ := testDB(t, nil)
	for i := 0; i < 200; i++ {
		db.Put([]byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprintf("v%03d", i)))
	}
	db.Flush()
	snap := db.NewSnapshot()
	defer snap.Release()
	db.DeleteRange([]byte("k050"), []byte("k150"))
	db.Flush()
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	// Live reads: deleted.
	if _, err := db.Get([]byte("k100")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("live read of range-deleted key: %v", err)
	}
	// Snapshot reads: all 200 keys alive.
	for i := 0; i < 200; i += 10 {
		k := fmt.Sprintf("k%03d", i)
		v, err := snap.Get([]byte(k))
		if err != nil || string(v) != fmt.Sprintf("v%03d", i) {
			t.Fatalf("snapshot read %s: %q %v", k, v, err)
		}
	}
	kvs, err := snap.Scan(nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 200 {
		t.Fatalf("snapshot scan %d keys, want 200", len(kvs))
	}
	// After release, another compaction purges for real.
	snap.Release()
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	kvs, _ = db.Scan(nil, nil, 0)
	if len(kvs) != 100 {
		t.Fatalf("post-release scan %d keys, want 100", len(kvs))
	}
}

// TestL0StallTrigger verifies the level-0 run-count stall: with
// compactions effectively disabled, enough flushes must stall writers.
func TestL0StallTrigger(t *testing.T) {
	gate := &gatedFS{FS: vfs.NewMem(), gate: make(chan struct{})}
	close(gate.gate) // flushes run freely; compactions are the issue
	opts := DefaultOptions(vfs.NewMem(), "db")
	opts.BufferBytes = 2 << 10
	opts.StallL0Runs = 3
	opts.Layout = compaction.TieredFirst{K0: 3} // compaction at 3 runs too
	opts.Workers = 1
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	val := make([]byte, 512)
	for i := 0; i < 100; i++ {
		if err := db.Put([]byte(fmt.Sprintf("key-%04d", i)), val); err != nil {
			t.Fatal(err)
		}
	}
	db.WaitIdle()
	// With the stall threshold equal to the compaction trigger, writers
	// must have paused at least once while L0 drained.
	ts := db.TreeStats()
	if ts.Levels[0].Runs >= 3+1 {
		t.Errorf("L0 exceeded stall threshold: %d runs", ts.Levels[0].Runs)
	}
}

// TestValueLogGCUpdatesPointers checks that after GC moves live values,
// reads go to the new location and the old segment is gone.
func TestValueLogGCUpdatesPointers(t *testing.T) {
	db, _ := testDB(t, func(o *Options) { o.ValueSeparationThreshold = 64 })
	db.vlog.SetMaxFileSize(2 << 10)
	val := make([]byte, 256)
	for i := 0; i < 10; i++ {
		db.Put([]byte(fmt.Sprintf("live-%02d", i)), val)
	}
	// Overwrite half: their old records become garbage.
	for i := 0; i < 5; i++ {
		db.Put([]byte(fmt.Sprintf("live-%02d", i)), val)
	}
	for gc := 0; gc < 10; gc++ {
		if _, collected, err := db.GCValueLog(); err != nil {
			t.Fatal(err)
		} else if !collected {
			break
		}
	}
	for i := 0; i < 10; i++ {
		v, err := db.Get([]byte(fmt.Sprintf("live-%02d", i)))
		if err != nil || len(v) != 256 {
			t.Fatalf("key %d after GC: len=%d err=%v", i, len(v), err)
		}
	}
}

// TestIteratorSnapshotConsistencyDuringWrites verifies an iterator
// created from a snapshot ignores concurrent writes entirely.
func TestIteratorSnapshotConsistencyDuringWrites(t *testing.T) {
	db, _ := testDB(t, nil)
	for i := 0; i < 100; i++ {
		db.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("old"))
	}
	snap := db.NewSnapshot()
	defer snap.Release()
	it, err := snap.NewIterator(IterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()

	// Interleave iteration with writes.
	count := 0
	ok := it.First()
	for ok {
		if string(it.Value()) != "old" {
			t.Fatalf("iterator saw new write at %s", it.Key())
		}
		count++
		if count%10 == 0 {
			db.Put([]byte(fmt.Sprintf("k%03d", count)), []byte("new"))
			db.Put([]byte(fmt.Sprintf("zz%03d", count)), []byte("new")) // beyond old range
		}
		ok = it.Next()
	}
	if count != 100 {
		t.Fatalf("iterated %d, want 100", count)
	}
}

// TestCompactEmptyAndTinyStores exercises edge paths.
func TestCompactEmptyAndTinyStores(t *testing.T) {
	db, _ := testDB(t, nil)
	if err := db.Compact(); err != nil {
		t.Fatalf("compact empty: %v", err)
	}
	db.Put([]byte("only"), []byte("v"))
	if err := db.Compact(); err != nil {
		t.Fatalf("compact tiny: %v", err)
	}
	if v, err := db.Get([]byte("only")); err != nil || string(v) != "v" {
		t.Fatalf("after compact: %q %v", v, err)
	}
	// Everything should sit in the last level now.
	ts := db.TreeStats()
	if ts.Levels[len(ts.Levels)-1].Files != 1 {
		t.Errorf("tiny store not in bottom level: %+v", ts.Levels)
	}
}

// TestSeqNumsNeverReused: after deletes and compactions, new writes get
// strictly larger sequence numbers (monotonic across the run).
func TestSeqNumsNeverReused(t *testing.T) {
	db, _ := testDB(t, nil)
	var last uint64
	for i := 0; i < 500; i++ {
		db.Put([]byte(fmt.Sprintf("k%d", i%50)), []byte("v"))
		if cur := db.lastSeq.Load(); cur <= last {
			t.Fatalf("seq went backwards: %d after %d", cur, last)
		} else {
			last = cur
		}
		if i%100 == 0 {
			db.Flush()
		}
	}
}

// TestReadYourOwnWritesUnderCompaction hammers gets against keys being
// compacted concurrently; every read must return the newest write.
func TestReadYourOwnWritesUnderCompaction(t *testing.T) {
	db, _ := testDB(t, func(o *Options) { o.Workers = 2 })
	const keys = 50
	latest := make([]int, keys)
	for round := 0; round < 40; round++ {
		for k := 0; k < keys; k++ {
			latest[k] = round
			if err := db.Put([]byte(fmt.Sprintf("k%02d", k)), []byte(fmt.Sprintf("r%d", round))); err != nil {
				t.Fatal(err)
			}
		}
		// Immediately verify a sample while background work churns.
		for k := 0; k < keys; k += 7 {
			v, err := db.Get([]byte(fmt.Sprintf("k%02d", k)))
			if err != nil {
				t.Fatal(err)
			}
			if string(v) != fmt.Sprintf("r%d", latest[k]) {
				t.Fatalf("round %d key %d: got %s", round, k, v)
			}
		}
	}
}

// TestDiskUsageTracksData ensures the disk accounting moves with the
// data: growing on load, shrinking after deletes + full compaction.
func TestDiskUsageTracksData(t *testing.T) {
	db, _ := testDB(t, nil)
	val := make([]byte, 500)
	for i := 0; i < 500; i++ {
		db.Put([]byte(fmt.Sprintf("k%03d", i)), val)
	}
	db.Flush()
	loaded := db.DiskUsageBytes()
	if loaded < 500*500/2 {
		t.Fatalf("disk usage %d suspiciously small", loaded)
	}
	for i := 0; i < 500; i++ {
		db.Delete([]byte(fmt.Sprintf("k%03d", i)))
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if after := db.DiskUsageBytes(); after >= loaded/4 {
		t.Errorf("after deleting everything, usage %d (was %d)", after, loaded)
	}
}

// TestFilterMemoryReported sanity-checks FilterMemoryBytes.
func TestFilterMemoryReported(t *testing.T) {
	db, _ := testDB(t, nil)
	for i := 0; i < 2000; i++ {
		db.Put([]byte(fmt.Sprintf("k%05d", i)), []byte("v"))
	}
	db.Flush()
	db.WaitIdle()
	if db.FilterMemoryBytes() <= 0 {
		t.Error("filters should occupy memory")
	}
	db2, _ := testDB(t, func(o *Options) { o.FilterMode = FilterNone })
	for i := 0; i < 500; i++ {
		db2.Put([]byte(fmt.Sprintf("k%05d", i)), []byte("v"))
	}
	db2.Flush()
	db2.WaitIdle()
	if db2.FilterMemoryBytes() != 0 {
		t.Error("FilterNone must report zero filter memory")
	}
}
