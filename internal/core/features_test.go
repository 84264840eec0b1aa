package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"lsmlab/internal/compaction"
	"lsmlab/internal/vfs"
)

func TestRangeDeleteBasic(t *testing.T) {
	db, _ := testDB(t, nil)
	for i := 0; i < 50; i++ {
		db.Put([]byte(fmt.Sprintf("k%02d", i)), []byte("v"))
	}
	db.DeleteRange([]byte("k10"), []byte("k20"))
	for i := 0; i < 50; i++ {
		k := fmt.Sprintf("k%02d", i)
		_, err := db.Get([]byte(k))
		if i >= 10 && i < 20 {
			if !errors.Is(err, ErrNotFound) {
				t.Fatalf("%s should be range-deleted: %v", k, err)
			}
		} else if err != nil {
			t.Fatalf("%s should survive: %v", k, err)
		}
	}
	// Writes after the range delete are visible.
	db.Put([]byte("k15"), []byte("resurrected"))
	if v, err := db.Get([]byte("k15")); err != nil || string(v) != "resurrected" {
		t.Fatalf("post-rangedel write: %q %v", v, err)
	}
}

func TestRangeDeleteSurvivesFlushAndCompaction(t *testing.T) {
	db, _ := testDB(t, nil)
	for i := 0; i < 200; i++ {
		db.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("v"))
	}
	db.Flush()
	db.DeleteRange([]byte("k050"), []byte("k150"))
	db.Flush()
	db.WaitIdle()
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("k%03d", i)
		_, err := db.Get([]byte(k))
		if i >= 50 && i < 150 {
			if !errors.Is(err, ErrNotFound) {
				t.Fatalf("%s should be deleted after flush: %v", k, err)
			}
		} else if err != nil {
			t.Fatalf("%s should survive flush: %v", k, err)
		}
	}
	// Scans must agree.
	got, err := db.Scan(nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 {
		t.Fatalf("scan found %d live keys, want 100", len(got))
	}
	// After a full manual compaction the deleted data is physically gone.
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	got, _ = db.Scan(nil, nil, 0)
	if len(got) != 100 {
		t.Fatalf("post-compaction scan found %d, want 100", len(got))
	}
	for i := 50; i < 150; i++ {
		if _, err := db.Get([]byte(fmt.Sprintf("k%03d", i))); !errors.Is(err, ErrNotFound) {
			t.Fatalf("key %d resurrected by compaction: %v", i, err)
		}
	}
}

func TestSingleDelete(t *testing.T) {
	db, _ := testDB(t, nil)
	db.Put([]byte("once"), []byte("v"))
	db.SingleDelete([]byte("once"))
	if _, err := db.Get([]byte("once")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("single-deleted key visible: %v", err)
	}
	db.Flush()
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get([]byte("once")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("single-delete after compaction: %v", err)
	}
	// The annihilation leaves no tombstone behind.
	m := db.Metrics()
	if m.TombstonesDropped == 0 {
		t.Error("single-delete should annihilate with its insert")
	}
}

func TestSnapshotIsolation(t *testing.T) {
	db, _ := testDB(t, nil)
	db.Put([]byte("k"), []byte("old"))
	snap := db.NewSnapshot()
	defer snap.Release()
	db.Put([]byte("k"), []byte("new"))
	db.Delete([]byte("gone-later"))

	if v, err := snap.Get([]byte("k")); err != nil || string(v) != "old" {
		t.Fatalf("snapshot get: %q %v", v, err)
	}
	if v, _ := db.Get([]byte("k")); string(v) != "new" {
		t.Fatal("live read must see new value")
	}
	// Snapshot survives flush and compaction.
	db.Flush()
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if v, err := snap.Get([]byte("k")); err != nil || string(v) != "old" {
		t.Fatalf("snapshot after compaction: %q %v", v, err)
	}
	// Snapshot of a later-deleted key still sees it.
	db.Put([]byte("d"), []byte("dv"))
	snap2 := db.NewSnapshot()
	defer snap2.Release()
	db.Delete([]byte("d"))
	db.Flush()
	db.Compact()
	if v, err := snap2.Get([]byte("d")); err != nil || string(v) != "dv" {
		t.Fatalf("snapshot of deleted key: %q %v", v, err)
	}
	// Snapshot scan sees the old world.
	kvs, err := snap2.Scan(nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, kvp := range kvs {
		if string(kvp.Key) == "d" {
			found = true
		}
	}
	if !found {
		t.Error("snapshot scan must include later-deleted key")
	}
}

func TestSnapshotReleaseAllowsGC(t *testing.T) {
	db, _ := testDB(t, nil)
	db.Put([]byte("k"), []byte("old"))
	snap := db.NewSnapshot()
	db.Put([]byte("k"), []byte("new"))
	snap.Release()
	db.Flush()
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	// After release + compaction only one version survives anywhere.
	if v, _ := db.Get([]byte("k")); string(v) != "new" {
		t.Fatal("live value wrong")
	}
	if _, err := snap.Get([]byte("k")); !errors.Is(err, ErrClosed) {
		t.Error("released snapshot must refuse reads")
	}
}

func TestIteratorBoundsAndSeek(t *testing.T) {
	db, _ := testDB(t, nil)
	for i := 0; i < 100; i++ {
		db.Put([]byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprintf("v%03d", i)))
	}
	db.Flush()
	for i := 100; i < 200; i++ { // half in memtable, half on disk
		db.Put([]byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprintf("v%03d", i)))
	}
	it, err := db.NewIterator(IterOptions{LowerBound: []byte("k050"), UpperBound: []byte("k150")})
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	count := 0
	for ok := it.First(); ok; ok = it.Next() {
		k := string(it.Key())
		if k < "k050" || k >= "k150" {
			t.Fatalf("out of bounds: %s", k)
		}
		count++
	}
	if count != 100 {
		t.Fatalf("iterated %d, want 100", count)
	}
	if !it.SeekGE([]byte("k100")) || string(it.Key()) != "k100" {
		t.Fatal("seek existing")
	}
	if !it.SeekGE([]byte("k000")) || string(it.Key()) != "k050" {
		t.Fatal("seek below lower bound must clamp")
	}
	if it.SeekGE([]byte("k199")) {
		t.Fatal("seek past upper bound")
	}
}

func TestWiscKeySeparation(t *testing.T) {
	db, _ := testDB(t, func(o *Options) {
		o.ValueSeparationThreshold = 128
	})
	small := []byte("small")
	large := make([]byte, 4096)
	for i := range large {
		large[i] = byte(i)
	}
	db.Put([]byte("small"), small)
	db.Put([]byte("large"), large)
	db.Flush()
	db.WaitIdle()

	if v, err := db.Get([]byte("small")); err != nil || string(v) != "small" {
		t.Fatalf("small: %v", err)
	}
	v, err := db.Get([]byte("large"))
	if err != nil || len(v) != len(large) {
		t.Fatalf("large: len=%d err=%v", len(v), err)
	}
	for i := range v {
		if v[i] != large[i] {
			t.Fatal("large value corrupted")
		}
	}
	// Iterators resolve pointers too.
	it, _ := db.NewIterator(IterOptions{})
	defer it.Close()
	for ok := it.First(); ok; ok = it.Next() {
		if string(it.Key()) == "large" && len(it.Value()) != len(large) {
			t.Fatal("iterator did not resolve value pointer")
		}
	}
	// The tree's footprint is small: values live in the vlog.
	if db.vlog.DiskBytes() < int64(len(large)) {
		t.Error("value log should hold the large value")
	}
}

func TestWiscKeyRecovery(t *testing.T) {
	fs := vfs.NewMem()
	opts := DefaultOptions(fs, "db")
	opts.ValueSeparationThreshold = 64
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	large := make([]byte, 1000)
	db.Put([]byte("k"), large)
	// Crash without close; pointer is in WAL, value in vlog.
	db2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	v, err := db2.Get([]byte("k"))
	if err != nil || len(v) != 1000 {
		t.Fatalf("recovered separated value: len=%d err=%v", len(v), err)
	}
}

func TestWiscKeyGC(t *testing.T) {
	db, _ := testDB(t, func(o *Options) {
		o.ValueSeparationThreshold = 64
	})
	db.vlog.SetMaxFileSize(4 << 10)
	val := make([]byte, 512)
	for i := 0; i < 40; i++ {
		db.Put([]byte(fmt.Sprintf("k%02d", i%10)), val) // heavy overwrites → garbage
	}
	before := db.vlog.DiskBytes()
	totalMoved := 0
	for i := 0; i < 5; i++ {
		moved, collected, err := db.GCValueLog()
		if err != nil {
			t.Fatal(err)
		}
		if !collected {
			break
		}
		totalMoved += moved
	}
	after := db.vlog.DiskBytes()
	if after >= before {
		t.Errorf("GC did not shrink the log: %d -> %d", before, after)
	}
	// All live keys still resolve.
	for i := 0; i < 10; i++ {
		v, err := db.Get([]byte(fmt.Sprintf("k%02d", i)))
		if err != nil || len(v) != 512 {
			t.Fatalf("key %d after GC: len=%d err=%v", i, len(v), err)
		}
	}
}

func TestTombstoneAgeDrivesCompaction(t *testing.T) {
	clock := int64(1e12)
	db, _ := testDB(t, func(o *Options) {
		o.TombstoneAgeThreshold = 10 * time.Second
		o.NowNs = func() int64 { return clock }
		o.Layout = compaction.TieredFirst{K0: 100} // nothing else triggers
		o.StallL0Runs = 0
	})
	db.Put([]byte("k"), []byte("v"))
	db.Delete([]byte("k"))
	db.Flush()
	before := db.Metrics().Compactions
	// Advance the clock past the persistence threshold and nudge.
	clock += int64(60 * time.Second)
	db.mu.Lock()
	db.cond.Broadcast()
	db.mu.Unlock()
	db.WaitIdle()
	m := db.Metrics()
	if m.Compactions <= before {
		t.Fatal("expired tombstone must force a compaction")
	}
	if m.TombstonesDropped == 0 {
		t.Error("the forced compaction should purge the tombstone")
	}
}

// gatedFS delays sstable creation until released, letting tests hold a
// flush in flight deterministically.
type gatedFS struct {
	vfs.FS
	gate chan struct{} // closed to release
}

func (g *gatedFS) Create(name string) (vfs.File, error) {
	if strings.HasSuffix(name, ".sst") {
		<-g.gate
	}
	return g.FS.Create(name)
}

func TestWriteStallsWhenBuffersFull(t *testing.T) {
	gate := &gatedFS{FS: vfs.NewMem(), gate: make(chan struct{})}
	opts := DefaultOptions(gate, "db")
	opts.BufferBytes = 2 << 10
	opts.MaxImmutableBuffers = 1
	opts.Workers = 1
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		val := make([]byte, 512)
		// Enough writes to fill the mutable buffer, the immutable queue,
		// and then stall against the blocked flush.
		for i := 0; i < 40; i++ {
			if err := db.Put([]byte(fmt.Sprintf("key-%04d", i)), val); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	// Wait until the writer reports a stall, then release the flush.
	deadline := time.After(10 * time.Second)
	for db.Metrics().WriteStalls == 0 {
		select {
		case <-deadline:
			t.Fatal("writer never stalled")
		case <-time.After(time.Millisecond):
		}
	}
	close(gate.gate)
	<-done
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if db.Metrics().WriteStalls == 0 || db.Metrics().StallNs <= 0 {
		t.Errorf("stall accounting: %+v", db.Metrics())
	}
}

func TestMonkeyFilterMode(t *testing.T) {
	db, _ := testDB(t, func(o *Options) {
		o.FilterMode = FilterMonkey
		o.FilterBudgetBits = 1 << 20
	})
	model := applyRandomWorkload(t, db, 5, 3000, 500)
	db.WaitIdle()
	verifyAgainstModel(t, db, model, 500)
	// Zero-result lookups *inside* the populated key range (so fence
	// pointers cannot exclude them) should mostly be filtered.
	for i := 0; i < 500; i++ {
		db.Get([]byte(fmt.Sprintf("key-%05d-absent", i)))
	}
	m := db.Metrics()
	if m.FilterProbes == 0 || m.FilterNegatives == 0 {
		t.Errorf("monkey filters unused: %+v", m)
	}
}

func TestConcurrentReadersAndWriters(t *testing.T) {
	db, _ := testDB(t, func(o *Options) { o.Workers = 2 })
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	errCh := make(chan error, 8)
	for w := 0; w < 3; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < 1500; i++ {
				k := []byte(fmt.Sprintf("w%d-%04d", w, i))
				if err := db.Put(k, []byte(fmt.Sprintf("v%d", i))); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, err := db.Get([]byte(fmt.Sprintf("w0-%04d", 100)))
				if err != nil && !errors.Is(err, ErrNotFound) {
					errCh <- err
					return
				}
				it, err := db.NewIterator(IterOptions{UpperBound: []byte("w1")})
				if err != nil {
					errCh <- err
					return
				}
				n := 0
				for ok := it.First(); ok && n < 50; ok = it.Next() {
					n++
				}
				it.Close()
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	db.WaitIdle()
	// Verify all writer data.
	for w := 0; w < 3; w++ {
		for i := 0; i < 1500; i += 97 {
			k := []byte(fmt.Sprintf("w%d-%04d", w, i))
			if _, err := db.Get(k); err != nil {
				t.Fatalf("%s: %v", k, err)
			}
		}
	}
}

func TestDisableWAL(t *testing.T) {
	db, _ := testDB(t, func(o *Options) { o.DisableWAL = true })
	model := applyRandomWorkload(t, db, 9, 2000, 300)
	db.WaitIdle()
	verifyAgainstModel(t, db, model, 300)
	if db.Metrics().WALBytes != 0 {
		t.Error("WAL disabled but bytes were written")
	}
}

func TestFilterNoneMode(t *testing.T) {
	db, _ := testDB(t, func(o *Options) { o.FilterMode = FilterNone })
	model := applyRandomWorkload(t, db, 13, 2000, 300)
	db.WaitIdle()
	verifyAgainstModel(t, db, model, 300)
	if db.Metrics().FilterProbes != 0 {
		t.Error("filters disabled but probed")
	}
}

func TestCompactionThrottle(t *testing.T) {
	// A virtual clock: throttle sleeps advance time instantly, keeping
	// the test deterministic and fast.
	var mu sync.Mutex
	clock := int64(1e12)
	var slept int64
	db, _ := testDB(t, func(o *Options) {
		// Small enough that single compactions exceed their own bucket's
		// one-second burst (the limiter is per-job).
		o.CompactionBandwidthBytesPerSec = 4 << 10
		o.NowNs = func() int64 { mu.Lock(); defer mu.Unlock(); return clock }
		o.SleepFunc = func(d time.Duration) {
			mu.Lock()
			defer mu.Unlock()
			clock += int64(d)
			slept += int64(d)
		}
	})
	applyRandomWorkload(t, db, 21, 4000, 600)
	db.WaitIdle()
	if db.Metrics().Compactions == 0 {
		t.Fatal("no compactions ran")
	}
	if slept == 0 {
		t.Error("throttled compactions should have charged sleep time")
	}
}

func TestSpaceAmplificationReported(t *testing.T) {
	db, _ := testDB(t, nil)
	applyRandomWorkload(t, db, 17, 3000, 100) // heavy overwrites
	db.Flush()
	db.WaitIdle()
	sa := db.SpaceAmplification()
	if sa < 1 {
		t.Errorf("space amplification %v < 1", sa)
	}
	db.Compact()
	if after := db.SpaceAmplification(); after > sa+0.01 {
		t.Errorf("full compaction should not increase space amp: %v -> %v", sa, after)
	}
}
