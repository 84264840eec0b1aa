package core

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"lsmlab/internal/compaction"
	"lsmlab/internal/memtable"
	"lsmlab/internal/vfs"
)

// testDB opens a DB over a fresh MemFS with small buffers so that
// flushes and compactions trigger quickly.
func testDB(t *testing.T, mutate func(*Options)) (*DB, vfs.FS) {
	t.Helper()
	fs := vfs.NewMem()
	opts := DefaultOptions(fs, "db")
	opts.BufferBytes = 8 << 10
	opts.TargetFileSize = 16 << 10
	opts.BaseLevelBytes = 32 << 10
	opts.NumLevels = 4
	opts.SizeRatio = 4
	if mutate != nil {
		mutate(&opts)
	}
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db, fs
}

func TestPutGetDelete(t *testing.T) {
	db, _ := testDB(t, nil)
	if err := db.Put([]byte("k"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	v, err := db.Get([]byte("k"))
	if err != nil || string(v) != "v1" {
		t.Fatalf("get: %q %v", v, err)
	}
	if err := db.Put([]byte("k"), []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if v, _ = db.Get([]byte("k")); string(v) != "v2" {
		t.Fatalf("update lost: %q", v)
	}
	if err := db.Delete([]byte("k")); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get([]byte("k")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted key: %v", err)
	}
	if _, err := db.Get([]byte("never")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("absent key: %v", err)
	}
}

func TestGetAcrossFlush(t *testing.T) {
	db, _ := testDB(t, nil)
	for i := 0; i < 100; i++ {
		db.Put([]byte(fmt.Sprintf("key-%03d", i)), []byte(fmt.Sprintf("val-%03d", i)))
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if db.TreeStats().TotalFiles == 0 {
		t.Fatal("flush produced no files")
	}
	for i := 0; i < 100; i++ {
		v, err := db.Get([]byte(fmt.Sprintf("key-%03d", i)))
		if err != nil || string(v) != fmt.Sprintf("val-%03d", i) {
			t.Fatalf("key %d after flush: %q %v", i, v, err)
		}
	}
	// Newer memtable data shadows flushed data.
	db.Put([]byte("key-050"), []byte("new"))
	if v, _ := db.Get([]byte("key-050")); string(v) != "new" {
		t.Fatalf("memtable must shadow disk: %q", v)
	}
}

func TestDeleteShadowsFlushedData(t *testing.T) {
	db, _ := testDB(t, nil)
	db.Put([]byte("k"), []byte("v"))
	db.Flush()
	db.Delete([]byte("k"))
	if _, err := db.Get([]byte("k")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("tombstone in memtable must shadow disk: %v", err)
	}
	db.Flush()
	if _, err := db.Get([]byte("k")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("tombstone on disk must shadow deeper run: %v", err)
	}
}

// applyRandomWorkload drives db and a model map identically.
func applyRandomWorkload(t *testing.T, db *DB, seed int64, ops, keySpace int) map[string]string {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	model := make(map[string]string)
	for i := 0; i < ops; i++ {
		k := fmt.Sprintf("key-%05d", r.Intn(keySpace))
		switch r.Intn(10) {
		case 0, 1: // delete
			if err := db.Delete([]byte(k)); err != nil {
				t.Fatal(err)
			}
			delete(model, k)
		default:
			v := fmt.Sprintf("val-%d-%d", i, r.Intn(1000))
			if err := db.Put([]byte(k), []byte(v)); err != nil {
				t.Fatal(err)
			}
			model[k] = v
		}
	}
	return model
}

// verifyAgainstModel checks every model key and a sample of absent keys.
func verifyAgainstModel(t *testing.T, db *DB, model map[string]string, keySpace int) {
	t.Helper()
	for k, want := range model {
		v, err := db.Get([]byte(k))
		if err != nil {
			t.Fatalf("get %s: %v", k, err)
		}
		if string(v) != want {
			t.Fatalf("get %s: %q want %q", k, v, want)
		}
	}
	for i := 0; i < keySpace; i++ {
		k := fmt.Sprintf("key-%05d", i)
		if _, inModel := model[k]; !inModel {
			if _, err := db.Get([]byte(k)); !errors.Is(err, ErrNotFound) {
				t.Fatalf("key %s should be absent: %v", k, err)
			}
		}
	}
	// Full scan must equal the sorted model.
	got, err := db.Scan(nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(model) {
		t.Fatalf("scan found %d keys, model has %d", len(got), len(model))
	}
	var prev string
	for _, kvp := range got {
		k := string(kvp.Key)
		if k <= prev {
			t.Fatalf("scan out of order: %q after %q", k, prev)
		}
		prev = k
		if model[k] != string(kvp.Value) {
			t.Fatalf("scan %s: %q want %q", k, kvp.Value, model[k])
		}
	}
}

func layoutsUnderTest() map[string]compaction.Layout {
	return map[string]compaction.Layout{
		"leveling":      compaction.Leveling{},
		"tiering":       compaction.Tiering{K: 3},
		"lazy-leveling": compaction.LazyLeveling{K: 3},
		"tiered-first":  compaction.TieredFirst{K0: 3},
	}
}

func TestRandomWorkloadAllLayouts(t *testing.T) {
	for name, layout := range layoutsUnderTest() {
		t.Run(name, func(t *testing.T) {
			db, _ := testDB(t, func(o *Options) { o.Layout = layout })
			model := applyRandomWorkload(t, db, 42, 5000, 800)
			db.WaitIdle()
			verifyAgainstModel(t, db, model, 800)
			if ts := db.TreeStats(); ts.TotalFiles == 0 {
				t.Error("workload should have produced files")
			}
			if db.Metrics().Compactions == 0 {
				t.Error("workload should have triggered compactions")
			}
		})
	}
}

func TestRandomWorkloadAllMemtables(t *testing.T) {
	for _, kind := range []memtable.Kind{
		memtable.KindSkipList, memtable.KindVector,
		memtable.KindHashSkipList, memtable.KindHashLinkList,
	} {
		t.Run(string(kind), func(t *testing.T) {
			db, _ := testDB(t, func(o *Options) { o.MemtableKind = kind })
			model := applyRandomWorkload(t, db, 7, 3000, 500)
			db.WaitIdle()
			verifyAgainstModel(t, db, model, 500)
		})
	}
}

func TestManualCompactToBottom(t *testing.T) {
	db, _ := testDB(t, nil)
	model := applyRandomWorkload(t, db, 3, 4000, 600)
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	ts := db.TreeStats()
	for i := 0; i < len(ts.Levels)-1; i++ {
		if ts.Levels[i].Files != 0 {
			t.Errorf("L%d should be empty after manual compaction, has %d files", i, ts.Levels[i].Files)
		}
	}
	if ts.Levels[len(ts.Levels)-1].Files == 0 {
		t.Error("bottom level empty after manual compaction")
	}
	verifyAgainstModel(t, db, model, 600)
	// Tombstones must be fully purged at the bottom.
	bottom := db.Version().Levels[db.opts.NumLevels-1]
	for _, r := range bottom.Runs {
		for _, f := range r.Files {
			if f.NumTombstones != 0 {
				t.Errorf("file %d retains %d tombstones after full compaction", f.Num, f.NumTombstones)
			}
		}
	}
}

// TestCompactRacingWrites runs manual compactions against a writer
// that keeps flushing and triggering background compactions. Compact
// must pick its job from the version it runs against: a job picked
// before waiting out background work can name inputs a background
// compaction has since replaced ("table N is not in the pinned
// version").
func TestCompactRacingWrites(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	db, _ := testDB(t, func(o *Options) { o.BufferBytes = 2 << 10; o.Workers = 2 })
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		val := make([]byte, 64)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := db.Put([]byte(fmt.Sprintf("k%04d", i%1000)), val); err != nil {
				t.Errorf("put: %v", err)
				return
			}
		}
	}()
	defer wg.Wait()
	defer close(stop)
	calls, deadline := 0, time.Now().Add(3*time.Second)
	for ; calls < 3000 && time.Now().Before(deadline); calls++ {
		if err := db.Compact(); err != nil {
			t.Fatalf("compact call %d: %v", calls, err)
		}
	}
	t.Logf("%d compactions", calls)
}

func TestRecoveryFromWAL(t *testing.T) {
	fs := vfs.NewMem()
	opts := DefaultOptions(fs, "db")
	opts.BufferBytes = 1 << 20 // large: nothing flushes
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		db.Put([]byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprintf("v%03d", i)))
	}
	db.Delete([]byte("k005"))
	db.DeleteRange([]byte("k100"), []byte("k110"))
	// Simulate a crash: do NOT close. Reopen over the same FS.
	db2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if v, err := db2.Get([]byte("k000")); err != nil || string(v) != "v000" {
		t.Fatalf("recovered value: %q %v", v, err)
	}
	if _, err := db2.Get([]byte("k005")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("recovered tombstone: %v", err)
	}
	for i := 100; i < 110; i++ {
		if _, err := db2.Get([]byte(fmt.Sprintf("k%03d", i))); !errors.Is(err, ErrNotFound) {
			t.Fatalf("recovered range delete at %d: %v", i, err)
		}
	}
	if v, err := db2.Get([]byte("k110")); err != nil || string(v) != "v110" {
		t.Fatalf("range delete end must be exclusive: %q %v", v, err)
	}
}

func TestRecoveryAfterCleanClose(t *testing.T) {
	fs := vfs.NewMem()
	opts := DefaultOptions(fs, "db")
	opts.BufferBytes = 4 << 10
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	model := applyRandomWorkload(t, db, 11, 2000, 300)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	verifyAgainstModel(t, db2, model, 300)
	// Sequence numbers must continue past recovery.
	preSeq := db2.lastSeq.Load()
	db2.Put([]byte("post"), []byte("x"))
	if db2.lastSeq.Load() <= preSeq {
		t.Error("sequence numbers must be monotone across recovery")
	}
}

func TestOperationsAfterCloseFail(t *testing.T) {
	fs := vfs.NewMem()
	db, err := Open(DefaultOptions(fs, "db"))
	if err != nil {
		t.Fatal(err)
	}
	db.Put([]byte("k"), []byte("v"))
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Put([]byte("k2"), []byte("v")); !errors.Is(err, ErrClosed) {
		t.Errorf("put after close: %v", err)
	}
	if _, err := db.Get([]byte("k")); !errors.Is(err, ErrClosed) {
		t.Errorf("get after close: %v", err)
	}
	if _, err := db.NewIterator(IterOptions{}); !errors.Is(err, ErrClosed) {
		t.Errorf("iterator after close: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

func TestBatchAtomicVisibility(t *testing.T) {
	db, _ := testDB(t, nil)
	var b Batch
	b.Put([]byte("a"), []byte("1"))
	b.Put([]byte("b"), []byte("2"))
	b.Delete([]byte("a"))
	if b.Len() != 3 {
		t.Fatal("batch length")
	}
	if err := db.Apply(&b); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get([]byte("a")); !errors.Is(err, ErrNotFound) {
		t.Error("in-batch delete must win over earlier put")
	}
	if v, _ := db.Get([]byte("b")); string(v) != "2" {
		t.Error("batch put lost")
	}
	b.Reset()
	if b.Len() != 0 {
		t.Error("reset")
	}
	if err := db.Apply(&b); err != nil {
		t.Error("empty batch must be a no-op")
	}
}
