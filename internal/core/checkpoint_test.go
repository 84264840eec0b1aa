package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"lsmlab/internal/manifest"
	"lsmlab/internal/vfs"
)

func TestCheckpointBasic(t *testing.T) {
	fs := vfs.NewMem()
	opts := DefaultOptions(fs, "db")
	opts.BufferBytes = 8 << 10
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	model := map[string]string{}
	for i := 0; i < 500; i++ {
		k, v := fmt.Sprintf("k%03d", i), fmt.Sprintf("v%d", i)
		db.Put([]byte(k), []byte(v))
		model[k] = v
	}
	db.Delete([]byte("k100"))
	delete(model, "k100")

	if err := db.Checkpoint("backup"); err != nil {
		t.Fatal(err)
	}

	// Mutations after the checkpoint must not leak into it.
	db.Put([]byte("k000"), []byte("post-checkpoint"))
	db.DeleteRange([]byte("k200"), []byte("k300"))

	bopts := DefaultOptions(fs, "backup")
	backup, err := Open(bopts)
	if err != nil {
		t.Fatal(err)
	}
	defer backup.Close()
	for k, want := range model {
		v, err := backup.Get([]byte(k))
		if err != nil || string(v) != want {
			t.Fatalf("backup %s = %q/%v want %q", k, v, err, want)
		}
	}
	if _, err := backup.Get([]byte("k100")); !errors.Is(err, ErrNotFound) {
		t.Fatal("deleted key resurrected in backup")
	}
	// The backup is writable and independent.
	if err := backup.Put([]byte("only-backup"), []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get([]byte("only-backup")); !errors.Is(err, ErrNotFound) {
		t.Fatal("backup write leaked into source")
	}
}

func TestCheckpointRejectsBadTargets(t *testing.T) {
	db, _ := testDB(t, nil)
	db.Put([]byte("k"), []byte("v"))
	if err := db.Checkpoint("db"); err == nil {
		t.Fatal("checkpoint into the store dir must fail")
	}
	if err := db.Checkpoint("ck"); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint("ck"); err == nil {
		t.Fatal("checkpoint into an existing store must fail")
	}
}

func TestCheckpointWithValueSeparation(t *testing.T) {
	fs := vfs.NewMem()
	opts := DefaultOptions(fs, "db")
	opts.ValueSeparationThreshold = 64
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	big := make([]byte, 400)
	for i := 0; i < 50; i++ {
		db.Put([]byte(fmt.Sprintf("k%02d", i)), big)
	}
	if err := db.Checkpoint("ck"); err != nil {
		t.Fatal(err)
	}
	bopts := DefaultOptions(fs, "ck")
	bopts.ValueSeparationThreshold = 64
	backup, err := Open(bopts)
	if err != nil {
		t.Fatal(err)
	}
	defer backup.Close()
	for i := 0; i < 50; i++ {
		v, err := backup.Get([]byte(fmt.Sprintf("k%02d", i)))
		if err != nil || len(v) != 400 {
			t.Fatalf("backup separated value %d: len=%d err=%v", i, len(v), err)
		}
	}
}

func TestCheckpointDuringConcurrentWrites(t *testing.T) {
	db, fs := testDB(t, func(o *Options) { o.Workers = 2 })
	for i := 0; i < 2000; i++ {
		db.Put([]byte(fmt.Sprintf("seed-%04d", i)), []byte("v"))
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			db.Put([]byte(fmt.Sprintf("hot-%06d", i)), []byte("v"))
			i++
		}
	}()
	if err := db.Checkpoint("ck"); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	backup, err := Open(DefaultOptions(fs, "ck"))
	if err != nil {
		t.Fatal(err)
	}
	defer backup.Close()
	// Every seed key (written before the checkpoint) must be present.
	for i := 0; i < 2000; i += 111 {
		if _, err := backup.Get([]byte(fmt.Sprintf("seed-%04d", i))); err != nil {
			t.Fatalf("seed %d missing from checkpoint: %v", i, err)
		}
	}
	kvs, err := backup.Scan(nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) < 2000 {
		t.Fatalf("checkpoint holds %d keys, want >= 2000", len(kvs))
	}
}

// TestCheckpointLastSeqIsHeldByTables writes while Checkpoint runs and
// checks the copy's LastSeq against what it holds: every key whose
// source sequence is at or below LastSeq must be in the checkpoint. A
// round where no racing write landed at or below LastSeq checks nothing
// about the race and is retried.
func TestCheckpointLastSeqIsHeldByTables(t *testing.T) {
	for round := 0; round < 10; round++ {
		if checkpointRaceRound(t, fmt.Sprintf("ck%d", round)) {
			return
		}
	}
	t.Fatal("no racing write landed at or below a checkpoint's LastSeq in 10 rounds")
}

func checkpointRaceRound(t *testing.T, dir string) (raced bool) {
	t.Helper()
	// 8 KiB buffers filled by a few dozen puts: background flushes of
	// racing writes land in the pinned version.
	db, fs := testDB(t, nil)
	key := func(i int64) []byte { return []byte(fmt.Sprintf("w%06d", i)) }
	val := make([]byte, 256)
	var written atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := int64(0); i < 20000; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := db.Put(key(i), val); err != nil {
				t.Error(err)
				return
			}
			written.Store(i + 1)
		}
	}()
	for written.Load() < 200 {
		runtime.Gosched()
	}
	racing := written.Load() + 1 // the Put in flight may predate the call
	err := db.Checkpoint(dir)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}

	store, st, err := manifest.OpenStore(fs, vfs.Join(dir, "MANIFEST"))
	if err != nil {
		t.Fatal(err)
	}
	store.Close()
	ck, err := Open(DefaultOptions(fs, dir))
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()
	missing, n := 0, written.Load()
	for i := int64(0); i < n; i++ {
		e, err := db.getEntry(key(i), 0)
		if err != nil {
			t.Fatalf("source lost %s: %v", key(i), err)
		}
		if e.Seq() > st.LastSeq {
			continue
		}
		if _, err := ck.Get(key(i)); err != nil {
			missing++
		} else if i >= racing {
			raced = true
		}
	}
	if missing > 0 {
		t.Fatalf("%d of %d keys at or below the checkpoint's LastSeq %d are missing from it", missing, n, st.LastSeq)
	}
	return raced
}

// TestCheckpointLastSeqCoversRangeTombstones makes a range tombstone the
// last write before Checkpoint. A table's LargestSeq counts point entries
// only, so the copy's LastSeq must also cover its tombstones: otherwise a
// write into the range after the restore gets a sequence below the
// tombstone's and is hidden by it.
func TestCheckpointLastSeqCoversRangeTombstones(t *testing.T) {
	db, fs := testDB(t, nil)
	for _, k := range []string{"a1", "b1", "c1"} {
		if err := db.Put([]byte(k), []byte("old")); err != nil {
			t.Fatal(err)
		}
	}
	// Two tombstones: a write sorts above a tombstone of its own
	// sequence, so the newest must lie at least two past the points.
	for _, end := range []string{"b", "z"} {
		if err := db.DeleteRange([]byte("a"), []byte(end)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Checkpoint("ck"); err != nil {
		t.Fatal(err)
	}
	ck, err := Open(DefaultOptions(fs, "ck"))
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()
	keys := []string{"m1", "m2", "m3", "b1"}
	for _, k := range keys {
		if err := ck.Put([]byte(k), []byte("new")); err != nil {
			t.Fatal(err)
		}
	}
	check := func(when string) {
		t.Helper()
		for _, k := range keys {
			v, err := ck.Get([]byte(k))
			if err != nil || string(v) != "new" {
				t.Fatalf("%s: Get(%s) = %q, %v; want \"new\"", when, k, v, err)
			}
		}
		for _, k := range []string{"a1", "c1"} {
			if _, err := ck.Get([]byte(k)); !errors.Is(err, ErrNotFound) {
				t.Fatalf("%s: Get(%s) err = %v, want ErrNotFound", when, k, err)
			}
		}
	}
	check("before flush")
	if err := ck.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := ck.Compact(); err != nil {
		t.Fatal(err)
	}
	check("after compact")
}
