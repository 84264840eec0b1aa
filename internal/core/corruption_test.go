package core

import (
	"errors"
	"fmt"
	"testing"

	"lsmlab/internal/manifest"
	"lsmlab/internal/sstable"
	"lsmlab/internal/vfs"
	"lsmlab/internal/vfs/faultfs"
)

// corruptOneLiveTable flips a bit inside the first data block of one
// live table and returns its file number.
func corruptOneLiveTable(t *testing.T, db *DB, ffs *faultfs.FS) uint64 {
	t.Helper()
	live := db.Version().LiveFileNums()
	if len(live) == 0 {
		t.Fatal("no live tables")
	}
	var victim uint64
	for num := range live {
		victim = num
		break
	}
	if err := ffs.FlipBit(vfs.Join("db", manifest.FileName(victim)), 8*64+3); err != nil {
		t.Fatal(err)
	}
	return victim
}

// twoRunStoreWithCorruptTable opens a store with two flushed level-0
// runs and a flipped bit in one live table, whose number it returns.
func twoRunStoreWithCorruptTable(t *testing.T) (*DB, vfs.FS, uint64) {
	t.Helper()
	base := vfs.NewMem()
	ffs := faultfs.New(base, 7)
	opts := DefaultOptions(ffs, "db")
	opts.BufferBytes = 4 << 10
	opts.CacheBytes = 0
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	for round := 0; round < 2; round++ {
		for i := 0; i < 20; i++ {
			if err := db.Put([]byte(fmt.Sprintf("r%d-k%03d", round, i)), make([]byte, 100)); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	db.WaitIdle()
	return db, base, corruptOneLiveTable(t, db, ffs)
}

// TestCompactionSurfacesCorruptInput pins the regression where a
// corrupt input block made its source iterator look exhausted: the
// compaction would install a silently truncated output and delete the
// only copy of the data. It must fail instead, keeping the inputs.
func TestCompactionSurfacesCorruptInput(t *testing.T) {
	db, base, victim := twoRunStoreWithCorruptTable(t)

	err := db.Compact()
	if !errors.Is(err, sstable.ErrCorrupt) {
		t.Fatalf("Compact over a corrupt input = %v, want ErrCorrupt", err)
	}
	// The failed compaction must not have installed anything: the
	// corrupt table is still referenced and every live file exists.
	v := db.Version()
	if !v.LiveFileNums()[victim] {
		t.Fatal("corrupt input was deleted by a failed compaction")
	}
	if err := v.Check(); err != nil {
		t.Fatalf("version inconsistent after failed compaction: %v", err)
	}
	for num := range v.LiveFileNums() {
		if !base.Exists(vfs.Join("db", manifest.FileName(num))) {
			t.Fatalf("live table %06d.sst missing after failed compaction", num)
		}
	}
}

// TestManualCompactionCorruptionDegrades checks that a manual
// compaction runs under the background jobs' retry/degrade policy: a
// corrupt input degrades the store, as the next background compaction
// of the same inputs would.
func TestManualCompactionCorruptionDegrades(t *testing.T) {
	db, _, _ := twoRunStoreWithCorruptTable(t)
	if err := db.Compact(); !errors.Is(err, sstable.ErrCorrupt) {
		t.Fatalf("Compact over a corrupt input = %v, want ErrCorrupt", err)
	}
	h := db.Health()
	if !h.Degraded || h.Op != "compaction" || h.Kind != "corruption" {
		t.Fatalf("health = %+v, want degraded by a compaction corruption", h)
	}
	if err := db.Put([]byte("k"), []byte("v")); !errors.Is(err, ErrDegraded) {
		t.Fatalf("put on the degraded store = %v, want ErrDegraded", err)
	}
}

// TestBackgroundCompactionCorruptionDegrades drives the same corrupt
// input through the background compaction path: corruption is not
// retryable, so the store must degrade to read-only immediately.
func TestBackgroundCompactionCorruptionDegrades(t *testing.T) {
	base := vfs.NewMem()
	ffs := faultfs.New(base, 7)
	opts := DefaultOptions(ffs, "db")
	opts.BufferBytes = 4 << 10
	opts.CacheBytes = 0
	opts.Workers = 1
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	// Three clean flushes stack three L0 runs (one short of the
	// compaction trigger), then corrupt one of them.
	for round := 0; round < 3; round++ {
		for i := 0; i < 20; i++ {
			if err := db.Put([]byte(fmt.Sprintf("r%d-k%03d", round, i)), make([]byte, 100)); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	db.WaitIdle()
	corruptOneLiveTable(t, db, ffs)

	// The fourth flush trips the L0 compaction, which reads the corrupt
	// block and must degrade rather than truncate.
	for i := 0; i < 20; i++ {
		if err := db.Put([]byte(fmt.Sprintf("r3-k%03d", i)), make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
	}
	db.Flush() // the flush itself may already report the failed cycle
	waitDegraded(t, db)
	h := db.Health()
	if h.Kind != "corruption" {
		t.Fatalf("kind = %s, want corruption (health %+v)", h.Kind, h)
	}
	if h.Op != "compaction" {
		t.Fatalf("op = %s, want compaction (health %+v)", h.Op, h)
	}
}

// TestScanSurfacesCorruptBlock checks the scan path: an iterator whose
// source dies on a bad block must report the error, not end early.
func TestScanSurfacesCorruptBlock(t *testing.T) {
	base := vfs.NewMem()
	ffs := faultfs.New(base, 7)
	opts := DefaultOptions(ffs, "db")
	opts.BufferBytes = 4 << 10
	opts.CacheBytes = 0
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 40; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%03d", i)), make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	db.WaitIdle()
	corruptOneLiveTable(t, db, ffs)

	it, err := db.NewIterator(IterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	n := 0
	for ok := it.First(); ok; ok = it.Next() {
		n++
	}
	if err := it.Err(); !errors.Is(err, sstable.ErrCorrupt) {
		t.Fatalf("scan over corrupt table: n=%d Err=%v, want ErrCorrupt", n, err)
	}
}
