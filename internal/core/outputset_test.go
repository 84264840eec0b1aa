package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"lsmlab/internal/kv"
	"lsmlab/internal/vfs"
)

// TestRangeTombstoneClippedAcrossSplitOutputs forces a flush to split
// into many small files while a range tombstone spans most of the key
// space, then validates the structural invariants: files within the run
// stay non-overlapping even with tombstone-extended bounds, and reads
// behave as if the tombstone were whole.
func TestRangeTombstoneClippedAcrossSplitOutputs(t *testing.T) {
	fs := vfs.NewMem()
	opts := DefaultOptions(fs, "db")
	opts.BufferBytes = 1 << 20 // everything in one memtable
	opts.TargetFileSize = 2048 // force many output files per flush
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	for i := 0; i < 500; i++ {
		db.Put([]byte(fmt.Sprintf("k%04d", i)), bytes.Repeat([]byte("v"), 50))
	}
	// Tombstone spanning the middle 60% of the keys.
	db.DeleteRange([]byte("k0100"), []byte("k0400"))
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}

	// Structure: one L0 run, several files, rangedels clipped per file.
	v := db.Version()
	run := v.Levels[0].Runs[0]
	if len(run.Files) < 3 {
		t.Fatalf("want several split files, got %d", len(run.Files))
	}
	var rdTotal uint64
	for _, f := range run.Files {
		rdTotal += f.NumRangeDels
	}
	if rdTotal < 2 {
		t.Fatalf("spanning tombstone should be split into pieces, got %d", rdTotal)
	}
	if err := v.Check(); err != nil {
		t.Fatalf("run invariants violated: %v", err)
	}

	// Read semantics identical to an unsplit tombstone.
	for i := 0; i < 500; i++ {
		k := fmt.Sprintf("k%04d", i)
		_, err := db.Get([]byte(k))
		deleted := i >= 100 && i < 400
		if deleted && !errors.Is(err, ErrNotFound) {
			t.Fatalf("%s should be deleted: %v", k, err)
		}
		if !deleted && err != nil {
			t.Fatalf("%s should live: %v", k, err)
		}
	}
	// Scans agree.
	kvs, err := db.Scan(nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 200 {
		t.Fatalf("scan %d live keys, want 200", len(kvs))
	}

	// And a full compaction purges it all without violating invariants.
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	kvs, _ = db.Scan(nil, nil, 0)
	if len(kvs) != 200 {
		t.Fatalf("post-compaction scan %d, want 200", len(kvs))
	}
}

// TestMultipleOverlappingRangeTombstonesAcrossSplits layers several
// tombstones with different spans and sequence interleavings.
func TestMultipleOverlappingRangeTombstonesAcrossSplits(t *testing.T) {
	fs := vfs.NewMem()
	opts := DefaultOptions(fs, "db")
	opts.TargetFileSize = 2048
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	live := map[string]bool{}
	for i := 0; i < 400; i++ {
		k := fmt.Sprintf("k%04d", i)
		db.Put([]byte(k), bytes.Repeat([]byte("v"), 40))
		live[k] = true
	}
	del := func(lo, hi int) {
		db.DeleteRange([]byte(fmt.Sprintf("k%04d", lo)), []byte(fmt.Sprintf("k%04d", hi)))
		for i := lo; i < hi; i++ {
			delete(live, fmt.Sprintf("k%04d", i))
		}
	}
	del(50, 150)
	// Resurrect part of the range, then delete a sub-slice again.
	for i := 80; i < 120; i++ {
		k := fmt.Sprintf("k%04d", i)
		db.Put([]byte(k), []byte("back"))
		live[k] = true
	}
	del(100, 110)
	del(300, 390)
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	db.WaitIdle()

	kvs, err := db.Scan(nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != len(live) {
		t.Fatalf("scan %d, model %d", len(kvs), len(live))
	}
	for _, kvp := range kvs {
		if !live[string(kvp.Key)] {
			t.Fatalf("dead key %s surfaced", kvp.Key)
		}
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	kvs, _ = db.Scan(nil, nil, 0)
	if len(kvs) != len(live) {
		t.Fatalf("post-compaction scan %d, model %d", len(kvs), len(live))
	}
}

// TestUpperBoundExclusiveHelper pins the boundary-key arithmetic the
// clipping relies on.
func TestUpperBoundExclusiveHelper(t *testing.T) {
	if upperBoundExclusive(nil) != nil {
		t.Error("nil passes through")
	}
	up := upperBoundExclusive([]byte("abc"))
	if string(up) != "abc\x00" {
		t.Errorf("upper bound %q", up)
	}
	if !(kv.CompareUser([]byte("abc"), up) < 0) {
		t.Error("bound must be strictly greater")
	}
	// Nothing sorts between k and k+\x00.
	if kv.CompareUser([]byte("abc"), up) >= 0 || kv.CompareUser(up, []byte("abd")) >= 0 {
		t.Error("bound ordering")
	}
}

// TestSplitOutputsKeepAUserKeyInOneFile: a flush keeps every version of
// a key, and an output file that fills up mid-key must not close until
// the key changes, or two files of one run would share a user key and
// the install would fail Version.Check and degrade the store.
func TestSplitOutputsKeepAUserKeyInOneFile(t *testing.T) {
	opts := DefaultOptions(vfs.NewMem(), "db")
	opts.BufferBytes = 1 << 20 // everything in one memtable
	opts.TargetFileSize = 2048
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	val := bytes.Repeat([]byte("v"), 50)
	for i := 0; i < 200; i++ {
		db.Put([]byte(fmt.Sprintf("k%04d", i%4)), append(val, byte(i)))
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if files := db.Version().TotalFiles(); files < 2 {
		t.Fatalf("want the flush split into several files, got %d", files)
	}
	for i := 196; i < 200; i++ {
		v, err := db.Get([]byte(fmt.Sprintf("k%04d", i%4)))
		if err != nil || v[len(v)-1] != byte(i) {
			t.Errorf("k%04d = %q, %v; want the newest version", i%4, v, err)
		}
	}
}
