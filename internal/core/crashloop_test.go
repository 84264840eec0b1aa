package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"lsmlab/internal/vfs"
	"lsmlab/internal/vfs/faultfs"
)

// TestCrashRecoveryLoop drives random operations through repeated
// crashes: the handle is abandoned without Close, its workers are
// stopped (a dead process deletes no files), and the faulty device
// drops every unsynced suffix before the next Open. After every
// recovery the store must agree exactly with a model map. This is the
// whole-engine durability property: WAL replay + manifest recovery +
// orphan sweep compose to lose nothing and resurrect nothing.
func TestCrashRecoveryLoop(t *testing.T) {
	ffs := faultfs.New(vfs.NewMem(), 2026)
	opts := DefaultOptions(ffs, "db")
	opts.SyncWAL = true // every acknowledged write must survive the crash
	opts.BufferBytes = 4 << 10
	opts.TargetFileSize = 8 << 10
	opts.BaseLevelBytes = 16 << 10
	opts.NumLevels = 4
	opts.SizeRatio = 3

	r := rand.New(rand.NewSource(2026))
	model := map[string]string{}
	rangeDel := func(db *DB, lo, hi int) error {
		start, end := fmt.Sprintf("k%04d", lo), fmt.Sprintf("k%04d", hi)
		if err := db.DeleteRange([]byte(start), []byte(end)); err != nil {
			return err
		}
		for k := range model {
			if k >= start && k < end {
				delete(model, k)
			}
		}
		return nil
	}

	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 8
	for round := 0; round < rounds; round++ {
		for i := 0; i < 400; i++ {
			k := fmt.Sprintf("k%04d", r.Intn(600))
			switch r.Intn(12) {
			case 0:
				if err := db.Delete([]byte(k)); err != nil {
					t.Fatal(err)
				}
				delete(model, k)
			case 1:
				lo := r.Intn(550)
				if err := rangeDel(db, lo, lo+r.Intn(40)+1); err != nil {
					t.Fatal(err)
				}
			default:
				v := fmt.Sprintf("r%d-%d", round, i)
				if err := db.Put([]byte(k), []byte(v)); err != nil {
					t.Fatal(err)
				}
				model[k] = v
			}
		}
		// Crash: abandon the handle without closing. Background work may
		// be cut off mid-flight; recovery must cope with whatever hit disk.
		switch round % 3 {
		case 0:
			// crash immediately
		case 1:
			db.Flush() // crash with clean memtable but live tree
		case 2:
			db.WaitIdle() // crash at a quiescent point
		}
		crashDB(db)
		if err := ffs.Crash(); err != nil {
			t.Fatalf("round %d crash simulation: %v", round, err)
		}
		db, err = Open(opts)
		if err != nil {
			t.Fatalf("round %d reopen: %v", round, err)
		}

		// Verify every key in the model, plus absence of deleted ones.
		for k, want := range model {
			v, err := db.Get([]byte(k))
			if err != nil || string(v) != want {
				t.Fatalf("round %d: %s = %q/%v want %q", round, k, v, err, want)
			}
		}
		kvs, err := db.Scan(nil, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(kvs) != len(model) {
			t.Fatalf("round %d: scan %d keys, model %d", round, len(kvs), len(model))
		}
	}
	db.Close()
}

// TestRepeatedReopenIsStable opens and cleanly closes the same store
// many times with no writes in between; the structure must not drift
// (no file-number churn, no data loss, no manifest bloat).
func TestRepeatedReopenIsStable(t *testing.T) {
	fs := vfs.NewMem()
	opts := DefaultOptions(fs, "db")
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		db.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("v"))
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	var files int
	for i := 0; i < 10; i++ {
		db, err = Open(opts)
		if err != nil {
			t.Fatalf("reopen %d: %v", i, err)
		}
		ts := db.TreeStats()
		if i == 0 {
			files = ts.TotalFiles
		} else if ts.TotalFiles != files {
			t.Fatalf("reopen %d changed structure: %d files vs %d", i, ts.TotalFiles, files)
		}
		if _, err := db.Get([]byte("k050")); err != nil {
			t.Fatalf("reopen %d lost data: %v", i, err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRecoveryWithValueSeparationAndRangeDels exercises the recovery
// composition: WAL-held value pointers plus range tombstones.
func TestRecoveryWithValueSeparationAndRangeDels(t *testing.T) {
	fs := vfs.NewMem()
	opts := DefaultOptions(fs, "db")
	opts.ValueSeparationThreshold = 64
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	big := make([]byte, 500)
	for i := 0; i < 50; i++ {
		db.Put([]byte(fmt.Sprintf("k%02d", i)), big)
	}
	db.DeleteRange([]byte("k10"), []byte("k20"))
	// Crash.
	db2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	for i := 0; i < 50; i++ {
		k := fmt.Sprintf("k%02d", i)
		v, err := db2.Get([]byte(k))
		if i >= 10 && i < 20 {
			if !errors.Is(err, ErrNotFound) {
				t.Fatalf("%s should be range-deleted: %v", k, err)
			}
			continue
		}
		if err != nil || len(v) != 500 {
			t.Fatalf("%s: len=%d err=%v", k, len(v), err)
		}
	}
}
