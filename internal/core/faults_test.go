package core

import (
	"fmt"
	"strings"
	"testing"

	"lsmlab/internal/manifest"
	"lsmlab/internal/vfs"
	"lsmlab/internal/vfs/faultfs"
)

// These tests drive the engine's error paths through the shared
// fault-injection filesystem (internal/vfs/faultfs), which replaced the
// test-local injector this file used to carry.

func TestFlushFailureSurfacesAndDataSurvivesInWAL(t *testing.T) {
	base := vfs.NewMem()
	ffs := faultfs.New(base, 1)
	opts := DefaultOptions(ffs, "db")
	opts.BufferBytes = 4 << 10
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}

	// Write one buffer's worth, then make the next table write fail.
	for i := 0; i < 20; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%03d", i)), make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
	}
	ffs.Arm(faultfs.ClassSST, faultfs.OpWrite, 1)
	err = db.Flush()
	if err == nil {
		t.Fatal("flush with failing device must error")
	}
	// The failure was transient and one-shot: the flush retry succeeds,
	// so the engine must NOT be degraded — only bgErr records it.
	if h := db.Health(); h.Degraded {
		t.Fatalf("single transient failure degraded the engine: %+v", h)
	}
	db.Close()

	// Reopen over the same (now healthy) filesystem: nothing is lost.
	db2, err := Open(DefaultOptions(base, "db"))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	for i := 0; i < 20; i++ {
		if _, err := db2.Get([]byte(fmt.Sprintf("k%03d", i))); err != nil {
			t.Fatalf("key %d lost after failed flush + recovery: %v", i, err)
		}
	}
}

func TestCompactionFailureKeepsOldVersionReadable(t *testing.T) {
	base := vfs.NewMem()
	ffs := faultfs.New(base, 1)
	opts := DefaultOptions(ffs, "db")
	opts.BufferBytes = 4 << 10
	opts.Workers = 1
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	model := map[string]string{}
	for i := 0; i < 300; i++ {
		k, v := fmt.Sprintf("k%03d", i%100), fmt.Sprintf("v%d", i)
		if err := db.Put([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
		model[k] = v
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	db.WaitIdle()

	// Fail the next table write, then force a compaction.
	ffs.Arm(faultfs.ClassSST, faultfs.OpWrite, 2)
	compactErr := db.Compact()
	// Whether or not the error surfaced through Compact (it may land in
	// bgErr), every key must remain readable from the old version.
	for k, want := range model {
		v, err := db.Get([]byte(k))
		if err != nil || string(v) != want {
			t.Fatalf("key %s unreadable after failed compaction: %q %v", k, v, err)
		}
	}
	_ = compactErr
	db.Close()

	// After reopen, orphaned partial outputs are swept and data intact.
	db2, err := Open(DefaultOptions(base, "db"))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	for k, want := range model {
		v, err := db2.Get([]byte(k))
		if err != nil || string(v) != want {
			t.Fatalf("key %s after reopen: %q %v", k, v, err)
		}
	}
	// Orphan sweep: every .sst on disk is referenced by the live version.
	live := db2.Version().LiveFileNums()
	names, _ := base.List("db")
	for _, name := range names {
		if strings.HasSuffix(name, ".sst") {
			var num uint64
			fmt.Sscanf(name, "%06d.sst", &num)
			if !live[num] {
				t.Errorf("orphan table %s survived recovery", name)
			}
		}
	}
}

func TestWALWriteFailureSurfacesToWriter(t *testing.T) {
	base := vfs.NewMem()
	ffs := faultfs.New(base, 1)
	opts := DefaultOptions(ffs, "db")
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Put([]byte("ok"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	ffs.Arm(faultfs.ClassWAL, faultfs.OpWrite, 1)
	if err := db.Put([]byte("doomed"), []byte("v")); err == nil {
		t.Fatal("put with failing WAL must error")
	}
	// Subsequent writes work again (failure was transient, and WAL
	// errors surface to the writer without degrading the engine).
	if err := db.Put([]byte("after"), []byte("v")); err != nil {
		t.Fatalf("post-failure put: %v", err)
	}
}

func TestManifestFailureSurfaces(t *testing.T) {
	base := vfs.NewMem()
	ffs := faultfs.New(base, 1)
	opts := DefaultOptions(ffs, "db")
	opts.BufferBytes = 2 << 10
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		db.Put([]byte(fmt.Sprintf("k%02d", i)), make([]byte, 100))
	}
	// Arm far enough ahead that some structural write (table, manifest)
	// hits it during flush.
	ffs.Arm(faultfs.ClassAny, faultfs.OpWrite, 3)
	flushErr := db.Flush()
	closeErr := db.Close()
	if flushErr == nil && closeErr == nil {
		t.Fatal("some structural write should have failed")
	}
}

// TestFailedFlushCommitLeavesOneRun fails the manifest sync of one
// flush. Its retry installs the buffer once: a flush that published its
// run before its commit succeeded left the first attempt's run in the
// version, and the retry added a second run holding the same entries.
func TestFailedFlushCommitLeavesOneRun(t *testing.T) {
	ffs := faultfs.New(vfs.NewMem(), 1)
	db, _ := testDB(t, func(o *Options) { o.FS = ffs })
	for i := 0; i < 100; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	ffs.AddRule(faultfs.Rule{Classes: faultfs.ClassManifest, Ops: faultfs.OpSync, Countdown: 1})
	db.Flush() // reports the failed attempt; the retry succeeds
	db.WaitIdle()
	if runs := db.Version().Levels[0].Runs; len(runs) != 1 {
		t.Fatalf("level 0 holds %d runs after one retried flush, want 1: %v", len(runs), db.Version().Levels[0])
	}
	if n := db.Metrics().BgRetries; n != 1 {
		t.Fatalf("BgRetries = %d, want 1", n)
	}
}

// TestInstallRefusesOverlappingRun hands install an edit whose run holds
// two overlapping files: the check runs before the commit, so neither
// the published version nor the manifest a reopen reads changes.
func TestInstallRefusesOverlappingRun(t *testing.T) {
	fs := vfs.NewMem()
	opts := DefaultOptions(fs, "db")
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	before := db.Version()
	f := before.Levels[0].Runs[0].Files[0]
	_, err = db.install(func(v *manifest.Version) *manifest.Version {
		return v.PushRun(1, &manifest.Run{Files: []*manifest.FileMeta{f, f}})
	}, nil)
	if err == nil {
		t.Fatal("install committed a run whose files overlap")
	}
	if db.Version() != before {
		t.Fatal("a refused install changed the published version")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err = Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if got, want := runsOf(db.Version()), runsOf(before); got != want {
		t.Fatalf("reopened manifest holds\n%swant\n%s", got, want)
	}
}

// runsOf renders a version's runs, one line each.
func runsOf(v *manifest.Version) string {
	s := ""
	for li, l := range v.Levels {
		for _, r := range l.Runs {
			s += fmt.Sprintf("L%d %v\n", li, r.Files)
		}
	}
	return s
}
