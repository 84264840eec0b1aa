package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"lsmlab/internal/events"
	"lsmlab/internal/vfs"
	"lsmlab/internal/vfs/faultfs"
)

// checkPaired asserts that every begin event in evs has exactly one
// matching end event with the same JobID appearing later in the stream,
// and returns the number of begin/end pairs per begin type.
func checkPaired(t *testing.T, evs []events.Event) map[events.Type]int {
	t.Helper()
	pairs := make(map[events.Type]int)
	open := make(map[uint64]events.Type) // jobID → begin type
	for i, e := range evs {
		switch e.Type {
		case events.FlushBegin, events.CompactionBegin:
			if prev, dup := open[e.JobID]; dup {
				t.Fatalf("event %d: job %d began twice (%v, %v)", i, e.JobID, prev, e.Type)
			}
			open[e.JobID] = e.Type
		case events.FlushEnd, events.CompactionEnd:
			begin, ok := open[e.JobID]
			if !ok {
				t.Fatalf("event %d: %v for job %d without a begin", i, e.Type, e.JobID)
			}
			if begin.End() != e.Type {
				t.Fatalf("event %d: job %d began as %v but ended as %v", i, e.JobID, begin, e.Type)
			}
			if e.DurationNs < 0 {
				t.Fatalf("event %d: negative duration %d", i, e.DurationNs)
			}
			delete(open, e.JobID)
			pairs[begin]++
		}
	}
	if len(open) != 0 {
		t.Fatalf("unmatched begin events: %v", open)
	}
	return pairs
}

// TestFlushAndCompactionEventsPaired drives enough ingestion through a
// small tree to trigger flushes and compactions and checks that the
// ring holds exactly paired begin/end events with sane payloads.
func TestFlushAndCompactionEventsPaired(t *testing.T) {
	ring := events.NewRing(4096)
	db, _ := testDB(t, func(o *Options) { o.EventListener = ring })
	for i := 0; i < 3000; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%05d", i%1000)), []byte(strings.Repeat("v", 50))); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	evs := ring.Events()
	pairs := checkPaired(t, evs)
	if pairs[events.FlushBegin] == 0 {
		t.Error("no flush events recorded")
	}
	if pairs[events.CompactionBegin] == 0 {
		t.Error("no compaction events recorded")
	}
	m := db.Metrics()
	// Metrics count *installed* flushes; every one of those flushed
	// something, so it must appear as a successful pair with output.
	var okFlush, okCompact int
	for _, e := range evs {
		switch e.Type {
		case events.FlushEnd:
			if e.Err == nil && e.OutputFiles > 0 {
				okFlush++
				if e.OutputBytes <= 0 {
					t.Errorf("flush with %d files reports %d bytes", e.OutputFiles, e.OutputBytes)
				}
			}
		case events.CompactionEnd:
			if e.Err == nil {
				okCompact++
				if e.InputFiles == 0 || e.InputBytes == 0 {
					t.Errorf("compaction end missing input accounting: %v", e)
				}
				if e.Reason == "" {
					t.Errorf("compaction end missing reason: %v", e)
				}
			}
		}
	}
	if int64(okFlush) != m.Flushes {
		t.Errorf("successful flush events %d != Flushes counter %d", okFlush, m.Flushes)
	}
	if int64(okCompact) != m.Compactions {
		t.Errorf("successful compaction events %d != Compactions counter %d", okCompact, m.Compactions)
	}
	// Latency histograms tracked the same jobs.
	lat := db.Latencies()
	if lat.Flush.Count() < int64(pairs[events.FlushBegin]) {
		t.Errorf("flush histogram n=%d < %d flush pairs", lat.Flush.Count(), pairs[events.FlushBegin])
	}
	if lat.Put.Count() == 0 || lat.Get.Count() != 0 {
		t.Errorf("unexpected op histograms: put=%d get=%d", lat.Put.Count(), lat.Get.Count())
	}
}

// TestFlushFailureEmitsPairedEndWithError injects a table-write fault
// (via the vfs fault hooks) and checks the failed flush still emits a
// matching FlushEnd carrying the error.
func TestFlushFailureEmitsPairedEndWithError(t *testing.T) {
	ring := events.NewRing(1024)
	base := vfs.NewMem()
	ffs := faultfs.New(base, 1)
	opts := DefaultOptions(ffs, "db")
	opts.BufferBytes = 4 << 10
	opts.EventListener = ring
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%03d", i)), make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
	}
	ffs.Arm(faultfs.ClassSST, faultfs.OpWrite, 1)
	if err := db.Flush(); err == nil {
		t.Fatal("flush with failing device must error")
	}
	db.Close()

	evs := ring.Events()
	checkPaired(t, evs)
	var failed bool
	for _, e := range evs {
		if e.Type == events.FlushEnd && e.Err != nil {
			failed = true
		}
	}
	if !failed {
		t.Fatal("no FlushEnd event carries the injected error")
	}
}

// TestCompactionFailureEmitsPairedEndWithError does the same for a
// compaction job whose output write fails.
func TestCompactionFailureEmitsPairedEndWithError(t *testing.T) {
	ring := events.NewRing(4096)
	base := vfs.NewMem()
	ffs := faultfs.New(base, 1)
	opts := DefaultOptions(ffs, "db")
	opts.BufferBytes = 4 << 10
	opts.Workers = 1
	opts.EventListener = ring
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%03d", i%100)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	db.WaitIdle()
	ffs.Arm(faultfs.ClassSST, faultfs.OpWrite, 2)
	_ = db.Compact() // error may surface here or via bgErr
	db.Close()

	evs := ring.Events()
	checkPaired(t, evs)
	var failed bool
	for _, e := range evs {
		if e.Type == events.CompactionEnd && e.Err != nil {
			failed = true
		}
	}
	if !failed {
		t.Fatal("no CompactionEnd event carries the injected error")
	}
}

// slowSSTFS delays table-file writes so flushes lag ingestion and the
// write path is forced to stall.
type slowSSTFS struct {
	vfs.FS
	delay time.Duration
}

func (f slowSSTFS) Create(name string) (vfs.File, error) {
	file, err := f.FS.Create(name)
	if err != nil || !strings.HasSuffix(name, ".sst") {
		return file, err
	}
	return slowFile{File: file, delay: f.delay}, nil
}

type slowFile struct {
	vfs.File
	delay time.Duration
}

func (f slowFile) Write(p []byte) (int, error) {
	time.Sleep(f.delay)
	return f.File.Write(p)
}

func TestWriteStallEventsPaired(t *testing.T) {
	ring := events.NewRing(8192)
	db, _ := testDB(t, func(o *Options) {
		o.FS = slowSSTFS{FS: vfs.NewMem(), delay: 2 * time.Millisecond}
		o.BufferBytes = 1 << 10
		o.MaxImmutableBuffers = 1
		o.EventListener = ring
	})
	for i := 0; i < 400; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%04d", i)), make([]byte, 64)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	var begins, ends int
	for _, e := range ring.Events() {
		switch e.Type {
		case events.WriteStallBegin:
			begins++
			if e.Reason != "immutable-buffers" && e.Reason != "l0-runs" {
				t.Errorf("stall begin has unknown reason %q", e.Reason)
			}
		case events.WriteStallEnd:
			ends++
		}
	}
	if begins == 0 {
		t.Fatal("workload produced no write stalls; slow-device setup is broken")
	}
	if begins != ends {
		t.Fatalf("stall begins %d != ends %d", begins, ends)
	}
	if got := db.Metrics().WriteStalls; got != int64(begins) {
		t.Fatalf("WriteStalls counter %d != stall begin events %d", got, begins)
	}
}

func TestWALRotatedAndCheckpointEvents(t *testing.T) {
	ring := events.NewRing(1024)
	db, _ := testDB(t, func(o *Options) { o.EventListener = ring })
	for i := 0; i < 2000; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%05d", i)), make([]byte, 64)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint("ckpt"); err != nil {
		t.Fatal(err)
	}

	var rotations, checkpoints int
	for _, e := range ring.Events() {
		switch e.Type {
		case events.WALRotated:
			rotations++
			if e.Path == "" {
				t.Error("WALRotated without segment name")
			}
		case events.CheckpointEnd:
			checkpoints++
			if e.Err != nil || e.Path != "ckpt" {
				t.Errorf("checkpoint event wrong: %v", e)
			}
		}
	}
	// One segment at open plus at least one rotation per flush.
	if rotations < 2 {
		t.Errorf("expected ≥2 WAL rotations, got %d", rotations)
	}
	if checkpoints != 1 {
		t.Errorf("expected 1 checkpoint event, got %d", checkpoints)
	}
}

func TestVlogGCEndEvent(t *testing.T) {
	ring := events.NewRing(1024)
	db, _ := testDB(t, func(o *Options) {
		o.ValueSeparationThreshold = 64
		o.EventListener = ring
	})
	big := make([]byte, 256)
	for i := 0; i < 50; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%02d", i%10)), big); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := db.GCValueLog(); err != nil {
		t.Fatal(err)
	}
	var gcs int
	for _, e := range ring.Events() {
		if e.Type == events.VlogGCEnd {
			gcs++
			if e.Err != nil {
				t.Errorf("vlog GC event carries error: %v", e.Err)
			}
		}
	}
	if gcs != 1 {
		t.Fatalf("expected 1 VlogGCEnd event, got %d", gcs)
	}
}

// TestTeeListenerInEngine wires two rings through events.Tee and checks
// both observe the same stream.
func TestTeeListenerInEngine(t *testing.T) {
	r1, r2 := events.NewRing(256), events.NewRing(256)
	db, _ := testDB(t, func(o *Options) { o.EventListener = events.Tee(r1, r2) })
	for i := 0; i < 500; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%04d", i)), make([]byte, 64)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if r1.Total() == 0 || r1.Total() != r2.Total() {
		t.Fatalf("tee delivered unevenly: %d vs %d", r1.Total(), r2.Total())
	}
}
