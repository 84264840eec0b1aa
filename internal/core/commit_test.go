package core

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"lsmlab/internal/vfs"
	"lsmlab/internal/vfs/faultfs"
	"lsmlab/internal/wal"
)

// stressKey names one op of one batch of one writer, so tests can
// reconstruct exactly which keys each Apply call carried.
func stressKey(w, batch, op int) []byte {
	return []byte(fmt.Sprintf("w%02d-b%04d-o%d", w, batch, op))
}

// TestConcurrentApplyStress drives N writers × M batches through the
// commit pipeline and checks the pipeline's core invariants: no lost or
// duplicated sequence numbers (the final watermark equals ops issued),
// visibleSeq is monotonic while writes race, every acknowledged key is
// readable, and the group-size accounting adds up. Run with -race.
func TestConcurrentApplyStress(t *testing.T) {
	for _, syncWAL := range []bool{false, true} {
		t.Run(fmt.Sprintf("sync=%v", syncWAL), func(t *testing.T) {
			fs := vfs.NewMem()
			opts := DefaultOptions(fs, "db")
			opts.SyncWAL = syncWAL
			db, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()

			const writers = 8
			const opsPerBatch = 3
			batches := 200
			if testing.Short() {
				batches = 40
			}

			// Watermark sampler: visibleSeq must never move backwards.
			stop := make(chan struct{})
			var samplerWG sync.WaitGroup
			samplerWG.Add(1)
			go func() {
				defer samplerWG.Done()
				var last uint64
				for {
					select {
					case <-stop:
						return
					default:
					}
					v := db.visibleSeq.Load()
					if v < last {
						t.Errorf("visibleSeq moved backwards: %d -> %d", last, v)
						return
					}
					last = v
				}
			}()

			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					var b Batch
					for i := 0; i < batches; i++ {
						b.Reset()
						for j := 0; j < opsPerBatch; j++ {
							b.Put(stressKey(w, i, j), []byte(fmt.Sprintf("v-%d-%d-%d", w, i, j)))
						}
						if err := db.Apply(&b); err != nil {
							t.Errorf("writer %d batch %d: %v", w, i, err)
							return
						}
						if i%16 == 0 {
							// Read-your-writes: an acknowledged batch must be
							// visible immediately.
							if _, err := db.Get(stressKey(w, i, 0)); err != nil {
								t.Errorf("writer %d lost own batch %d: %v", w, i, err)
								return
							}
						}
					}
				}(w)
			}
			wg.Wait()
			close(stop)
			samplerWG.Wait()

			// The sequence space starts at 1 (0 is the read-at-latest
			// sentinel), so totalOps allocations land on base+totalOps.
			totalOps := uint64(writers*batches*opsPerBatch) + 1
			if got := db.lastSeq.Load(); got != totalOps {
				t.Errorf("lastSeq = %d, want %d (lost or duplicated seqnums)", got, totalOps)
			}
			if got := db.visibleSeq.Load(); got != totalOps {
				t.Errorf("visibleSeq = %d, want %d (watermark stalled)", got, totalOps)
			}
			for w := 0; w < writers; w++ {
				for i := 0; i < batches; i++ {
					for j := 0; j < opsPerBatch; j++ {
						v, err := db.Get(stressKey(w, i, j))
						if err != nil {
							t.Fatalf("key w=%d b=%d o=%d unreadable: %v", w, i, j, err)
						}
						if want := fmt.Sprintf("v-%d-%d-%d", w, i, j); string(v) != want {
							t.Fatalf("key w=%d b=%d o=%d = %q, want %q", w, i, j, v, want)
						}
					}
				}
			}

			m := db.Metrics()
			if m.CommitBatches != int64(writers*batches) {
				t.Errorf("CommitBatches = %d, want %d", m.CommitBatches, writers*batches)
			}
			if m.CommitGroups < 1 || m.CommitGroups > m.CommitBatches {
				t.Errorf("CommitGroups = %d out of range [1, %d]", m.CommitGroups, m.CommitBatches)
			}
			if gs := db.Latencies().GroupSize; gs.Sum != int64(writers*batches) {
				t.Errorf("group-size histogram sum = %d, want %d (batches must partition into groups)", gs.Sum, writers*batches)
			}
			if syncWAL && m.WALSyncs != m.CommitGroups {
				t.Errorf("WALSyncs = %d, want one per group (%d)", m.WALSyncs, m.CommitGroups)
			}
		})
	}
}

// TestSnapshotAtomicityUnderConcurrentWrites races snapshot readers
// against batched writers: because visibleSeq advances in commit order
// past whole batches, a snapshot must observe each batch all-or-nothing.
func TestSnapshotAtomicityUnderConcurrentWrites(t *testing.T) {
	fs := vfs.NewMem()
	db, err := Open(DefaultOptions(fs, "db"))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	const writers = 4
	const opsPerBatch = 4
	batches := 150
	if testing.Short() {
		batches = 30
	}

	stop := make(chan struct{})
	var readerWG sync.WaitGroup
	for r := 0; r < 2; r++ {
		readerWG.Add(1)
		go func(seed int64) {
			defer readerWG.Done()
			rnd := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := db.NewSnapshot()
				w, i := rnd.Intn(writers), rnd.Intn(batches)
				visible := 0
				for j := 0; j < opsPerBatch; j++ {
					_, err := snap.Get(stressKey(w, i, j))
					switch {
					case err == nil:
						visible++
					case errors.Is(err, ErrNotFound):
					default:
						t.Errorf("snapshot get: %v", err)
						snap.Release()
						return
					}
				}
				snap.Release()
				if visible != 0 && visible != opsPerBatch {
					t.Errorf("snapshot saw %d/%d ops of batch w=%d b=%d: batch visibility must be atomic",
						visible, opsPerBatch, w, i)
					return
				}
			}
		}(int64(r) + 1)
	}

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var b Batch
			for i := 0; i < batches; i++ {
				b.Reset()
				for j := 0; j < opsPerBatch; j++ {
					b.Put(stressKey(w, i, j), []byte("v"))
				}
				if err := db.Apply(&b); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	readerWG.Wait()
}

// TestGroupCommitCrashRecovery injects a WAL device failure while
// concurrent writers stream batches, then simulates a crash (reopen
// without Close). Every batch that was acknowledged must be fully
// recovered; every batch that errored or never returned must be
// recovered all-or-nothing — per-batch atomicity survives the group
// framing.
func TestGroupCommitCrashRecovery(t *testing.T) {
	base := vfs.NewMem()
	ffs := faultfs.New(base, 1)
	db, err := Open(DefaultOptions(ffs, "db"))
	if err != nil {
		t.Fatal(err)
	}

	const writers = 4
	const opsPerBatch = 3
	const batches = 80
	var acked sync.Map // "w-b" -> true

	// Fail the 60th WAL write: with group commit, that takes down one
	// whole commit group mid-stream.
	ffs.Arm(faultfs.ClassWAL, faultfs.OpWrite, 60)

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var b Batch
			for i := 0; i < batches; i++ {
				b.Reset()
				for j := 0; j < opsPerBatch; j++ {
					b.Put(stressKey(w, i, j), []byte("v"))
				}
				if err := db.Apply(&b); err == nil {
					acked.Store(fmt.Sprintf("%d-%d", w, i), true)
				}
			}
		}(w)
	}
	wg.Wait()

	// Crash: abandon db without Close and reopen over the healthy base.
	db2, err := Open(DefaultOptions(base, "db"))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()

	for w := 0; w < writers; w++ {
		for i := 0; i < batches; i++ {
			present := 0
			for j := 0; j < opsPerBatch; j++ {
				if _, err := db2.Get(stressKey(w, i, j)); err == nil {
					present++
				}
			}
			if _, ok := acked.Load(fmt.Sprintf("%d-%d", w, i)); ok {
				if present != opsPerBatch {
					t.Errorf("acked batch w=%d b=%d lost: %d/%d ops recovered", w, i, present, opsPerBatch)
				}
			} else if present != 0 && present != opsPerBatch {
				t.Errorf("failed batch w=%d b=%d partially recovered: %d/%d ops", w, i, present, opsPerBatch)
			}
		}
	}
}

// TestFlushWaitsForPublish holds one writer between its memtable insert
// and its publish while Compact flushes the buffer it wrote to and
// merges the whole tree. No table may hold the unpublished version: a
// compaction keeps one version per explicit snapshot only, so it would
// drop the published version beneath it, and reads at visibleSeq would
// find neither. Reads during the hold must return the previous value.
func TestFlushWaitsForPublish(t *testing.T) {
	db, _ := testDB(t, nil)
	key := []byte("k")
	if err := db.Put(key, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	held, release := make(chan struct{}), make(chan struct{})
	db.beforePublish = func(ops []wal.Op) {
		if string(ops[0].Value) == "v2" {
			close(held)
			<-release
		}
	}
	put := make(chan error, 1)
	go func() { put <- db.Put(key, []byte("v2")) }()
	<-held
	compacted := make(chan error, 1)
	go func() { compacted <- db.Compact() }()

	// Compact either finishes or parks its flush on the held writer;
	// both are observed, not timed. The deadline only turns a hang into
	// a failure.
	var compactErr error
	compactDone := false
	deadline := time.Now().Add(time.Minute)
	for !compactDone && !goroutineBlockedIn("sync.(*WaitGroup).Wait", "(*DB).doFlush") {
		select {
		case compactErr = <-compacted:
			compactDone = true
		default:
			if time.Now().After(deadline) {
				close(release)
				t.Fatal("Compact neither returned nor parked its flush on the held writer")
			}
			runtime.Gosched()
		}
	}
	if v, err := db.Get(key); err != nil || string(v) != "v1" {
		t.Errorf("get during the held publish = %q, %v; want v1", v, err)
	}
	if kvs, err := db.Scan(key, append(key, 0), 0); err != nil || len(kvs) != 1 || string(kvs[0].Value) != "v1" {
		t.Errorf("scan during the held publish = %v, %v; want [k=v1]", kvs, err)
	}

	close(release)
	if err := <-put; err != nil {
		t.Fatal(err)
	}
	if !compactDone {
		compactErr = <-compacted
	}
	if compactErr != nil {
		t.Fatal(compactErr)
	}
	if v, err := db.Get(key); err != nil || string(v) != "v2" {
		t.Fatalf("get after publish = %q, %v; want v2", v, err)
	}
}

// goroutineBlockedIn reports whether some goroutine's stack has caller
// calling callee: a frame of callee with a frame of caller beneath it.
// It reads frames, not the wait reason in the goroutine header, which
// differs between Go releases.
func goroutineBlockedIn(callee, caller string) bool {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	for _, g := range strings.Split(string(buf), "\n\n") {
		if i := strings.Index(g, callee); i >= 0 && strings.Contains(g[i:], caller) {
			return true
		}
	}
	return false
}
