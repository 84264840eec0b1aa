package core

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"lsmlab/internal/events"
	"lsmlab/internal/vfs"
	"lsmlab/internal/vfs/faultfs"
)

// This file covers the stall-to-throttle half of the overload story
// (DESIGN.md §2h): Options.StallTimeout turns an unbounded write stall
// into a typed ErrBackpressure abort, and the abort must keep every
// invariant the blocking path had — WriteStallBegin/WriteStallEnd
// events pair, StallNs is recorded exactly once, nothing of the
// aborted batch is durable, and the engine serves normally once the
// flush backlog drains.

// gateFS blocks table-file creation until the gate channel is closed,
// pinning the write path in a stall for as long as the test wants.
type gateFS struct {
	vfs.FS
	gate chan struct{}
}

func (f gateFS) Create(name string) (vfs.File, error) {
	if strings.HasSuffix(name, ".sst") {
		<-f.gate
	}
	return f.FS.Create(name)
}

func TestStallTimeoutAbortsWithBackpressure(t *testing.T) {
	gate := make(chan struct{})
	db, _ := testDB(t, func(o *Options) {
		o.FS = gateFS{FS: vfs.NewMem(), gate: gate}
		o.BufferBytes = 1 << 10
		o.MaxImmutableBuffers = 1
		o.StallTimeout = 25 * time.Millisecond
	})
	released := false
	release := func() {
		if !released {
			released = true
			close(gate)
		}
	}
	defer release()

	// With flushes gated, ingestion must hit the stall and abort.
	var bpErr error
	for i := 0; i < 200 && bpErr == nil; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%04d", i)), make([]byte, 256)); err != nil {
			bpErr = err
		}
	}
	if bpErr == nil {
		t.Fatal("gated flush never produced a backpressure abort")
	}
	if !errors.Is(bpErr, ErrBackpressure) {
		t.Fatalf("stall abort error = %v, want ErrBackpressure", bpErr)
	}
	var be *BackpressureError
	if !errors.As(bpErr, &be) || be.WaitedNs < int64(20*time.Millisecond) {
		t.Fatalf("typed error %+v, want *BackpressureError with ~25ms wait", bpErr)
	}
	m := db.Metrics()
	if m.StallAborts == 0 || m.WriteStalls == 0 || m.StallNs == 0 {
		t.Fatalf("stall abort accounting: aborts=%d stalls=%d stall_ns=%d",
			m.StallAborts, m.WriteStalls, m.StallNs)
	}

	// Backpressure is transient, not sticky: once the device drains the
	// backlog, writes succeed again with no operator intervention.
	release()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if err := db.Put([]byte("recovered"), []byte("v")); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("writes never recovered after the flush gate opened")
		}
	}
	if h := db.Health(); h.Degraded {
		t.Fatalf("backpressure degraded the engine: %+v", h)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStallAbortPairsEvents is the regression test for the
// degradation/timeout-mid-stall accounting (run it with -race; the CI
// race job does): however a stall ends — room appearing, StallTimeout
// abort, or the engine degrading under the stalled writer — every
// WriteStallBegin has exactly one WriteStallEnd and StallNs grows
// exactly once per stall episode.
func TestStallAbortPairsEvents(t *testing.T) {
	t.Run("timeout-abort", func(t *testing.T) {
		ring := events.NewRing(16384)
		gate := make(chan struct{})
		db, _ := testDB(t, func(o *Options) {
			o.FS = gateFS{FS: vfs.NewMem(), gate: gate}
			o.BufferBytes = 1 << 10
			o.MaxImmutableBuffers = 1
			o.StallTimeout = 5 * time.Millisecond
			o.EventListener = ring
		})
		var wg sync.WaitGroup
		var aborts int64
		var mu sync.Mutex
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 40; i++ {
					err := db.Put([]byte(fmt.Sprintf("w%d-k%04d", w, i)), make([]byte, 256))
					if errors.Is(err, ErrBackpressure) {
						mu.Lock()
						aborts++
						mu.Unlock()
					} else if err != nil {
						t.Errorf("unexpected write error: %v", err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		close(gate)
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		if aborts == 0 {
			t.Fatal("no writer observed a backpressure abort; gating setup is broken")
		}
		verifyStallPairing(t, ring, db)
	})

	t.Run("degradation-abort", func(t *testing.T) {
		ring := events.NewRing(16384)
		base := vfs.NewMem()
		ffs := faultfs.New(base, 1)
		opts := DefaultOptions(ffs, "db")
		opts.BufferBytes = 2 << 10
		opts.MaxImmutableBuffers = 1
		opts.MaxBackgroundRetries = -1 // degrade on the first failure
		opts.EventListener = ring
		db, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		ffs.AddRule(faultfs.Rule{
			Classes:   faultfs.ClassSST,
			Ops:       faultfs.OpWrite | faultfs.OpCreate,
			Countdown: 1,
			Sticky:    true,
		})
		var wg sync.WaitGroup
		degraded := make(chan struct{})
		var once sync.Once
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				deadline := time.Now().Add(30 * time.Second)
				for i := 0; time.Now().Before(deadline); i++ {
					err := db.Put([]byte(fmt.Sprintf("w%d-k%08d", w, i)), make([]byte, 256))
					if errors.Is(err, ErrDegraded) {
						once.Do(func() { close(degraded) })
						return
					}
					select {
					case <-degraded:
						return
					default:
					}
				}
			}(w)
		}
		wg.Wait()
		select {
		case <-degraded:
		default:
			t.Fatal("writers never observed the degradation")
		}
		// Close surfaces the sticky degradation error by design; the
		// pairing invariant is what this subtest is about.
		_ = db.Close()
		verifyStallPairing(t, ring, db)
	})
}

// verifyStallPairing checks the Begin/End/StallNs invariants against
// the event ring and the engine counters.
func verifyStallPairing(t *testing.T, ring *events.Ring, db *DB) {
	t.Helper()
	var begins, ends int
	for _, e := range ring.Events() {
		switch e.Type {
		case events.WriteStallBegin:
			begins++
		case events.WriteStallEnd:
			ends++
			if e.DurationNs <= 0 {
				t.Errorf("stall end with non-positive duration: %+v", e)
			}
		}
	}
	if uint64(len(ring.Events())) != ring.Total() {
		t.Fatalf("event ring overflowed (%d kept of %d); grow the ring", len(ring.Events()), ring.Total())
	}
	if begins != ends {
		t.Fatalf("stall begins %d != ends %d", begins, ends)
	}
	m := db.Metrics()
	if m.WriteStalls != int64(begins) {
		t.Fatalf("WriteStalls counter %d != stall begin events %d", m.WriteStalls, begins)
	}
	if begins > 0 && m.StallNs <= 0 {
		t.Fatalf("stalls occurred but StallNs = %d", m.StallNs)
	}
}

// TestTortureThrottleCrash is the throttle+crash torture loop of the
// overload PR: seeded iterations drive a slow device into repeated
// stall-timeout aborts, crash mid-stream (torn tails included), and
// verify on recovery that every acknowledged write is durable and no
// backpressure-aborted write is ever visible — aborts happen before
// sequence assignment and WAL append, so a throttled batch must be
// absent, not garbage.
func TestTortureThrottleCrash(t *testing.T) {
	iters := tortureIters(t, 12)
	const baseSeed = 20260808
	for it := 0; it < iters; it++ {
		it := it
		t.Run(fmt.Sprintf("seed%d", baseSeed+it), func(t *testing.T) {
			tortureThrottleOnce(t, int64(baseSeed+it))
		})
	}
}

func tortureThrottleOnce(t *testing.T, seed int64) {
	r := rand.New(rand.NewSource(seed))
	base := vfs.NewMem()
	ffs := faultfs.New(base, seed)
	fs := slowSSTFS{FS: ffs, delay: time.Duration(2+r.Intn(3)) * time.Millisecond}
	opts := DefaultOptions(fs, "db")
	opts.SyncWAL = true // acked ⇒ durable is half the property under test
	opts.BufferBytes = 1 << 10
	opts.MaxImmutableBuffers = 1
	opts.StallTimeout = time.Duration(1+r.Intn(2)) * time.Millisecond
	opts.Workers = 1

	db, err := Open(opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}

	model := map[string]string{}       // acked: must survive the crash
	forbidden := map[string][]string{} // backpressure-aborted: must not
	throttled := 0
	totalOps := 80 + r.Intn(80)
	for i := 0; i < totalOps; i++ {
		k := fmt.Sprintf("k%03d", r.Intn(48))
		v := fmt.Sprintf("s%d-i%d", seed, i)
		err := db.Put([]byte(k), []byte(v))
		switch {
		case err == nil:
			model[k] = v
		case errors.Is(err, ErrBackpressure):
			throttled++
			forbidden[k] = append(forbidden[k], v)
		default:
			t.Fatalf("op %d: unexpected error %v", i, err)
		}
	}

	crashDB(db)
	if err := ffs.Crash(); err != nil {
		t.Fatalf("crash simulation: %v", err)
	}

	db2, err := Open(DefaultOptions(base, "db"))
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer db2.Close()
	for i := 0; i < 48; i++ {
		k := fmt.Sprintf("k%03d", i)
		v, err := db2.Get([]byte(k))
		var got string
		switch {
		case err == nil:
			got = string(v)
		case errors.Is(err, ErrNotFound):
			got = tortureNotFound
		default:
			t.Fatalf("get %s after recovery: %v", k, err)
		}
		want, acked := model[k]
		if acked && got != want {
			t.Fatalf("acked write lost: key %s = %q, want %q (throttled=%d)", k, got, want, throttled)
		}
		if !acked && got != tortureNotFound {
			t.Fatalf("key %s = %q after crash but was never acked (throttled=%d)", k, got, throttled)
		}
		for _, f := range forbidden[k] {
			if got == f {
				t.Fatalf("backpressure-aborted write surfaced after crash: key %s = %q", k, got)
			}
		}
	}
}
