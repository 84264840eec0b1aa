package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"lsmlab/internal/events"
	"lsmlab/internal/sstable"
	"lsmlab/internal/vfs"
	"lsmlab/internal/vfs/faultfs"
)

// fillBuffer writes enough distinct keys to exceed BufferBytes.
func fillBuffer(t *testing.T, db *DB, round int) {
	t.Helper()
	for i := 0; i < 20; i++ {
		k := []byte(fmt.Sprintf("r%02d-k%03d", round, i))
		if err := db.Put(k, make([]byte, 100)); err != nil {
			t.Fatalf("put %s: %v", k, err)
		}
	}
}

// TestPersistentFlushFailureDegrades drives the full degradation story:
// a sticky device fault exhausts the flush retries, the engine goes
// read-only, writes fail fast with the typed cause, reads keep serving,
// and every surface (Health, Stats.Text, events, metrics) agrees.
func TestPersistentFlushFailureDegrades(t *testing.T) {
	ring := events.NewRing(1024)
	base := vfs.NewMem()
	ffs := faultfs.New(base, 1)
	opts := DefaultOptions(ffs, "db")
	opts.BufferBytes = 4 << 10
	opts.MaxBackgroundRetries = 2
	opts.EventListener = ring
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}

	if err := db.Put([]byte("before"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	// Every table write fails from here on: the flush retries (with
	// backoff) and then the engine must degrade, not spin.
	ffs.AddRule(faultfs.Rule{
		Classes:   faultfs.ClassSST,
		Ops:       faultfs.OpWrite | faultfs.OpCreate,
		Countdown: 1,
		Sticky:    true,
	})
	fillBuffer(t, db, 0)
	if err := db.Flush(); err == nil {
		t.Fatal("flush against a dead device must error")
	}

	// Degradation is reported, with the failing op and classification.
	waitDegraded(t, db)
	h := db.Health()
	if h.Op != "flush" || h.Kind != "transient" || h.Cause == "" {
		t.Fatalf("health misses the root cause: %+v", h)
	}

	// Writes fail fast with the typed sentinel and the cause attached.
	err = db.Put([]byte("doomed"), []byte("v"))
	if !errors.Is(err, ErrDegraded) {
		t.Fatalf("put on degraded engine: got %v, want ErrDegraded", err)
	}
	var de *DegradedError
	if !errors.As(err, &de) || de.Op != "flush" {
		t.Fatalf("degraded error lost its cause: %v", err)
	}
	if !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("degraded error does not unwrap to the device fault: %v", err)
	}

	// Reads keep serving what was already durable or in memory.
	if v, err := db.Get([]byte("before")); err != nil || string(v) != "v" {
		t.Fatalf("read while degraded: %q %v", v, err)
	}

	// Operator surfaces agree.
	if stats := db.Stats().Text(false); !strings.Contains(stats, "degraded=true") ||
		!strings.Contains(stats, "op=flush") {
		t.Fatalf("Stats text misses degradation:\n%s", stats)
	}
	if got := db.Metrics().Degraded; got != 1 {
		t.Fatalf("degraded gauge = %d, want 1", got)
	}
	var entered bool
	for _, e := range ring.Events() {
		if e.Type == events.DegradedEnter {
			entered = true
			if e.Path != "flush" || e.Err == nil {
				t.Fatalf("DegradedEnter event incomplete: %+v", e)
			}
		}
	}
	if !entered {
		t.Fatal("no DegradedEnter event emitted")
	}

	// Close must not hang on the undrainable flush queue, and reports
	// the failure.
	if err := db.Close(); err == nil {
		t.Fatal("close of a degraded engine must surface the error")
	}

	// The acknowledged writes were WAL-protected: reopening over a
	// healthy filesystem recovers all of them.
	db2, err := Open(DefaultOptions(base, "db"))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	for i := 0; i < 20; i++ {
		k := []byte(fmt.Sprintf("r%02d-k%03d", 0, i))
		if _, err := db2.Get(k); err != nil {
			t.Fatalf("key %s lost across degradation + recovery: %v", k, err)
		}
	}
}

// waitDegraded polls Health until the sticky transition lands (the
// worker performs it asynchronously after its final retry).
func waitDegraded(t *testing.T, db *DB) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if db.Health().Degraded {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("engine never degraded; health: %+v", db.Health())
}

// TestCorruptionDegradesImmediately checks the taxonomy short-circuit:
// a corruption-classified failure must not burn retries — the first
// occurrence degrades the engine.
func TestCorruptionDegradesImmediately(t *testing.T) {
	base := vfs.NewMem()
	ffs := faultfs.New(base, 1)
	opts := DefaultOptions(ffs, "db")
	opts.BufferBytes = 4 << 10
	opts.MaxBackgroundRetries = 100 // would take forever if retried
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	ffs.AddRule(faultfs.Rule{
		Classes:   faultfs.ClassSST,
		Ops:       faultfs.OpWrite,
		Countdown: 1,
		Sticky:    true,
		Err:       sstable.ErrCorrupt,
	})
	fillBuffer(t, db, 0)
	if err := db.Flush(); err == nil {
		t.Fatal("flush must error")
	}
	waitDegraded(t, db)
	if h := db.Health(); h.Kind != "corruption" {
		t.Fatalf("kind = %s, want corruption", h.Kind)
	}
	if m := db.Metrics(); m.BgRetries != 1 {
		t.Fatalf("corruption burned %d attempts, want exactly 1", m.BgRetries)
	}
}

// TestTransientFailureRecoversWithoutDegrading is the counterpoint: a
// failure below the retry budget heals, the engine stays writable, and
// the transient error remains visible in Health/stats for forensics.
func TestTransientFailureRecoversWithoutDegrading(t *testing.T) {
	base := vfs.NewMem()
	ffs := faultfs.New(base, 1)
	opts := DefaultOptions(ffs, "db")
	opts.BufferBytes = 4 << 10
	opts.MaxBackgroundRetries = 3
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	// One one-shot failure, then the device heals.
	ffs.Arm(faultfs.ClassSST, faultfs.OpWrite|faultfs.OpCreate, 1)
	fillBuffer(t, db, 0)
	if err := db.Flush(); err == nil {
		t.Fatal("first flush attempt must surface the transient error")
	}
	db.WaitIdle()
	if h := db.Health(); h.Degraded {
		t.Fatalf("transient failure degraded the engine: %+v", h)
	}
	// The retry flushed the buffer; writes still work.
	if err := db.Put([]byte("after"), []byte("v")); err != nil {
		t.Fatalf("post-recovery put: %v", err)
	}
	// Forensics: the error stays visible without degrading.
	h := db.Health()
	if h.BgErr == "" || h.BgErrOp != "flush" {
		t.Fatalf("transient error not surfaced in health: %+v", h)
	}
	if stats := db.Stats().Text(false); !strings.Contains(stats, "degraded=false bg_err_op=flush") {
		t.Fatalf("Stats text misses the transient error:\n%s", stats)
	}
}

// TestDegradedWritesFailFastWhileStalled checks the broadcast story: a
// writer stalled on a full immutable queue must be woken and failed the
// moment the engine degrades, not hang forever.
func TestDegradedWritesFailFastWhileStalled(t *testing.T) {
	base := vfs.NewMem()
	ffs := faultfs.New(base, 1)
	opts := DefaultOptions(ffs, "db")
	opts.BufferBytes = 2 << 10
	opts.MaxImmutableBuffers = 1
	opts.MaxBackgroundRetries = -1 // degrade on the first failure
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	ffs.AddRule(faultfs.Rule{
		Classes:   faultfs.ClassSST,
		Ops:       faultfs.OpWrite | faultfs.OpCreate,
		Countdown: 1,
		Sticky:    true,
	})
	// Keep writing until every buffer slot is full and the engine
	// degrades under us; each Put must return — either accepted,
	// stalled-then-failed, or failed fast — never deadlock.
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		err := db.Put([]byte(fmt.Sprintf("k%09d", time.Now().UnixNano())), make([]byte, 256))
		if errors.Is(err, ErrDegraded) {
			return // fail-fast observed
		}
	}
	t.Fatal("writes never observed the degradation")
}
