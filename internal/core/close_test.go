package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"lsmlab/internal/vfs"
	"lsmlab/internal/vfs/faultfs"
)

// requireReadable reopens the store on fs and fails for every key in
// acked that it cannot read back.
func requireReadable(t *testing.T, opts Options, fs vfs.FS, acked []string) {
	t.Helper()
	opts.FS = fs
	db, err := Open(opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db.Close()
	missing := 0
	for _, k := range acked {
		if _, err := db.Get([]byte(k)); err != nil {
			if missing == 0 {
				t.Errorf("acknowledged key %s: %v", k, err)
			}
			missing++
		}
	}
	if missing > 0 {
		t.Fatalf("%d of %d acknowledged writes lost across Close", missing, len(acked))
	}
}

// TestCloseRacingWritersLosesNoAcknowledgedWrite closes a store under
// four writers. Every write acknowledged before the writers see
// ErrClosed must survive the reopen: Close retires the active buffer
// without installing another, so no write can land in a buffer that
// nothing flushes and whose WAL segment Close throws away.
func TestCloseRacingWritersLosesNoAcknowledgedWrite(t *testing.T) {
	for round := 0; round < 10; round++ {
		fs := vfs.NewMem()
		opts := DefaultOptions(fs, "db")
		opts.BufferBytes = 8 << 10
		db, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		var ackCount atomic.Int64
		enough := make(chan struct{})
		acked := make([][]string, 4)
		var wg sync.WaitGroup
		for w := range acked {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; ; i++ {
					k := fmt.Sprintf("w%d-%06d", w, i)
					if err := db.Put([]byte(k), make([]byte, 32)); err != nil {
						if !errors.Is(err, ErrClosed) {
							t.Errorf("put %s: %v", k, err)
						}
						return
					}
					acked[w] = append(acked[w], k)
					if ackCount.Add(1) == 200 {
						close(enough)
					}
				}
			}()
		}
		<-enough
		if err := db.Close(); err != nil {
			t.Fatalf("round %d: close: %v", round, err)
		}
		wg.Wait()
		var all []string
		for _, ks := range acked {
			all = append(all, ks...)
		}
		requireReadable(t, opts, fs, all)
	}
}

// TestDegradedCloseKeepsAcknowledgedWrites degrades a store with a
// sticky table-write fault and closes it. The degraded store writes
// nothing at Close, so every WAL segment, the active buffer's included,
// must survive for the reopen on the healed device to replay.
func TestDegradedCloseKeepsAcknowledgedWrites(t *testing.T) {
	base := vfs.NewMem()
	ffs := faultfs.New(base, 1)
	opts := DefaultOptions(ffs, "db")
	opts.BufferBytes = 4 << 10
	opts.MaxBackgroundRetries = -1 // degrade on the first failure
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
	var acked []string
	for i := 0; ; i++ {
		if i == 100_000 {
			t.Fatal("the store never degraded")
		}
		k := fmt.Sprintf("k%06d", i)
		err := db.Put([]byte(k), make([]byte, 100))
		if errors.Is(err, ErrDegraded) {
			break
		}
		if err != nil {
			t.Fatalf("put %s: %v", k, err)
		}
		acked = append(acked, k)
	}
	if err := db.Close(); !errors.Is(err, ErrDegraded) {
		t.Fatalf("close of a degraded store = %v, want ErrDegraded", err)
	}
	requireReadable(t, opts, base, acked)
}

// TestHealedFailureDoesNotPoisonFlushOrCompact fails one table write,
// lets the retry heal it, and checks that the old error stays history:
// later Flush and Compact calls succeed (the manual job runs), while
// Health keeps the first error for forensics.
func TestHealedFailureDoesNotPoisonFlushOrCompact(t *testing.T) {
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

	ffs.Arm(faultfs.ClassSST, faultfs.OpWrite|faultfs.OpCreate, 1)
	fillBuffer(t, db, 0)
	if err := db.Flush(); err == nil {
		t.Fatal("the flush that met the fault must report it")
	}
	db.WaitIdle()
	fillBuffer(t, db, 1)
	if err := db.Flush(); err != nil {
		t.Fatalf("flush after the retry healed the fault: %v", err)
	}
	if err := db.Compact(); err != nil {
		t.Fatalf("compact after the retry healed the fault: %v", err)
	}
	if runs := len(db.Version().Levels[0].Runs); runs != 0 {
		t.Fatalf("manual compaction left %d level-0 runs", runs)
	}
	if h := db.Health(); h.BgErr == "" || h.Degraded {
		t.Fatalf("health = %+v, want the healed error kept and no degradation", h)
	}
}

// walCreateFS counts the WAL segments created through it.
type walCreateFS struct {
	vfs.FS
	created atomic.Int64
}

func (fs *walCreateFS) Create(name string) (vfs.File, error) {
	if strings.HasSuffix(name, ".wal") {
		fs.created.Add(1)
	}
	return fs.FS.Create(name)
}

// TestCloseCreatesNoWALSegment checks that Close retires the active
// buffer without starting a segment for a successor, and that the
// flush it waits for leaves no segment behind.
func TestCloseCreatesNoWALSegment(t *testing.T) {
	fs := &walCreateFS{FS: vfs.NewMem()}
	opts := DefaultOptions(fs, "db")
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	before := fs.created.Load()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if n := fs.created.Load() - before; n != 0 {
		t.Fatalf("Close created %d WAL segments, want 0", n)
	}
	names, err := fs.List("db")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if strings.HasSuffix(name, ".wal") {
			t.Fatalf("segment %s survived a healthy Close", name)
		}
	}
}
