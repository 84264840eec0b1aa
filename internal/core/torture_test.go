package core

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"testing"

	"lsmlab/internal/manifest"
	"lsmlab/internal/vfs"
	"lsmlab/internal/vfs/faultfs"
)

// This file is the randomized crash+fault torture harness (`make
// torture`): each iteration runs a fresh store against a seeded faulty
// device, injects one random fault, crashes (torn-tail simulation
// included), reopens on the healed device, and checks the durability
// contract against a model:
//
//   - an acknowledged write (SyncWAL on) is NEVER lost;
//   - a failed or unacknowledged write is uncertain — it may or may not
//     survive, but the store must return either its value or the prior
//     state, never garbage;
//   - recovery itself must always succeed once the device is healthy.
//
// TORTURE_ITERS overrides the iteration count (CI and `make torture`
// raise it; plain `go test` keeps it cheap).

const tortureNotFound = "\x00absent" // model marker for "key deleted/absent"

func tortureIters(t *testing.T, def int) int {
	if s := os.Getenv("TORTURE_ITERS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			t.Fatalf("bad TORTURE_ITERS=%q", s)
		}
		return n
	}
	if testing.Short() {
		return def / 4
	}
	return def
}

// crashDB abandons a DB handle: no Close, no flush — just stop the
// workers so the next Open owns the directory.
func crashDB(db *DB) {
	db.mu.Lock()
	db.closed = true
	db.cond.Broadcast()
	db.mu.Unlock()
	db.bg.Wait()
}

func TestTortureCrashFaultLoop(t *testing.T) {
	iters := tortureIters(t, 40)
	const baseSeed = 20260805
	for it := 0; it < iters; it++ {
		it := it
		t.Run(fmt.Sprintf("seed%d", baseSeed+it), func(t *testing.T) {
			tortureOnce(t, int64(baseSeed+it))
		})
	}
}

func tortureOnce(t *testing.T, seed int64) {
	r := rand.New(rand.NewSource(seed))
	base := vfs.NewMem()
	ffs := faultfs.New(base, seed)
	opts := DefaultOptions(ffs, "db")
	opts.BufferBytes = 2 << 10
	opts.SyncWAL = true // acked ⇒ durable is the property under test
	opts.MaxBackgroundRetries = 1
	opts.Workers = 1 + r.Intn(2)

	db, err := Open(opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}

	// One random fault, armed at a random point of the op stream.
	classes := []faultfs.Class{faultfs.ClassWAL, faultfs.ClassSST,
		faultfs.ClassManifest, faultfs.ClassAny}
	ops := []faultfs.Op{faultfs.OpWrite, faultfs.OpSync, faultfs.OpCreate,
		faultfs.OpRename, faultfs.OpWrite | faultfs.OpSync, faultfs.OpAnyWrite}
	rule := faultfs.Rule{
		Classes:   classes[r.Intn(len(classes))],
		Ops:       ops[r.Intn(len(ops))],
		Countdown: int64(1 + r.Intn(3)),
		Sticky:    r.Intn(2) == 0,
	}
	totalOps := 60 + r.Intn(120)
	armAt := r.Intn(totalOps)

	// model holds the outcome of acknowledged ops; maybe holds the
	// candidate outcomes of failed (uncertain) ops, reset whenever a
	// later op on the same key is acknowledged.
	model := map[string]string{}
	maybe := map[string][]string{}

	for i := 0; i < totalOps; i++ {
		if i == armAt {
			ffs.AddRule(rule)
		}
		k := fmt.Sprintf("k%03d", r.Intn(48))
		if r.Intn(6) == 0 {
			if err := db.Delete([]byte(k)); err != nil {
				maybe[k] = append(maybe[k], tortureNotFound)
			} else {
				delete(model, k)
				delete(maybe, k)
			}
		} else {
			v := fmt.Sprintf("s%d-i%d", seed, i)
			if err := db.Put([]byte(k), []byte(v)); err != nil {
				maybe[k] = append(maybe[k], v)
			} else {
				model[k] = v
				delete(maybe, k)
			}
		}
		if r.Intn(40) == 0 {
			db.Flush() // force sst/manifest traffic; failures are uncertain
		}
	}

	// Crash: stop the workers, heal the device, and drop every unsynced
	// suffix (a random prefix of each torn tail survives — the ALICE
	// torn-write model).
	crashDB(db)
	ffs.ClearRules()
	ffs.SetWriteBudget(-1)
	if err := ffs.Crash(); err != nil {
		t.Fatalf("crash simulation: %v", err)
	}

	// Recovery on the healed device must always succeed.
	db2, err := Open(DefaultOptions(base, "db"))
	if err != nil {
		t.Fatalf("reopen after crash: %v (rule %+v armed at %d)", err, rule, armAt)
	}
	defer db2.Close()

	check := func(k string) {
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
		// Acknowledged state is allowed; so is any uncertain candidate.
		if want, ok := model[k]; ok {
			if got == want {
				return
			}
		} else if got == tortureNotFound {
			return
		}
		for _, c := range maybe[k] {
			if got == c {
				return
			}
		}
		t.Fatalf("key %s = %q after crash; acked %q (present=%v), candidates %q (rule %+v armed at %d)",
			k, got, model[k], model[k] != "", maybe[k], rule, armAt)
	}
	for i := 0; i < 48; i++ {
		check(fmt.Sprintf("k%03d", i))
	}
}

// TestTortureBitRotScrub is the at-rest corruption loop: flip a random
// bit in a random live table of a cleanly built store, then require the
// scrubber to detect and quarantine it with reads intact — never a
// crash, never served garbage.
func TestTortureBitRotScrub(t *testing.T) {
	iters := tortureIters(t, 20)
	for it := 0; it < iters; it++ {
		it := it
		t.Run(fmt.Sprintf("seed%d", it), func(t *testing.T) {
			tortureBitRotOnce(t, int64(it))
		})
	}
}

func tortureBitRotOnce(t *testing.T, seed int64) {
	r := rand.New(rand.NewSource(seed ^ 0x5eed))
	base := vfs.NewMem()
	ffs := faultfs.New(base, seed)
	opts := DefaultOptions(ffs, "db")
	opts.BufferBytes = 2 << 10
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for i := 0; i < 60; i++ {
		k, v := fmt.Sprintf("k%03d", i), fmt.Sprintf("v%d-%d", seed, i)
		if err := db.Put([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
		want[k] = v
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	db.WaitIdle()

	// Pick a victim table and flip one random bit anywhere in its block
	// region (everything before the fixed 88-byte footer is covered by a
	// block checksum, so any flip there must be detectable).
	var nums []uint64
	for num := range db.Version().LiveFileNums() {
		nums = append(nums, num)
	}
	if len(nums) == 0 {
		t.Fatal("no live tables")
	}
	victim := nums[r.Intn(len(nums))]
	name := vfs.Join("db", manifest.FileName(victim))
	f, err := base.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	size, err := f.Size()
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	const footerLen = 5*16 + 8
	if size <= footerLen {
		t.Fatalf("table %s implausibly small: %d bytes", name, size)
	}
	bit := int64(r.Intn(int(size-footerLen) * 8))
	if err := ffs.FlipBit(name, bit); err != nil {
		t.Fatal(err)
	}

	rep, err := db.Scrub()
	if err != nil {
		t.Fatalf("scrub: %v", err)
	}
	var quarantined bool
	for _, f := range rep.Findings {
		if f.Path == manifest.FileName(victim) && f.Quarantined {
			quarantined = true
		}
	}
	if !quarantined {
		t.Fatalf("flipped bit in %s not quarantined: %s", name, rep)
	}

	// Reads survive: each key resolves to its true value or is cleanly
	// gone with the quarantined table — never an error, never garbage.
	for k, w := range want {
		v, err := db.Get([]byte(k))
		switch {
		case err == nil:
			if string(v) != w {
				t.Fatalf("key %s served garbage after quarantine: %q", k, v)
			}
		case errors.Is(err, ErrNotFound):
			// lost with the quarantined table — honest loss
		default:
			t.Fatalf("get %s after quarantine: %v", k, err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatalf("close after quarantine: %v", err)
	}
}
