package partition

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"lsmlab/internal/core"
	"lsmlab/internal/vfs"
	"lsmlab/internal/vfs/faultfs"
)

// TestCrossShardScanConsistency is the snapshot-isolation pin for the
// sharded engine: writers continuously commit multi-shard batches in
// which every key carries the same version, and concurrent scans must
// observe (a) a globally sorted stream and (b) each batch fully or not
// at all — a scan that catches shard A at version v and shard B at
// v-1 is exactly the torn read the applyMu protocol exists to prevent.
// Run it with -race; CI wires it in that way.
func TestCrossShardScanConsistency(t *testing.T) {
	s, _ := testStore(t, 4)

	const (
		writers     = 4
		keysPerSet  = 8
		versions    = 150
		scanWorkers = 3
	)
	key := func(w, j int) []byte { return []byte(fmt.Sprintf("w%d-k%d", w, j)) }

	// The property below is only meaningful if each writer's key set
	// really straddles shards; with 8 hashed keys over 4 shards that is
	// near-certain, but assert it so a hash change cannot quietly turn
	// this into a single-shard test.
	for w := 0; w < writers; w++ {
		shards := map[int]bool{}
		for j := 0; j < keysPerSet; j++ {
			shards[s.shardOf(key(w, j))] = true
		}
		if len(shards) < 2 {
			t.Fatalf("writer %d's keys all hash to one shard; pick different keys", w)
		}
	}

	var done atomic.Bool
	var writeWG, scanWG sync.WaitGroup
	writerErrs := make([]error, writers)
	for w := 0; w < writers; w++ {
		writeWG.Add(1)
		go func(w int) {
			defer writeWG.Done()
			var b core.Batch
			for v := 1; v <= versions; v++ {
				b.Reset()
				val := []byte(fmt.Sprintf("v%06d", v))
				for j := 0; j < keysPerSet; j++ {
					b.Put(key(w, j), val)
				}
				if err := s.Apply(&b); err != nil {
					writerErrs[w] = err
					return
				}
			}
		}(w)
	}

	scanErrs := make([]error, scanWorkers)
	scanOnce := func() error {
		kvs, err := s.Scan(nil, nil, 0)
		if err != nil {
			return err
		}
		perWriter := make(map[string][]string)
		prev := ""
		for _, kvp := range kvs {
			k := string(kvp.Key)
			if k <= prev {
				return fmt.Errorf("scan out of order: %q after %q", k, prev)
			}
			prev = k
			perWriter[k[:2]] = append(perWriter[k[:2]], string(kvp.Value))
		}
		for w, vals := range perWriter {
			if len(vals) != keysPerSet {
				return fmt.Errorf("writer %s: %d of %d keys visible (torn batch)", w, len(vals), keysPerSet)
			}
			for _, v := range vals {
				if v != vals[0] {
					return fmt.Errorf("writer %s: versions %s and %s in one scan (torn batch)", w, vals[0], v)
				}
			}
		}
		return nil
	}
	for r := 0; r < scanWorkers; r++ {
		scanWG.Add(1)
		go func(r int) {
			defer scanWG.Done()
			for !done.Load() {
				if err := scanOnce(); err != nil {
					scanErrs[r] = err
					return
				}
			}
		}(r)
	}

	writeWG.Wait()
	done.Store(true)
	scanWG.Wait()
	for w, err := range writerErrs {
		if err != nil {
			t.Fatalf("writer %d: %v", w, err)
		}
	}
	for r, err := range scanErrs {
		if err != nil {
			t.Fatalf("scanner %d: %v", r, err)
		}
	}
	// One final scan with the store quiet: every writer at its last
	// version, all keys present.
	if err := scanOnce(); err != nil {
		t.Fatalf("final scan: %v", err)
	}
	kvs, err := s.Scan(nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != writers*keysPerSet {
		t.Fatalf("final scan: %d keys, want %d", len(kvs), writers*keysPerSet)
	}
	want := fmt.Sprintf("v%06d", versions)
	for _, kvp := range kvs {
		if string(kvp.Value) != want {
			t.Fatalf("final scan: %s = %s, want %s", kvp.Key, kvp.Value, want)
		}
	}
}

// TestReopenShardMismatch pins the layout contract: an explicit count
// that disagrees with the directory is refused with ErrShardMismatch,
// count 0 reopens with the recorded count, and a flat single-tree
// directory is refused as a sharded store rather than orphaning its
// data under part-NNN routing.
func TestReopenShardMismatch(t *testing.T) {
	fs := vfs.NewMem()
	opts := core.DefaultOptions(fs, "pdb")
	s, err := Open(opts, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		s.Put([]byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprintf("v%03d", i)))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := Open(opts, 3); !errors.Is(err, ErrShardMismatch) {
		t.Fatalf("reopen with wrong count: got %v, want ErrShardMismatch", err)
	}
	if _, err := Open(opts, 5); !errors.Is(err, ErrShardMismatch) {
		t.Fatalf("reopen with wrong count: got %v, want ErrShardMismatch", err)
	}

	s2, err := Open(opts, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.NumShards() != 4 {
		t.Fatalf("reopen has %d shards, want 4", s2.NumShards())
	}
	for i := 0; i < 100; i += 13 {
		v, err := s2.Get([]byte(fmt.Sprintf("k%03d", i)))
		if err != nil || string(v) != fmt.Sprintf("v%03d", i) {
			t.Fatalf("after derived reopen, get %d: %q %v", i, v, err)
		}
	}

	// A flat single-tree store must be refused in every sharded form.
	flatOpts := core.DefaultOptions(fs, "flat")
	db, err := core.Open(flatOpts)
	if err != nil {
		t.Fatal(err)
	}
	db.Put([]byte("k"), []byte("v"))
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(flatOpts, 2); !errors.Is(err, ErrShardMismatch) {
		t.Fatalf("flat layout opened as a sharded store: got %v, want ErrShardMismatch", err)
	}
}

// TestTortureMultiShardCrash is the sharded acked-⇒-durable pin: acked
// sync'd batches fanned across shards, a simulated power loss at a
// seeded point of the store's life (torn unsynced tails per shard),
// then a reopen by Open(opts, 0) that must come back with the created
// shard count and every acknowledged key from the per-shard WALs. The
// late point adds a phase with SyncWAL off, where acked writes are
// allowed to vanish but recovery must still succeed and never return
// garbage. TORTURE_ITERS overrides the seed count (CI runs 100).
func TestTortureMultiShardCrash(t *testing.T) {
	iters := 8
	if testing.Short() {
		iters = crashPoints
	}
	if s := os.Getenv("TORTURE_ITERS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			t.Fatalf("bad TORTURE_ITERS=%q", s)
		}
		iters = n
	}
	const baseSeed = 20260808
	for it := 0; it < iters; it++ {
		it := it
		t.Run(fmt.Sprintf("seed%d", baseSeed+it), func(t *testing.T) {
			tortureShardsOnce(t, int64(baseSeed+it))
		})
	}
}

// The points at which tortureShardsOnce cuts the power, chosen by seed.
const (
	crashAfterCreate    = iota // right after create, nothing written
	crashAfterAcked            // sync'd acked batches, nothing flushed, no manifest sync
	crashTornDescriptor        // an earlier create died mid-descriptor-write; then as crashAfterAcked
	crashLate                  // acked batches, clean reopen, unsynced tail
	crashPoints
)

func tortureShardsOnce(t *testing.T, seed int64) {
	r := rand.New(rand.NewSource(seed))
	point := int(seed % crashPoints)
	base := vfs.NewMem()
	ffs := faultfs.New(base, seed)
	opts := core.DefaultOptions(ffs, "pdb")
	opts.BufferBytes = 4 << 10
	opts.SyncWAL = true
	shards := 2 + r.Intn(3) // 2..4

	if point == crashTornDescriptor {
		// All the dead create left behind is a prefix of its tmp file.
		enc := encodeDescriptor(shards)
		f, err := ffs.Create(vfs.Join("pdb", descriptorName+".tmp"))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(enc[:r.Intn(len(enc))]); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	s, err := Open(opts, shards)
	if err != nil {
		t.Fatal(err)
	}
	// Acked phase: every batch that Apply acknowledges goes into the
	// model and must survive the crash.
	batches := [crashPoints]int{crashAfterCreate: 0, crashAfterAcked: 10, crashTornDescriptor: 10, crashLate: 40}[point]
	model := map[string]string{}
	var b core.Batch
	for i := 0; i < batches; i++ {
		b.Reset()
		staged := map[string]string{}
		for j := 0; j < 1+r.Intn(12); j++ {
			k := fmt.Sprintf("k%04d", r.Intn(600))
			v := fmt.Sprintf("v%d.%d.%d", seed, i, j)
			b.Put([]byte(k), []byte(v))
			staged[k] = v
		}
		if err := s.Apply(&b); err != nil {
			t.Fatal(err)
		}
		for k, v := range staged {
			model[k] = v
		}
	}
	s.WaitIdle()
	uncertain := map[string]bool{}
	// The crash may keep any prefix of a shard's unsynced WAL, so after
	// recovery a key may hold ANY of its unsynced values (whichever was
	// last in the surviving prefix), not only the final one.
	newVals := map[string][]string{}
	if point == crashLate {
		// Unacked phase: flip to an unsynced store over the same device
		// so the crash has real torn tails to cut. These writes are
		// uncertain: each key must come back as either its new value, its
		// prior acked value, or absent — never anything else.
		uopts := opts
		uopts.SyncWAL = false
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		u, err := Open(uopts, 0)
		if err != nil {
			t.Fatal(err)
		}
		if u.NumShards() != shards {
			t.Fatalf("reopened with %d shards, want %d", u.NumShards(), shards)
		}
		for i := 0; i < 20; i++ {
			b.Reset()
			for j := 0; j < 1+r.Intn(12); j++ {
				k := fmt.Sprintf("k%04d", r.Intn(600))
				v := fmt.Sprintf("u%d.%d.%d", seed, i, j)
				b.Put([]byte(k), []byte(v))
				uncertain[k] = true
				newVals[k] = append(newVals[k], v)
			}
			if err := u.Apply(&b); err != nil {
				t.Fatal(err)
			}
		}
		u.WaitIdle()
	}

	// Power loss: cut every file back to its synced length (plus a
	// seeded-random torn prefix of the unsynced tail), abandon the old
	// handles, reopen as whatever is there.
	if err := ffs.Crash(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(opts, 0)
	if err != nil {
		t.Fatalf("reopen after crash at point %d: %v", point, err)
	}
	defer s2.Close()
	if s2.NumShards() != shards {
		t.Fatalf("%d shards after crash at point %d, want %d", s2.NumShards(), point, shards)
	}
	legal := func(k, got string) bool {
		for _, v := range newVals[k] {
			if got == v {
				return true
			}
		}
		return false
	}
	for k, want := range model {
		got, err := s2.Get([]byte(k))
		switch {
		case uncertain[k]:
			// Overwritten by unsynced batches: the acked value or any of
			// the unsynced values may be visible, but never nothing.
			if errors.Is(err, core.ErrNotFound) {
				t.Fatalf("acked key %s lost entirely after unsynced overwrite", k)
			}
			if err != nil {
				t.Fatalf("get %s: %v", k, err)
			}
			if string(got) != want && !legal(k, string(got)) {
				t.Fatalf("key %s = %q, want acked %q or one of the unsynced values %v", k, got, want, newVals[k])
			}
		default:
			if err != nil {
				t.Fatalf("acked key %s: %v", k, err)
			}
			if string(got) != want {
				t.Fatalf("acked key %s = %q, want %q", k, got, want)
			}
		}
	}
	// Unacked keys that never had an acked value: one of the unsynced
	// values, or absent — never garbage.
	for k := range uncertain {
		if _, ok := model[k]; ok {
			continue
		}
		got, err := s2.Get([]byte(k))
		if errors.Is(err, core.ErrNotFound) {
			continue
		}
		if err != nil {
			t.Fatalf("get %s: %v", k, err)
		}
		if !legal(k, string(got)) {
			t.Fatalf("unacked key %s = %q, want one of %v or absent", k, got, newVals[k])
		}
	}
}
