package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"lsmlab/internal/vfs"
	"lsmlab/internal/vfs/faultfs"
)

// counterMerge is an associative int64-add operator.
type counterMerge struct{}

func (counterMerge) FullMerge(key, existing []byte, operands [][]byte) ([]byte, error) {
	var sum int64
	if len(existing) == 8 {
		sum = int64(binary.LittleEndian.Uint64(existing))
	} else if len(existing) != 0 {
		return nil, errors.New("bad existing value")
	}
	for _, op := range operands {
		if len(op) != 8 {
			return nil, errors.New("bad operand")
		}
		sum += int64(binary.LittleEndian.Uint64(op))
	}
	out := make([]byte, 8)
	binary.LittleEndian.PutUint64(out, uint64(sum))
	return out, nil
}

func (counterMerge) PartialMerge(key, older, newer []byte) ([]byte, bool) {
	if len(older) != 8 || len(newer) != 8 {
		return nil, false
	}
	out := make([]byte, 8)
	binary.LittleEndian.PutUint64(out,
		binary.LittleEndian.Uint64(older)+binary.LittleEndian.Uint64(newer))
	return out, true
}

func delta(n int64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, uint64(n))
	return b
}

func counterValue(t *testing.T, db *DB, key string) int64 {
	t.Helper()
	v, err := db.Get([]byte(key))
	if err != nil {
		t.Fatalf("get %s: %v", key, err)
	}
	if len(v) != 8 {
		t.Fatalf("counter value %d bytes", len(v))
	}
	return int64(binary.LittleEndian.Uint64(v))
}

func mergeDB(t *testing.T, mutate func(*Options)) *DB {
	t.Helper()
	db, _ := testDB(t, func(o *Options) {
		o.MergeOperator = counterMerge{}
		if mutate != nil {
			mutate(o)
		}
	})
	return db
}

func TestMergeRequiresOperator(t *testing.T) {
	db, _ := testDB(t, nil)
	if err := db.Merge([]byte("k"), delta(1)); !errors.Is(err, ErrNoMergeOperator) {
		t.Fatalf("merge without operator: %v", err)
	}
}

func TestMergeInMemtable(t *testing.T) {
	db := mergeDB(t, nil)
	db.Merge([]byte("c"), delta(5))
	db.Merge([]byte("c"), delta(7))
	if got := counterValue(t, db, "c"); got != 12 {
		t.Fatalf("counter = %d", got)
	}
	// Merge over an existing base.
	db.Put([]byte("b"), delta(100))
	db.Merge([]byte("b"), delta(-30))
	if got := counterValue(t, db, "b"); got != 70 {
		t.Fatalf("base+merge = %d", got)
	}
}

func TestMergeAcrossFlush(t *testing.T) {
	db := mergeDB(t, nil)
	db.Put([]byte("c"), delta(10))
	db.Flush()
	db.Merge([]byte("c"), delta(1))
	db.Flush()
	db.Merge([]byte("c"), delta(2))
	if got := counterValue(t, db, "c"); got != 13 {
		t.Fatalf("counter = %d", got)
	}
}

func TestMergeFoldedByCompaction(t *testing.T) {
	db := mergeDB(t, nil)
	for i := 0; i < 100; i++ {
		db.Merge([]byte("c"), delta(1))
		if i%10 == 0 {
			db.Flush()
		}
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	// After a full compaction the chain must be folded to one Set.
	e, err := db.getEntry([]byte("c"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if e.Kind().String() != "SET" {
		t.Fatalf("post-compaction kind %v", e.Kind())
	}
	if got := counterValue(t, db, "c"); got != 100 {
		t.Fatalf("counter = %d", got)
	}
}

func TestMergeOverDelete(t *testing.T) {
	db := mergeDB(t, nil)
	db.Put([]byte("c"), delta(50))
	db.Delete([]byte("c"))
	db.Merge([]byte("c"), delta(3))
	if got := counterValue(t, db, "c"); got != 3 {
		t.Fatalf("merge over delete = %d", got)
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := counterValue(t, db, "c"); got != 3 {
		t.Fatalf("after compaction = %d", got)
	}
}

func TestMergeRespectsSnapshots(t *testing.T) {
	db := mergeDB(t, nil)
	db.Merge([]byte("c"), delta(1))
	snap := db.NewSnapshot()
	defer snap.Release()
	db.Merge([]byte("c"), delta(10))
	if got := counterValue(t, db, "c"); got != 11 {
		t.Fatalf("live = %d", got)
	}
	v, err := snap.Get([]byte("c"))
	if err != nil || int64(binary.LittleEndian.Uint64(v)) != 1 {
		t.Fatalf("snapshot = %v %v", v, err)
	}
	// Compaction must preserve the snapshot's view.
	db.Flush()
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	v, err = snap.Get([]byte("c"))
	if err != nil || int64(binary.LittleEndian.Uint64(v)) != 1 {
		t.Fatalf("snapshot after compaction = %v %v", v, err)
	}
	if got := counterValue(t, db, "c"); got != 11 {
		t.Fatalf("live after compaction = %d", got)
	}
}

func TestMergeVisibleInScans(t *testing.T) {
	db := mergeDB(t, nil)
	db.Put([]byte("a"), delta(1))
	db.Merge([]byte("b"), delta(2))
	db.Merge([]byte("b"), delta(3))
	db.Put([]byte("c"), delta(4))
	db.Flush()
	db.Merge([]byte("c"), delta(1))

	kvs, err := db.Scan(nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 3 {
		t.Fatalf("scan %d keys", len(kvs))
	}
	want := map[string]int64{"a": 1, "b": 5, "c": 5}
	for _, kvp := range kvs {
		if got := int64(binary.LittleEndian.Uint64(kvp.Value)); got != want[string(kvp.Key)] {
			t.Errorf("scan %s = %d, want %d", kvp.Key, got, want[string(kvp.Key)])
		}
	}
}

func TestMergeIteratorMidStream(t *testing.T) {
	// Keys around the merged key iterate correctly after resolution.
	db := mergeDB(t, nil)
	db.Put([]byte("a"), delta(1))
	db.Merge([]byte("m"), delta(2)) // no base: resolves against nil
	db.Put([]byte("z"), delta(3))
	it, err := db.NewIterator(IterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	var keys []string
	for ok := it.First(); ok; ok = it.Next() {
		keys = append(keys, string(it.Key()))
	}
	if fmt.Sprint(keys) != fmt.Sprint([]string{"a", "m", "z"}) {
		t.Fatalf("keys %v", keys)
	}
}

func TestMergeManyKeysRandomized(t *testing.T) {
	db := mergeDB(t, nil)
	model := map[string]int64{}
	present := map[string]bool{}
	for i := 0; i < 4000; i++ {
		k := fmt.Sprintf("cnt-%02d", i%40)
		switch i % 17 {
		case 3:
			db.Put([]byte(k), delta(int64(i)))
			model[k] = int64(i)
			present[k] = true
		case 7:
			db.Delete([]byte(k))
			model[k] = 0 // a later merge restarts from nil
			present[k] = false
		default:
			db.Merge([]byte(k), delta(1))
			model[k]++
			present[k] = true
		}
	}
	db.Flush()
	db.WaitIdle()
	check := func(phase string) {
		t.Helper()
		for k, want := range model {
			if !present[k] {
				if _, err := db.Get([]byte(k)); !errors.Is(err, ErrNotFound) {
					t.Fatalf("%s: deleted %s: %v", phase, k, err)
				}
				continue
			}
			if got := counterValue(t, db, k); got != want {
				t.Fatalf("%s: %s = %d, want %d", phase, k, got, want)
			}
		}
	}
	check("pre-compaction")
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	check("post-compaction")
}

func TestMergeRecovery(t *testing.T) {
	fs := mergeDBOpts(t)
	db, err := Open(fs)
	if err != nil {
		t.Fatal(err)
	}
	db.Put([]byte("c"), delta(5))
	db.Merge([]byte("c"), delta(2))
	// Crash (no close); reopen and resolve from WAL-replayed state.
	db2, err := Open(fs)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := counterValue(t, db2, "c"); got != 7 {
		t.Fatalf("recovered counter = %d", got)
	}
}

// mergeDBOpts builds reusable options over a shared MemFS for recovery
// tests.
func mergeDBOpts(t *testing.T) Options {
	t.Helper()
	opts := DefaultOptions(vfs.NewMem(), "db")
	opts.MergeOperator = counterMerge{}
	return opts
}

// appendMerge concatenates operands onto the base in order, so a chain
// folded in the wrong order reads differently.
type appendMerge struct{}

func (appendMerge) FullMerge(key, existing []byte, operands [][]byte) ([]byte, error) {
	out := append([]byte(nil), existing...)
	for _, op := range operands {
		out = append(out, op...)
	}
	return out, nil
}

func (appendMerge) PartialMerge(key, older, newer []byte) ([]byte, bool) {
	return append(append([]byte(nil), older...), newer...), true
}

// TestMergeFoldKeepsBaseOnVlogReadError: a compaction that cannot read
// a chain's separated base must fail, not fold the operands onto
// nothing and drop the base.
func TestMergeFoldKeepsBaseOnVlogReadError(t *testing.T) {
	ffs := faultfs.New(vfs.NewMem(), 1)
	opts := DefaultOptions(ffs, "db")
	opts.MergeOperator = appendMerge{}
	opts.ValueSeparationThreshold = 64
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	base := strings.Repeat("B", 200)
	for _, step := range []func() error{
		func() error { return db.Put([]byte("k"), []byte(base)) },
		db.Flush,
		func() error { return db.Merge([]byte("k"), []byte("+x")) },
		db.Flush,
	} {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}
	ffs.AddRule(faultfs.Rule{Classes: faultfs.ClassVLog, Ops: faultfs.OpReadAt, Sticky: true})
	if err := db.Compact(); err == nil {
		t.Fatal("compaction folded a chain over a base it could not read")
	}
	ffs.ClearRules()
	if v, err := db.Get([]byte("k")); err != nil || string(v) != base+"+x" {
		t.Fatalf("after the failed compaction: %q, %v; want the base plus +x", v, err)
	}
}

// TestGetWithoutMergeOperator: operands on disk read back through a
// store opened without an operator fail with ErrNoMergeOperator on
// every read path.
func TestGetWithoutMergeOperator(t *testing.T) {
	opts := mergeDBOpts(t)
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	db.Put([]byte("c"), delta(5))
	db.Merge([]byte("c"), delta(2))
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	opts.MergeOperator = nil
	db, err = Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	snap := db.NewSnapshot()
	defer snap.Release()
	if _, err := db.Get([]byte("c")); !errors.Is(err, ErrNoMergeOperator) {
		t.Fatalf("Get: %v", err)
	}
	if _, err := snap.Get([]byte("c")); !errors.Is(err, ErrNoMergeOperator) {
		t.Fatalf("Snapshot.Get: %v", err)
	}
	if _, err := db.Scan(nil, nil, 0); !errors.Is(err, ErrNoMergeOperator) {
		t.Fatalf("Scan: %v", err)
	}
}

// TestMergeReadersAgreeWithModel drives an order-sensitive operator
// with value separation, point and range deletes and snapshots taken
// mid-history, and checks Get, Snapshot.Get, Scan and Snapshot.Scan
// against one model before a flush, after it and after a compaction.
func TestMergeReadersAgreeWithModel(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	db := mergeDB(t, func(o *Options) {
		o.MergeOperator = appendMerge{}
		o.ValueSeparationThreshold = 48
	})
	const nkeys = 60
	key := func(i int) string { return fmt.Sprintf("k%03d", i) }
	type view struct {
		snap  *Snapshot // nil: the latest state
		model map[string]string
	}
	views := []view{{model: map[string]string{}}}
	live := views[0].model
	defer func() {
		for _, v := range views[1:] {
			v.snap.Release()
		}
	}()

	check := func(phase string) {
		t.Helper()
		for _, v := range views {
			get, scan := db.Get, db.Scan
			if v.snap != nil {
				get, scan = v.snap.Get, v.snap.Scan
			}
			for i := 0; i < nkeys; i++ {
				k := key(i)
				got, err := get([]byte(k))
				want, ok := v.model[k]
				if !ok {
					if !errors.Is(err, ErrNotFound) {
						t.Fatalf("%s snap=%v: Get %s = %q, %v; want not found", phase, v.snap != nil, k, got, err)
					}
				} else if err != nil || string(got) != want {
					t.Fatalf("%s snap=%v: Get %s = %q, %v; want %q", phase, v.snap != nil, k, got, err, want)
				}
			}
			kvs, err := scan(nil, nil, 0)
			if err != nil {
				t.Fatalf("%s: Scan: %v", phase, err)
			}
			var keys []string
			for k := range v.model {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			if len(kvs) != len(keys) {
				t.Fatalf("%s snap=%v: Scan returned %d keys, want %d", phase, v.snap != nil, len(kvs), len(keys))
			}
			for i, kv := range kvs {
				if string(kv.Key) != keys[i] || string(kv.Value) != v.model[keys[i]] {
					t.Fatalf("%s snap=%v: Scan[%d] = %s=%q, want %s=%q", phase, v.snap != nil, i, kv.Key, kv.Value, keys[i], v.model[keys[i]])
				}
			}
		}
	}

	for round := 0; round < 3; round++ {
		for i := 0; i < 600; i++ {
			ki := rng.Intn(nkeys)
			k := key(ki)
			var err error
			switch r := rng.Intn(20); {
			case r < 3:
				val := strings.Repeat(string(rune('a'+rng.Intn(26))), 8+rng.Intn(120))
				err = db.Put([]byte(k), []byte(val))
				live[k] = val
			case r == 3:
				err = db.Delete([]byte(k))
				delete(live, k)
			case r == 4:
				end := ki + 1 + rng.Intn(4)
				err = db.DeleteRange([]byte(k), []byte(key(end)))
				for j := ki; j < end; j++ {
					delete(live, key(j))
				}
			default:
				op := fmt.Sprintf("+%d.%d", round, i)
				err = db.Merge([]byte(k), []byte(op))
				live[k] += op
			}
			if err != nil {
				t.Fatal(err)
			}
			if i%200 == 199 {
				frozen := make(map[string]string, len(live))
				for k, v := range live {
					frozen[k] = v
				}
				views = append(views, view{db.NewSnapshot(), frozen})
			}
		}
		check(fmt.Sprintf("round %d before flush", round))
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("round %d after flush", round))
		if err := db.Compact(); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("round %d after compaction", round))
	}
}
