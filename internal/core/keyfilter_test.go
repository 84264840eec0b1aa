package core

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"lsmlab/internal/bloom"
	"lsmlab/internal/kv"
)

func TestKeyFilterNoFalseNegatives(t *testing.T) {
	f := newKeyFilter(1 << 20)
	const writers, perWriter = 4, 5000
	hash := func(w, i int) uint64 { return bufferKeyHash(bloom.Hash64([]byte(fmt.Sprintf("w%d-key%08d", w, i)))) }
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				f.add(hash(w, i))
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			if !f.mayContain(hash(w, i)) {
				t.Fatalf("added key w%d-key%08d not found", w, i)
			}
		}
	}
}

// TestKeyFilterFalsePositiveRate loads a filter sized for a 1 MiB
// buffer with the ~6 400 keys such a buffer holds and probes absent
// keys, once over all keys and once over the keys one shard of a
// 2-shard store receives (even raw hash). Indexing with the raw hash
// doubles the load on the words the shard can reach, which the bound
// must catch.
func TestKeyFilterFalsePositiveRate(t *testing.T) {
	const loaded, probes, bound = 6400, 200000, 0.005
	// keys returns n keys from the given stream whose raw hash passes
	// keep, with their raw hashes.
	keys := func(prefix string, n int, keep func(uint64) bool) []uint64 {
		var hs []uint64
		for i := 0; len(hs) < n; i++ {
			if h := bloom.Hash64([]byte(fmt.Sprintf("%s%012d", prefix, i))); keep(h) {
				hs = append(hs, h)
			}
		}
		return hs
	}
	fpr := func(index func(uint64) uint64, keep func(uint64) bool) float64 {
		f := newKeyFilter(1 << 20)
		for _, h := range keys("user", loaded, keep) {
			f.add(index(h))
		}
		fp := 0
		for _, h := range keys("absent", probes, keep) {
			if f.mayContain(index(h)) {
				fp++
			}
		}
		return float64(fp) / probes
	}
	all := func(uint64) bool { return true }
	oneShard := func(h uint64) bool { return h%2 == 0 }
	raw := func(h uint64) uint64 { return h }

	for _, c := range []struct {
		name string
		keep func(uint64) bool
	}{{"all keys", all}, {"one shard of two", oneShard}} {
		if got := fpr(bufferKeyHash, c.keep); got > bound {
			t.Errorf("%s: false-positive rate %.3f%%, want <= %.1f%%", c.name, 100*got, 100*bound)
		} else {
			t.Logf("%s: false-positive rate %.3f%%", c.name, 100*got)
		}
	}
	if got := fpr(raw, oneShard); got <= bound {
		t.Errorf("one shard of two, raw index: false-positive rate %.3f%% is within the bound; the check cannot tell a missing remix", 100*got)
	} else {
		t.Logf("one shard of two, raw index: false-positive rate %.3f%%", 100*got)
	}
}

// TestRangeTombstonesCopyOnWrite adds range deletes to the active buffer
// while gets and scans run. Tombstone i removes exactly key i and they
// land in order, so every reader must see the deleted keys as a prefix:
// an older or a newer published set, never a torn one.
func TestRangeTombstonesCopyOnWrite(t *testing.T) {
	db, _ := testDB(t, func(o *Options) { o.BufferBytes = 1 << 20 })
	const n = 1000
	key := func(i int) []byte { return []byte(fmt.Sprintf("r%04d", i)) }
	for i := 0; i < n; i++ {
		if err := db.Put(key(i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	mw := db.state.Load().mems[0]
	// started is the number of deletes begun, acked the number returned.
	var started, acked, reads atomic.Int64
	done := make(chan struct{})
	var wg, ready sync.WaitGroup
	wg.Add(4)
	ready.Add(3)
	go func() {
		defer wg.Done()
		defer close(done)
		ready.Wait()
		for i := 0; i < n; i++ {
			started.Add(1)
			if err := db.DeleteRange(key(i), append(key(i), 0)); err != nil {
				t.Error(err)
				return
			}
			acked.Add(1)
		}
	}()
	running := func() bool {
		select {
		case <-done:
			return false
		default:
			return true
		}
	}
	go func() { // the published list itself
		defer wg.Done()
		ready.Done()
		for last := 0; running(); {
			rts := mw.rangeTombstones()
			if len(rts) < last {
				t.Errorf("tombstone list shrank from %d to %d", last, len(rts))
				return
			}
			last = len(rts)
			for i, rt := range rts {
				if !bytes.Equal(rt.Start, key(i)) || !bytes.Equal(rt.End, append(key(i), 0)) {
					t.Errorf("tombstone %d = [%q, %q)", i, rt.Start, rt.End)
					return
				}
			}
		}
	}()
	go func() { // point reads
		defer wg.Done()
		ready.Done()
		for i := 0; running(); i = (i + 7) % n {
			reads.Add(1)
			lo := acked.Load()
			_, err := db.Get(key(i))
			hi := started.Load()
			if int64(i) < lo && err != ErrNotFound || int64(i) >= hi && err != nil {
				t.Errorf("get %s with deletes [%d, %d] landed: %v", key(i), lo, hi, err)
				return
			}
		}
	}()
	go func() { // scans
		defer wg.Done()
		ready.Done()
		for running() {
			reads.Add(1)
			lo := acked.Load()
			kvs, err := db.Scan(key(0), key(n), 0)
			hi := started.Load()
			if err != nil {
				t.Error(err)
				return
			}
			d := int64(n - len(kvs))
			if d < lo || d > hi {
				t.Errorf("scan sees %d deleted keys, want between %d and %d", d, lo, hi)
				return
			}
			for j, e := range kvs {
				if !bytes.Equal(e.Key, key(int(d)+j)) {
					t.Errorf("scan entry %d is %q: deleted keys are not a prefix", j, e.Key)
					return
				}
			}
		}
	}()
	wg.Wait()
	t.Logf("%d gets and scans overlapped %d range deletes", reads.Load(), n)
	if got := len(mw.rangeTombstones()); got != n {
		t.Fatalf("%d tombstones published, want %d (the buffer must not have rotated)", got, n)
	}
	for _, rt := range mw.rangeTombstones() {
		if rt.Seq == 0 || rt.Seq > kv.SeqNum(db.visibleSeq.Load()) {
			t.Fatalf("tombstone seq %d outside the published range", rt.Seq)
		}
	}
}
