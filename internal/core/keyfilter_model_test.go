package core_test

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"lsmlab/internal/core"
	"lsmlab/internal/partition"
	"lsmlab/internal/vfs"
)

// filterModelStore is the surface TestBufferFilterNoFalseNegatives
// drives: a core.DB and a partition.Store both provide it.
type filterModelStore interface {
	Put(key, value []byte) error
	Delete(key []byte) error
	DeleteRange(start, end []byte) error
	Get(key []byte) ([]byte, error)
	Flush() error
	Close() error
}

// keyState is one acknowledged version of a key: ver<<1 | deleted.
type keyState uint32

func (s keyState) ver() uint32 { return uint32(s >> 1) }
func (s keyState) live() bool  { return s&1 == 0 }

// TestBufferFilterNoFalseNegatives checks point reads against a model of
// acknowledged versions while write buffers fill, rotate, queue and
// flush. Each writer owns a block of keys and publishes the state it is
// about to write (pend) before each call and the state written (acked)
// after it; a reader loads acked before its Get and pend after it, and
// what it sees must lie between. Every key starts with a version in a
// table, so a buffer filter that hides a newer tombstone or value
// surfaces an older version from disk.
func TestBufferFilterNoFalseNegatives(t *testing.T) {
	const shards = 2
	for _, c := range []struct {
		name string
		open func(core.Options) (filterModelStore, error)
	}{
		{"db", func(o core.Options) (filterModelStore, error) { return core.Open(o) }},
		{"2-shard store", func(o core.Options) (filterModelStore, error) { return partition.Open(o, shards) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			opts := core.DefaultOptions(vfs.NewMem(), "db")
			opts.BufferBytes = 16 << 10
			opts.TargetFileSize = 32 << 10
			opts.CacheBytes = 256 << 10
			s, err := c.open(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			runFilterModel(t, s)
		})
	}
}

func runFilterModel(t *testing.T, s filterModelStore) {
	const writers, perWriter, ops = 4, 64, 1000
	const keys = writers * perWriter
	key := func(i int) []byte { return []byte(fmt.Sprintf("k%05d", i)) }
	value := func(i int, ver uint32) []byte {
		return []byte(fmt.Sprintf("k%05d-v%06d-%s", i, ver, strings.Repeat("x", 40)))
	}

	var acked, pend [keys]atomic.Uint32
	for i := 0; i < keys; i++ {
		if err := s.Put(key(i), value(i, 1)); err != nil {
			t.Fatal(err)
		}
		acked[i].Store(uint32(keyState(1 << 1)))
		pend[i].Store(uint32(keyState(1 << 1)))
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	// consistent reports whether a Get of key i returning (v, found) is
	// explained by a state between before and after, inclusive.
	consistent := func(i int, v []byte, found bool, before, after keyState) bool {
		gap := after.ver() > before.ver()+1 // unrecorded states explain either outcome
		if !found {
			return !before.live() || !after.live() || gap
		}
		var gotKey int
		var ver uint32
		if _, err := fmt.Sscanf(string(v), "k%05d-v%06d-", &gotKey, &ver); err != nil || gotKey != i {
			return false
		}
		switch {
		case ver < before.ver() || ver > after.ver():
			return false
		case ver == before.ver() && !before.live(), ver == after.ver() && !after.live():
			return false
		}
		return true
	}

	var writersWG, readersWG sync.WaitGroup
	var stop atomic.Bool
	var gets, writes atomic.Int64
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			lo := w * perWriter
			state := make([]keyState, perWriter)
			for j := range state {
				state[j] = 1 << 1
			}
			// publish runs op after announcing the next state of keys
			// [a, b) and acknowledges it once op returns.
			publish := func(a, b int, deleted bool, op func() error) bool {
				for j := a; j < b; j++ {
					next := keyState((state[j-lo].ver() + 1) << 1)
					if deleted {
						next |= 1
					}
					state[j-lo] = next
					pend[j].Store(uint32(next))
				}
				if err := op(); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return false
				}
				for j := a; j < b; j++ {
					acked[j].Store(uint32(state[j-lo]))
				}
				writes.Add(1)
				return true
			}
			for n := 0; n < ops && !stop.Load(); n++ {
				i := lo + rng.Intn(perWriter)
				var ok bool
				switch r := rng.Intn(10); {
				case r < 5:
					ver := state[i-lo].ver() + 1
					ok = publish(i, i+1, false, func() error { return s.Put(key(i), value(i, ver)) })
				case r < 8:
					ok = publish(i, i+1, true, func() error { return s.Delete(key(i)) })
				default:
					end := min(i+1+rng.Intn(6), lo+perWriter)
					ok = publish(i, end, true, func() error { return s.DeleteRange(key(i), key(end)) })
				}
				if !ok {
					return
				}
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		readersWG.Add(1)
		go func(r int) {
			defer readersWG.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			for !stop.Load() {
				i := rng.Intn(keys)
				before := keyState(acked[i].Load())
				v, err := s.Get(key(i))
				after := keyState(pend[i].Load())
				if err != nil && err != core.ErrNotFound {
					t.Errorf("get %s: %v", key(i), err)
					stop.Store(true)
					return
				}
				gets.Add(1)
				if !consistent(i, v, err == nil, before, after) {
					t.Errorf("get %s = %q, %v; acknowledged %s, announced %s", key(i), v, err, before, after)
					stop.Store(true)
					return
				}
			}
		}(r)
	}
	writersWG.Wait()
	stop.Store(true)
	readersWG.Wait()
	t.Logf("%d gets checked against %d writes", gets.Load(), writes.Load())

	// Settled: every key reads exactly its last acknowledged state.
	for i := 0; i < keys; i++ {
		st := keyState(acked[i].Load())
		v, err := s.Get(key(i))
		if !consistent(i, v, err == nil, st, st) {
			t.Fatalf("settled get %s = %q, %v; want %s", key(i), v, err, st)
		}
	}
}

func (s keyState) String() string {
	if s.live() {
		return "v" + strconv.Itoa(int(s.ver()))
	}
	return "v" + strconv.Itoa(int(s.ver())) + " (deleted)"
}
