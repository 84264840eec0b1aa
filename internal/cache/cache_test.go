package cache

import (
	"fmt"
	"sync"
	"testing"
)

func TestGetAddBasic(t *testing.T) {
	c := New(1 << 20)
	if _, ok := c.Get(1, 0); ok {
		t.Error("empty cache hit")
	}
	c.Add(1, 0, "block-a", 100)
	v, ok := c.Get(1, 0)
	if !ok || v.(string) != "block-a" {
		t.Errorf("get: %v %v", v, ok)
	}
	if c.UsedBytes() != 100 {
		t.Errorf("used %d", c.UsedBytes())
	}
}

func TestUpdateExisting(t *testing.T) {
	c := New(1 << 20)
	c.Add(1, 0, "old", 100)
	c.Add(1, 0, "new", 200)
	v, _ := c.Get(1, 0)
	if v.(string) != "new" {
		t.Error("update lost")
	}
	if c.UsedBytes() != 200 {
		t.Errorf("used %d after update", c.UsedBytes())
	}
}

func TestLRUEviction(t *testing.T) {
	// Single-shard-sized cache behaviour: use keys that map to the same
	// shard by keeping fileNum/offset constant except offset multiples
	// chosen to collide. Easier: capacity small enough that each shard
	// holds ~2 entries and verify global bounds.
	c := New(16 * 250) // 250 bytes per shard
	for i := uint64(0); i < 100; i++ {
		c.Add(i, 0, i, 100)
	}
	if used := c.UsedBytes(); used > 16*250 {
		t.Errorf("used %d exceeds capacity", used)
	}
}

func TestLRUOrderWithinShard(t *testing.T) {
	c := New(16 * 250) // each shard fits 2 x 100-byte entries
	// Find three keys in the same shard.
	var ks []Key
	target := c.shardFor(0, 0)
	for f := uint64(0); len(ks) < 3; f++ {
		if c.shardFor(f, 0) == target {
			ks = append(ks, Key{f, 0})
		}
	}
	c.Add(ks[0].FileNum, 0, "a", 100)
	c.Add(ks[1].FileNum, 0, "b", 100)
	c.Get(ks[0].FileNum, 0) // touch a: now b is LRU
	c.Add(ks[2].FileNum, 0, "c", 100)
	if _, ok := c.Get(ks[1].FileNum, 0); ok {
		t.Error("b should have been evicted")
	}
	if _, ok := c.Get(ks[0].FileNum, 0); !ok {
		t.Error("a should survive (recently used)")
	}
	if _, ok := c.Get(ks[2].FileNum, 0); !ok {
		t.Error("c should be present")
	}
}

func TestOversizedEntryRejected(t *testing.T) {
	c := New(16 * 100)
	c.Add(1, 0, "huge", 1000)
	if _, ok := c.Get(1, 0); ok {
		t.Error("oversized entry must not be cached")
	}
}

func TestEvictFile(t *testing.T) {
	c := New(1 << 20)
	for off := uint64(0); off < 10; off++ {
		c.Add(7, off*4096, off, 100)
		c.Add(8, off*4096, off, 100)
	}
	c.EvictFile(7)
	for off := uint64(0); off < 10; off++ {
		if c.Contains(7, off*4096) {
			t.Fatal("file 7 block survived eviction")
		}
		if !c.Contains(8, off*4096) {
			t.Fatal("file 8 block wrongly evicted")
		}
	}
}

type countingStats struct {
	mu           sync.Mutex
	hits, misses int
}

func (s *countingStats) CacheAccess(hit bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if hit {
		s.hits++
	} else {
		s.misses++
	}
}

func TestStatsReporting(t *testing.T) {
	c := New(1 << 20)
	s := &countingStats{}
	c.SetStats(s)
	c.Get(1, 0)
	c.Add(1, 0, "v", 10)
	c.Get(1, 0)
	if s.hits != 1 || s.misses != 1 {
		t.Errorf("hits=%d misses=%d", s.hits, s.misses)
	}
}

func TestContainsDoesNotCountOrPromote(t *testing.T) {
	c := New(1 << 20)
	s := &countingStats{}
	c.SetStats(s)
	c.Add(1, 0, "v", 10)
	c.Contains(1, 0)
	if s.hits+s.misses != 0 {
		t.Error("Contains must not touch stats")
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New(1 << 16)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := uint64(i % 100)
				c.Add(k, uint64(w), fmt.Sprintf("%d", i), 64)
				c.Get(k, uint64(w))
			}
		}(w)
	}
	wg.Wait()
	if c.UsedBytes() > 1<<16 {
		t.Error("capacity exceeded under concurrency")
	}
}

// sameShard returns n keys of file 1 that land in shard s, starting
// the offset search at from.
func sameShard(c *Cache, s *shard, from uint64, n int) []Key {
	var ks []Key
	for off := from; len(ks) < n; off += 4096 {
		if c.shardFor(1, off) == s {
			ks = append(ks, Key{1, off})
		}
	}
	return ks
}

// ghostSlot returns the index of k's slot in its shard's ghost table
// and its fingerprint.
func ghostSlot(s *shard, k Key) (int, uint32) {
	h := hashKey(k.FileNum, k.Offset)
	return int((h >> 40) & uint64(len(s.ghost)-1)), uint32(h>>8) | 1
}

func TestGhostTableSize(t *testing.T) {
	for _, tc := range []struct{ bytes, slots int }{{4 << 20, 32}, {64 << 20, 512}, {1 << 20, 16}, {0, 16}} {
		c := New(tc.bytes)
		n := 0
		for _, s := range c.shards {
			n += len(s.ghost)
		}
		if n != tc.slots {
			t.Errorf("New(%d): %d ghost slots, want %d", tc.bytes, n, tc.slots)
		}
	}
}

func TestAdmitWithRoom(t *testing.T) {
	c := New(16 * 10000)
	for off := uint64(0); off < 64*4096; off += 4096 {
		for touch := 0; touch < 2; touch++ {
			if _, hit, admit := c.Lookup(1, off, 1000); hit || !admit {
				t.Fatalf("block %d touch %d: hit=%v admit=%v in a cache with room", off, touch, hit, admit)
			}
		}
	}
}

func TestAdmitOnSecondTouchWhenFull(t *testing.T) {
	c := New(16 * 250) // each shard fits two 100-byte blocks
	s := c.shardFor(1, 0)
	ks := sameShard(c, s, 0, 3)
	c.Add(1, ks[0].Offset, "a", 100)
	c.Add(1, ks[1].Offset, "b", 100)
	x := ks[2].Offset
	if _, hit, admit := c.Lookup(1, x, 100); hit || admit {
		t.Fatalf("first miss in a full shard: hit=%v admit=%v, want refused", hit, admit)
	}
	if _, _, admit := c.Lookup(1, x, 100); !admit {
		t.Fatal("second miss in a full shard was refused")
	}
	if _, _, admit := c.Lookup(1, x, 100); admit {
		t.Fatal("admission cleared the slot, but a third miss was admitted too")
	}
	// Get and zero-charge lookups ask only for residency: they never
	// record a refusal, so they cannot turn a first touch into a second.
	y := sameShard(c, s, x+4096, 1)[0].Offset
	c.Get(1, y)
	c.Lookup(1, y, 0)
	if _, _, admit := c.Lookup(1, y, 100); admit {
		t.Fatal("Get counted as the first touch")
	}
	// A block larger than the shard is never admitted.
	for i := 0; i < 3; i++ {
		if _, _, admit := c.Lookup(1, y+1, 1000); admit {
			t.Fatal("oversized block admitted")
		}
	}
	// Hits promote as Get does: touch a, add c, b is the one evicted.
	if v, hit, _ := c.Lookup(1, ks[0].Offset, 100); !hit || v.(string) != "a" {
		t.Fatalf("lookup hit: %v %v", v, hit)
	}
	c.Add(1, x, "c", 100)
	if !c.Contains(1, ks[0].Offset) || c.Contains(1, ks[1].Offset) || !c.Contains(1, x) {
		t.Fatal("a Lookup hit did not promote its block")
	}
}

func TestGhostSlotOverwriteForgets(t *testing.T) {
	c := New(16 * 250)
	s := c.shardFor(1, 0)
	fill := sameShard(c, s, 0, 2)
	c.Add(1, fill[0].Offset, "a", 100)
	c.Add(1, fill[1].Offset, "b", 100)
	// Two keys of this shard that share one ghost slot.
	var a, b Key
	seen := map[int]Key{}
	for _, k := range sameShard(c, s, 1<<30, 64) {
		i, _ := ghostSlot(s, k)
		if prev, ok := seen[i]; ok {
			a, b = prev, k
			break
		}
		seen[i] = k
	}
	if a == b {
		t.Fatal("no two keys share a ghost slot")
	}
	c.Lookup(a.FileNum, a.Offset, 100) // refused: a's fingerprint stored
	c.Lookup(b.FileNum, b.Offset, 100) // refused: b's overwrites it
	if _, _, admit := c.Lookup(a.FileNum, a.Offset, 100); admit {
		t.Fatal("a was admitted after its ghost slot was overwritten")
	}
	if _, _, admit := c.Lookup(a.FileNum, a.Offset, 100); !admit {
		t.Fatal("a was refused on the miss right after a refusal")
	}
}
