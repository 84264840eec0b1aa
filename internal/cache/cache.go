// Package cache implements the sharded LRU block cache of tutorial
// §2.1.3. Commercial LSM engines keep recently read data blocks (and
// optionally filter/index blocks) in memory; this cache is shared across
// all open tables, keyed by (file number, block offset), and charged by
// approximate block size.
//
// A shard with room admits every block. A full shard admits a missed
// block only on its second touch: the first miss leaves a fingerprint
// in the shard's ghost table and is refused, so blocks read once (cold
// lookups, compaction inputs) do not evict blocks read again.
package cache

import (
	"container/list"
	"math/bits"
	"sync"
)

// shardCount must be a power of two.
const shardCount = 16

// blockSize is the engine's data block size (sstable.DefaultBlockSize).
// Each shard's ghost table gets one slot per ghostBlocks blocks this
// size that the shard holds, and at least one. Every admission on a
// full shard evicts, and blocks evicted out of allocation order leave
// the heap's spans part-empty: on a uniform workload over 14x the cache,
// mem_held_mb grew by 17 % at one slot per 4 blocks, 6 % per 16 and
// 3 % per 32, while the hit rate held.
const (
	blockSize   = 4096
	ghostBlocks = 32
)

// Key identifies a cached block.
type Key struct {
	FileNum uint64
	Offset  uint64
}

type entry struct {
	key    Key
	value  any
	charge int
}

// Stats receives cache events; the engine wires this to its metrics.
type Stats interface {
	CacheAccess(hit bool)
}

type shard struct {
	mu       sync.Mutex
	capacity int
	used     int
	ll       *list.List // front = most recent
	items    map[Key]*list.Element
	// ghost is direct-mapped: each slot holds the fingerprint of the
	// last key refused there (0 = empty), a power-of-two count of them.
	ghost []uint32
}

// lookup is the read fast path: one lock acquisition, no defer — this
// runs once per block access on every point lookup, and the defer'd
// unlock is measurable there. On a miss it also decides admission for
// a block of the given charge; h is the key's hash from shardFor.
func (s *shard) lookup(k Key, h uint64, charge int) (v any, hit, admit bool) {
	s.mu.Lock()
	if el, ok := s.items[k]; ok {
		s.ll.MoveToFront(el)
		v = el.Value.(*entry).value
		s.mu.Unlock()
		return v, true, false
	}
	switch {
	case s.used+charge <= s.capacity:
		admit = true
	case charge <= s.capacity:
		slot := &s.ghost[(h>>40)&uint64(len(s.ghost)-1)]
		fp := uint32(h>>8) | 1
		if admit = *slot == fp; admit {
			*slot = 0
		} else {
			*slot = fp
		}
	}
	s.mu.Unlock()
	return nil, false, admit
}

func (s *shard) add(k Key, v any, charge int) {
	if charge > s.capacity {
		return // larger than the shard: never cacheable
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[k]; ok {
		e := el.Value.(*entry)
		s.used += charge - e.charge
		e.value, e.charge = v, charge
		s.ll.MoveToFront(el)
	} else {
		el := s.ll.PushFront(&entry{key: k, value: v, charge: charge})
		s.items[k] = el
		s.used += charge
	}
	for s.used > s.capacity {
		oldest := s.ll.Back()
		if oldest == nil {
			break
		}
		e := oldest.Value.(*entry)
		s.ll.Remove(oldest)
		delete(s.items, e.key)
		s.used -= e.charge
	}
}

func (s *shard) evictFile(fileNum uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for el := s.ll.Front(); el != nil; {
		next := el.Next()
		e := el.Value.(*entry)
		if e.key.FileNum == fileNum {
			s.ll.Remove(el)
			delete(s.items, e.key)
			s.used -= e.charge
		}
		el = next
	}
}

func (s *shard) usedBytes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.used
}

// Cache is a sharded LRU cache charged in bytes.
type Cache struct {
	shards [shardCount]*shard
	stats  Stats
}

// New returns a cache with the given total capacity in bytes. A
// capacity below shardCount bytes effectively disables caching.
func New(capacityBytes int) *Cache {
	c := &Cache{}
	per := capacityBytes / shardCount
	ghost := 1 << (bits.Len(uint(max(per/(ghostBlocks*blockSize), 1))) - 1)
	for i := range c.shards {
		c.shards[i] = &shard{
			capacity: per,
			ll:       list.New(),
			items:    make(map[Key]*list.Element),
			ghost:    make([]uint32, ghost),
		}
	}
	return c
}

// SetStats attaches a stats sink; safe to call once before use.
func (c *Cache) SetStats(s Stats) { c.stats = s }

func hashKey(fileNum, offset uint64) uint64 {
	h := fileNum*0x9e3779b97f4a7c15 ^ offset*0xc2b2ae3d27d4eb4f
	return h ^ h>>29
}

func (c *Cache) shardFor(fileNum, offset uint64) *shard {
	return c.shards[hashKey(fileNum, offset)&(shardCount-1)]
}

// Get returns the cached value, if present.
func (c *Cache) Get(fileNum, offset uint64) (any, bool) {
	v, ok, _ := c.Lookup(fileNum, offset, 0)
	return v, ok
}

// Lookup implements sstable.BlockCache: Get that, on a miss, also says
// whether the caller should Add the block of charge bytes it is about
// to read. A shard with room for it admits it; a full shard admits it
// only if the same key was refused recently, and otherwise remembers
// the refusal. A zero charge always fits, so it asks only whether the
// block is resident and leaves no trace.
func (c *Cache) Lookup(fileNum, offset uint64, charge int) (v any, hit, admit bool) {
	h := hashKey(fileNum, offset)
	v, hit, admit = c.shards[h&(shardCount-1)].lookup(Key{fileNum, offset}, h, charge)
	if c.stats != nil {
		c.stats.CacheAccess(hit)
	}
	return v, hit, admit
}

// Add implements sstable.BlockCache. It inserts unconditionally,
// evicting least recently used blocks to make room: admission is
// decided by Lookup, before the block is read.
func (c *Cache) Add(fileNum, offset uint64, value any, charge int) {
	c.shardFor(fileNum, offset).add(Key{fileNum, offset}, value, charge)
}

// Contains reports whether the block is cached without disturbing LRU
// order or stats (used by tests and the prefetcher).
func (c *Cache) Contains(fileNum, offset uint64) bool {
	s := c.shardFor(fileNum, offset)
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.items[Key{fileNum, offset}]
	return ok
}

// EvictFile drops every cached block of a deleted file. Without
// compaction-aware prefetching, this is exactly the hot-data eviction
// that Leaper addresses (tutorial §2.1.3, [128]).
func (c *Cache) EvictFile(fileNum uint64) {
	for _, s := range c.shards {
		s.evictFile(fileNum)
	}
}

// UsedBytes returns the current total charge across shards.
func (c *Cache) UsedBytes() int {
	total := 0
	for _, s := range c.shards {
		total += s.usedBytes()
	}
	return total
}
