// Package partition is the store: the key space hash-routed across
// independent LSM trees (tutorial §2.2.2: PebblesDB fragments the key
// range; Nova-LSM shards across storage components). Each shard owns a
// full core.DB — its own memtable, WAL, group-commit pipeline, flush
// queue, and compaction workers — so background work parallelizes
// across shards, the property a single tree cannot offer because its
// compactions chain through adjacent levels. A single tree is the
// one-shard store, every operation handed straight to it.
//
// The Store is the router in front of the shards:
//
//   - Point ops (Get/Put/Delete/Merge) hash to exactly one shard and
//     never take a cross-shard lock.
//   - A multi-shard Apply is split into per-shard sub-batches committed
//     through each shard's own commit pipeline concurrently, under a
//     shared read-lock so snapshot capture can order against it.
//   - Scans run against a snapshot vector — one core.Snapshot per
//     shard, captured under a brief exclusive section — and merge the
//     per-shard iterators into one globally ordered, snapshot-isolated
//     stream (see scan.go).
//   - Stats, metrics, latency histograms, health, scrub, and
//     checkpoints aggregate across shards with per-shard detail
//     (see stats.go).
//
// Lock ordering: Store.applyMu is taken strictly before any shard-level
// lock (each core.DB's db.mu / walMu live below it), and never while
// holding one. Single-shard operations skip applyMu entirely — a batch
// confined to one shard is atomic within that shard's pipeline, so the
// snapshot vector can never observe half of it.
package partition

import (
	"errors"
	"fmt"
	"sync"

	"lsmlab/internal/bloom"
	"lsmlab/internal/core"
	"lsmlab/internal/kv"
	"lsmlab/internal/vfs"
)

// ErrShardMismatch is returned when Open's requested shard count does
// not match the count the directory holds. Reopening with the wrong
// count would silently misroute keys, so it is refused.
var ErrShardMismatch = errors.New("partition: shard count does not match directory layout")

// shardDirName names shard i's subdirectory in a store of several.
func shardDirName(i int) string { return fmt.Sprintf("part-%03d", i) }

// layout is the one place a directory is read as flat or sharded. The
// descriptor is the sole source of a count above one; without it the
// directory is a one-shard store, fresh when it has no MANIFEST either.
// A sharded directory from before the descriptor (part-000/MANIFEST,
// nothing at the root) is adopted once by its contiguous part-NNN
// prefix and given one.
func layout(fs vfs.FS, path string) (shards int, fresh bool, err error) {
	if fs.Exists(vfs.Join(path, descriptorName)) {
		shards, err = readDescriptor(fs, path)
		return shards, false, err
	}
	flat := fs.Exists(vfs.Join(path, "MANIFEST"))
	legacy := 0
	for fs.Exists(vfs.Join(path, shardDirName(legacy), "MANIFEST")) {
		legacy++
	}
	switch {
	case legacy == 0:
		return 1, !flat, nil
	case flat:
		return 0, false, fmt.Errorf("partition: %s holds both a flat tree (MANIFEST) and shard directories (%s); refusing to guess which is the store", path, shardDirName(0))
	case legacy == 1:
		return 0, false, fmt.Errorf("partition: %s is a one-shard store in the old %s layout; move that directory's files up into %s", path, shardDirName(0), path)
	}
	return legacy, false, writeDescriptor(fs, path, legacy)
}

// Store is a hash-sharded set of LSM trees behind one engine API.
type Store struct {
	opts  core.Options
	parts []*core.DB

	// applyMu orders multi-shard batches against snapshot-vector
	// capture: a multi-shard Apply holds the read side across all of
	// its per-shard commits (through publish), and snapshotVec takes
	// the write side briefly, so a captured vector observes every
	// multi-shard batch fully or not at all. See the package comment
	// for the lock ordering.
	applyMu sync.RWMutex

	// subPool recycles the per-shard sub-batch sets of the splitter so
	// a steady-state Apply allocates nothing per call.
	subPool sync.Pool
}

// Open creates or reopens the store in opts.Path with n shards, each
// inheriting every other option. One shard lives in opts.Path itself —
// the layout core.Open reads and writes — and several in part-NNN
// subdirectories beside a descriptor of the count, made durable before
// the first shard is created. n == 0 opens whatever is there, one shard
// when fresh; an n that disagrees is refused with ErrShardMismatch.
func Open(opts core.Options, n int) (*Store, error) {
	if n < 0 || n > maxShards {
		return nil, fmt.Errorf("partition: invalid shard count %d", n)
	}
	have, fresh, err := layout(opts.FS, opts.Path)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		n = have
	}
	if n != have {
		if !fresh {
			return nil, fmt.Errorf("%w: requested %d, directory %s has %d", ErrShardMismatch, n, opts.Path, have)
		}
		if err := writeDescriptor(opts.FS, opts.Path, n); err != nil {
			return nil, err
		}
	}
	s := &Store{opts: opts, parts: make([]*core.DB, 0, n)}
	s.subPool.New = func() any { return make([]core.Batch, n) }
	for i := 0; i < n; i++ {
		// A shard the descriptor names is opened whether or not its
		// MANIFEST survived a crash: core.Open replays its WAL.
		po := opts
		if n > 1 {
			po.Path = vfs.Join(opts.Path, shardDirName(i))
		}
		db, err := core.Open(po)
		if err != nil {
			// Don't leak the shards already opened; their close errors
			// ride along with the open failure.
			return nil, errors.Join(fmt.Errorf("partition: open shard %d of %d in %s: %w", i, n, opts.Path, err), s.Close())
		}
		s.parts = append(s.parts, db)
	}
	return s, nil
}

// NumShards returns the shard count.
func (s *Store) NumShards() int { return len(s.parts) }

// Shards returns the trees in shard order, not to be modified.
func (s *Store) Shards() []*core.DB { return s.parts }

// shardOf returns the index of the shard owning key.
func (s *Store) shardOf(key []byte) int {
	return int(bloom.Hash64(key) % uint64(len(s.parts)))
}

// route returns the shard owning key; one shard owns every key unhashed.
func (s *Store) route(key []byte) *core.DB {
	if len(s.parts) == 1 {
		return s.parts[0]
	}
	return s.parts[s.shardOf(key)]
}

// Put writes a key into its shard.
func (s *Store) Put(key, value []byte) error { return s.route(key).Put(key, value) }

// Get reads a key from its shard. Like core.DB.Get, the value is
// read-only: it may alias the shard's memtable or a cached block.
func (s *Store) Get(key []byte) ([]byte, error) { return s.route(key).Get(key) }

// GetTraced is Get carrying a wire-propagated trace id.
func (s *Store) GetTraced(key []byte, traceID uint64) ([]byte, error) {
	return s.route(key).GetTraced(key, traceID)
}

// Delete tombstones a key in its shard.
func (s *Store) Delete(key []byte) error { return s.route(key).Delete(key) }

// Merge applies a read-modify-write operand in the key's shard.
func (s *Store) Merge(key, operand []byte) error { return s.route(key).Merge(key, operand) }

// DeleteRange removes [start, end) in every shard (hash routing
// scatters ranges across all of them). It rides through Apply so the
// broadcast commits concurrently and is ordered against snapshots.
func (s *Store) DeleteRange(start, end []byte) error {
	var b core.Batch
	b.DeleteRange(start, end)
	return s.Apply(&b)
}

// Apply atomically applies a batch. Ops are fanned out to their shards:
// a batch confined to one shard commits through that shard's pipeline
// directly (no cross-shard lock); a multi-shard batch commits its
// per-shard sub-batches concurrently under the read side of applyMu,
// so snapshot vectors observe it all-or-nothing.
func (s *Store) Apply(b *core.Batch) error { return s.ApplyTraced(b, 0) }

// ApplyTraced is Apply carrying a wire-propagated trace id.
func (s *Store) ApplyTraced(b *core.Batch, traceID uint64) error {
	if b.Len() == 0 {
		return nil
	}
	if len(s.parts) == 1 {
		return s.parts[0].ApplyTraced(b, traceID)
	}
	// Classify: does the batch touch one shard or several? Range
	// tombstones broadcast, so they force the multi-shard path.
	single, multi := -1, false
	b.EachOp(func(kind kv.Kind, key, _ []byte) {
		if multi {
			return
		}
		if kind == kv.KindRangeDelete {
			multi = true
			return
		}
		idx := s.shardOf(key)
		if single < 0 {
			single = idx
		} else if single != idx {
			multi = true
		}
	})
	if !multi {
		return s.parts[single].ApplyTraced(b, traceID)
	}

	subs := s.subPool.Get().([]core.Batch)
	defer func() {
		for i := range subs {
			subs[i].Reset()
		}
		s.subPool.Put(subs)
	}()
	b.EachOp(func(kind kv.Kind, key, value []byte) {
		if kind == kv.KindRangeDelete {
			for i := range subs {
				subs[i].AddOp(kind, key, value)
			}
			return
		}
		subs[s.shardOf(key)].AddOp(kind, key, value)
	})

	// Commit the sub-batches concurrently, each through its shard's own
	// group-commit pipeline. The read lock is held until every shard
	// has published (core Apply returns post-publish), which is what
	// lets snapshotVec's exclusive section mean "no multi-shard batch
	// is partially visible right now".
	s.applyMu.RLock()
	defer s.applyMu.RUnlock()
	var wg sync.WaitGroup
	errs := make([]error, len(subs))
	for i := range subs {
		if subs[i].Len() == 0 {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = s.parts[i].ApplyTraced(&subs[i], traceID)
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Partition exposes one underlying tree (experiments inspect shapes).
func (s *Store) Partition(i int) *core.DB { return s.parts[i] }

// Close closes every shard, aggregating their errors.
func (s *Store) Close() error {
	return s.eachShard(func(_ string, p *core.DB) error { return p.Close() })
}
