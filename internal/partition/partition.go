// Package partition is the sharded engine: the key space hash-routed
// across independent LSM trees (tutorial §2.2.2: PebblesDB fragments
// the key range; Nova-LSM shards across storage components). Each
// shard owns a full core.DB — its own memtable, WAL, group-commit
// pipeline, flush queue, and compaction workers — so background work
// parallelizes across shards, the property a single tree cannot offer
// because its compactions chain through adjacent levels.
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
// not match the count implied by the directory layout. Reopening with
// the wrong count would silently misroute keys, so it is refused.
var ErrShardMismatch = errors.New("partition: shard count does not match directory layout")

// shardDirName names shard i's subdirectory.
func shardDirName(i int) string { return fmt.Sprintf("part-%03d", i) }

// deriveProbeLimit bounds the gap scan in DeriveShards: after the
// contiguous prefix ends, this many further indices are checked for a
// stray shard that would indicate a damaged (gapped) layout.
const deriveProbeLimit = 1024

// DeriveShards inspects path and reports the shard count its layout
// implies: the length of the contiguous part-NNN prefix, each probed by
// its MANIFEST (vfs.List is files-only on every implementation, so
// subdirectories are probed, not listed). It returns 0 when the
// directory is absent or holds no shards. A flat single-tree layout (a
// MANIFEST directly in path) or a non-contiguous part set is an error —
// opening such a directory as a sharded store would orphan its data.
func DeriveShards(fs vfs.FS, path string) (int, error) {
	if fs.Exists(vfs.Join(path, "MANIFEST")) {
		return 0, fmt.Errorf("partition: %s holds a flat single-tree store; open it with core.Open or migrate it into part-000", path)
	}
	n := 0
	for fs.Exists(vfs.Join(path, shardDirName(n), "MANIFEST")) {
		n++
	}
	for i := n + 1; i <= n+deriveProbeLimit; i++ {
		if fs.Exists(vfs.Join(path, shardDirName(i), "MANIFEST")) {
			return 0, fmt.Errorf("partition: %s has a gap in its shard directories (%s exists but %s is missing)", path, shardDirName(i), shardDirName(n))
		}
	}
	return n, nil
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

// Open creates (or reopens) a store with n shards, each in its own
// part-NNN subdirectory of opts.Path inheriting every other option.
// n == 0 derives the count from an existing layout (and fails on a
// fresh directory, where there is nothing to derive). A reopen whose n
// disagrees with the layout is refused with ErrShardMismatch.
func Open(opts core.Options, n int) (*Store, error) {
	derived, derr := DeriveShards(opts.FS, opts.Path)
	if derr != nil {
		return nil, derr
	}
	switch {
	case n < 0:
		return nil, fmt.Errorf("partition: invalid shard count %d", n)
	case n == 0:
		if derived == 0 {
			return nil, fmt.Errorf("partition: %s has no shard layout to derive a count from", opts.Path)
		}
		n = derived
	case derived > 0 && derived != n:
		return nil, fmt.Errorf("%w: requested %d, directory %s has %d", ErrShardMismatch, n, opts.Path, derived)
	}
	s := &Store{opts: opts, parts: make([]*core.DB, 0, n)}
	s.subPool.New = func() any { return make([]core.Batch, n) }
	for i := 0; i < n; i++ {
		po := opts
		po.Path = vfs.Join(opts.Path, shardDirName(i))
		db, err := core.Open(po)
		if err != nil {
			// Don't leak the shards already opened; their close errors
			// ride along with the open failure.
			errs := []error{fmt.Errorf("partition: open %s: %w", shardDirName(i), err)}
			if cerr := s.Close(); cerr != nil {
				errs = append(errs, cerr)
			}
			return nil, errors.Join(errs...)
		}
		s.parts = append(s.parts, db)
	}
	return s, nil
}

// NumShards returns the shard count.
func (s *Store) NumShards() int { return len(s.parts) }

// shardOf returns the index of the shard owning key.
func (s *Store) shardOf(key []byte) int {
	return int(bloom.Hash64(key) % uint64(len(s.parts)))
}

func (s *Store) route(key []byte) *core.DB { return s.parts[s.shardOf(key)] }

// Put writes a key into its shard.
func (s *Store) Put(key, value []byte) error { return s.route(key).Put(key, value) }

// Get reads a key from its shard.
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
	return s.eachShard(func(_ int, p *core.DB) error { return p.Close() })
}
