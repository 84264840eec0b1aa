package partition

import (
	"errors"
	"fmt"

	"lsmlab/internal/compaction"
	"lsmlab/internal/core"
	"lsmlab/internal/metrics"
	"lsmlab/internal/trace"
	"lsmlab/internal/vfs"
)

// Aggregation: the sharded store surfaces the same monitoring and
// maintenance API as a single tree. Monitoring is one view — Stats
// merges the shards' core.Stats and keeps a row per shard for
// operators hunting hot-shard skew; maintenance (flush, compact,
// retune, scrub, checkpoint, close) fans out through eachShard.

// eachShard runs fn on every shard, in order, with the shard's
// directory relative to the store's, and joins the failures, each named
// by that directory. A lone shard is the store directory itself ("")
// and its error passes through as is.
func (s *Store) eachShard(fn func(dir string, p *core.DB) error) error {
	if len(s.parts) == 1 {
		return fn("", s.parts[0])
	}
	var errs []error
	for i, p := range s.parts {
		if err := fn(shardDirName(i), p); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", shardDirName(i), err))
		}
	}
	return errors.Join(errs...)
}

// Flush flushes every shard.
func (s *Store) Flush() error {
	return s.eachShard(func(_ string, p *core.DB) error { return p.Flush() })
}

// Compact runs a full manual compaction on every shard.
func (s *Store) Compact() error {
	return s.eachShard(func(_ string, p *core.DB) error { return p.Compact() })
}

// WaitIdle blocks until every shard's background work has drained.
func (s *Store) WaitIdle() {
	for _, p := range s.parts {
		p.WaitIdle()
	}
}

// Stats merges the shards' views into the store-wide one, by the
// descriptor tables' rules: counters sum, the degraded flag is set if
// any shard sets it, histograms merge bucket-wise. One shard's view is
// the store's, with no per-shard rows.
func (s *Store) Stats() core.Stats {
	if len(s.parts) == 1 {
		return s.parts[0].Stats()
	}
	views := make([]core.Stats, len(s.parts))
	for i, p := range s.parts {
		views[i] = p.Stats()
	}
	return core.MergeStats(views)
}

// Metrics returns the merged counters.
func (s *Store) Metrics() metrics.Snapshot { return s.Stats().Counters }

// DiskUsageBytes sums the shards' footprints.
func (s *Store) DiskUsageBytes() uint64 { return s.Stats().DiskBytes }

// Tracer returns the tracer the shards share (they inherit one Options,
// so spans from every shard land in the same ring).
func (s *Store) Tracer() *trace.Tracer { return s.parts[0].Tracer() }

// SetShape retunes every shard to the layout online.
func (s *Store) SetShape(layout compaction.Layout, sizeRatio int) error {
	return s.eachShard(func(_ string, p *core.DB) error { return p.SetShape(layout, sizeRatio) })
}

// Shape returns the shards' common strategy name and size ratio.
func (s *Store) Shape() (layout string, sizeRatio int) { return s.parts[0].Shape() }

// ScrubShards scrubs each shard, returning the per-shard reports with
// finding paths relative to the store directory.
func (s *Store) ScrubShards() ([]core.ScrubReport, error) {
	reps := make([]core.ScrubReport, 0, len(s.parts))
	err := s.eachShard(func(dir string, p *core.DB) error {
		rep, err := p.Scrub()
		for j := range rep.Findings {
			rep.Findings[j].Path = vfs.Join(dir, rep.Findings[j].Path)
		}
		reps = append(reps, rep)
		return err
	})
	return reps, err
}

// MergeScrubReports folds ScrubShards' reports into one store-wide
// total: ManifestOK is the conjunction across shards, findings carry
// their shard directory. Merge rather than scrub again — scrubbing
// quarantines corrupt tables, so a second pass would no longer see what
// the first one found.
func MergeScrubReports(reps []core.ScrubReport) core.ScrubReport {
	total := core.ScrubReport{ManifestOK: true}
	for _, rep := range reps {
		total.Tables += rep.Tables
		total.TableBytes += rep.TableBytes
		total.VlogSegments += rep.VlogSegments
		total.ManifestOK = total.ManifestOK && rep.ManifestOK
		total.Findings = append(total.Findings, rep.Findings...)
	}
	return total
}

// Checkpoint writes a consistent online backup of every shard into dir,
// reproducing the store's own layout — descriptor first, as at create —
// so the checkpoint reopens as a store with the same count.
func (s *Store) Checkpoint(dir string) error {
	if n := len(s.parts); n > 1 {
		if s.opts.FS.Exists(vfs.Join(dir, descriptorName)) {
			return fmt.Errorf("partition: checkpoint target %s already holds a store", dir)
		}
		if err := writeDescriptor(s.opts.FS, dir, n); err != nil {
			return err
		}
	}
	return s.eachShard(func(sub string, p *core.DB) error { return p.Checkpoint(vfs.Join(dir, sub)) })
}
