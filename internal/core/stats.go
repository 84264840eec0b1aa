package core

import (
	"fmt"
	"strings"

	"lsmlab/internal/metrics"
)

// LevelStats summarizes one level for monitoring and experiments.
type LevelStats struct {
	Level    int
	Runs     int
	Files    int
	Bytes    uint64
	Capacity uint64 // byte capacity (0 for level 0, which is run-count bound)
}

// TreeStats describes the current shape of the LSM-tree.
type TreeStats struct {
	Levels      []LevelStats
	TotalBytes  uint64
	TotalFiles  int
	TotalRuns   int
	MemtableLen int
	Immutables  int
	LiveSeq     uint64
	// MemtableBytes is the mutable buffer's footprint plus any immutable
	// buffers awaiting flush — the write-side memory pressure gauge.
	MemtableBytes uint64
	// BacklogBytes estimates the pending compaction debt: bytes by which
	// levels exceed their capacities. A persistently non-zero backlog
	// means compaction is not keeping up with ingest (a hot shard, in
	// the partitioned store).
	BacklogBytes uint64
	// L0Runs is Levels[0].Runs, hoisted out so monitoring surfaces need
	// not walk the level slice for the stall-relevant figure.
	L0Runs int
}

// TreeStats returns the current structure summary.
func (db *DB) TreeStats() TreeStats {
	rs := db.state.Load()
	ts := TreeStats{
		MemtableLen: rs.mems[0].mt.Len(),
		Immutables:  len(rs.mems) - 1,
		LiveSeq:     db.visibleSeq.Load(),
	}
	for _, mw := range rs.mems {
		ts.MemtableBytes += uint64(mw.mt.ApproximateBytes())
	}
	popts := db.picker.Load().Options()
	for i, l := range rs.version.Levels {
		ls := LevelStats{Level: i, Runs: len(l.Runs), Files: l.NumFiles(), Bytes: l.Size()}
		if i >= 1 {
			ls.Capacity = popts.LevelCapacityBytes(i)
			if ls.Bytes > ls.Capacity {
				ts.BacklogBytes += ls.Bytes - ls.Capacity
			}
		} else {
			ts.L0Runs = ls.Runs
		}
		ts.Levels = append(ts.Levels, ls)
		ts.TotalBytes += ls.Bytes
		ts.TotalFiles += ls.Files
		ts.TotalRuns += ls.Runs
	}
	return ts
}

// String renders the tree shape like the lsmctl "shape" command.
func (ts TreeStats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "memtable: %d entries (+%d immutable)\n", ts.MemtableLen, ts.Immutables)
	for _, l := range ts.Levels {
		bar := strings.Repeat("#", l.Runs)
		fmt.Fprintf(&b, "L%d: %2d runs %3d files %10d bytes %s\n", l.Level, l.Runs, l.Files, l.Bytes, bar)
	}
	fmt.Fprintf(&b, "total: %d runs, %d files, %d bytes", ts.TotalRuns, ts.TotalFiles, ts.TotalBytes)
	return b.String()
}

// FormatStats renders the engine counters, derived amplification
// figures, and — verbosely — the per-operation latency percentiles, for
// lsmctl stats and logs.
func (db *DB) FormatStats(verbose bool) string {
	s := db.m.Snapshot()
	var b strings.Builder
	b.WriteString(s.String())
	fmt.Fprintf(&b, "\nspace_amp=%.2f disk=%d bytes cache_hit=%.2f throttle_ms=%d",
		db.SpaceAmplification(), db.DiskUsageBytes(), s.CacheHitRate(), s.ThrottleNs/1e6)
	fmt.Fprintf(&b, "\nblock_reads=%d (cached %d) commit_groups=%d avg_group=%.2f wal_syncs=%d syncs_saved=%d",
		s.BlockReads, s.BlockReadsCached, s.CommitGroups, s.AvgCommitGroupSize(),
		s.WALSyncs, s.WALSyncsSaved)
	// Health is always one line: operators grep for "degraded=" and a
	// background error is visible the moment it happens, not at Close.
	// Injected errors carry op+path (faultfs.OpError, os.PathError), so
	// the failing operation and file name surface here.
	h := db.Health()
	switch {
	case h.Degraded:
		fmt.Fprintf(&b, "\ndegraded=true op=%s kind=%s cause=%q", h.Op, h.Kind, h.Cause)
	case h.BgErr != "":
		fmt.Fprintf(&b, "\ndegraded=false bg_err_op=%s bg_err=%q", h.BgErrOp, h.BgErr)
	default:
		fmt.Fprintf(&b, "\ndegraded=false")
	}
	if s.ScrubbedTables > 0 || s.ScrubCorruptions > 0 {
		fmt.Fprintf(&b, " scrubbed=%d scrub_corruptions=%d", s.ScrubbedTables, s.ScrubCorruptions)
	}
	wp := db.WorkloadProfile()
	if wp.Enabled {
		// The measured workload character and RUM point over the decay
		// window — the live versions of the figures the paper's tuning
		// models take as givens.
		fmt.Fprintf(&b, "\nworkload: gets=%d puts=%d deletes=%d scans=%d mean_scan_len=%.1f distinct~%d zipf_s=%.2f top_share=%.2f",
			wp.Gets, wp.Puts, wp.Deletes, wp.Scans, wp.MeanScanLen, wp.DistinctKeys, wp.ZipfS, wp.TopShare)
		fmt.Fprintf(&b, "\nrum(window): read_amp=%.2f write_amp=%.2f space_amp=%.2f",
			wp.ReadAmp, wp.WriteAmp, wp.SpaceAmp)
	}
	if verbose && wp.Enabled {
		for _, lp := range wp.Levels {
			fmt.Fprintf(&b, "\n  L%d: runs=%d probes/get=%.2f block_reads=%d (cached %d) bytes_read=%d bytes_written=%d compact_in=%d",
				lp.Level, lp.LiveRuns, lp.ReadAmp, lp.BlockReads, lp.BlockReadsCached,
				lp.BytesRead, lp.BytesWritten, lp.CompactionBytesIn)
			for _, r := range reasonNames {
				if v := lp.WriteByReason[r]; v > 0 {
					fmt.Fprintf(&b, " %s=%d", r, v)
				}
			}
		}
		for _, tw := range wp.Tenants {
			fmt.Fprintf(&b, "\n  tenant %s: ops~%d gets=%d puts=%d deletes=%d scans=%d",
				tw.Tenant, tw.Ops, tw.Gets, tw.Puts, tw.Deletes, tw.Scans)
		}
		if len(wp.TopKeys) > 0 {
			fmt.Fprintf(&b, "\n  top keys:")
			for i, hk := range wp.TopKeys {
				if i == 5 {
					break
				}
				fmt.Fprintf(&b, " %q~%d", hk.Key, hk.Count)
			}
		}
	}
	if verbose {
		lat := db.m.Latencies()
		fmt.Fprintf(&b, "\nlatency (this process):")
		fmt.Fprintf(&b, "\n  get        %s", lat.Get)
		fmt.Fprintf(&b, "\n  put        %s", lat.Put)
		fmt.Fprintf(&b, "\n  scan-next  %s", lat.ScanNext)
		fmt.Fprintf(&b, "\n  flush      %s", lat.Flush)
		fmt.Fprintf(&b, "\n  compaction %s", lat.Compaction)
		gs := db.m.GroupSizes()
		if gs.N > 0 {
			fmt.Fprintf(&b, "\ncommit group size: n=%d mean=%.2f max=%d",
				gs.N, gs.Mean(), gs.Max)
		}
		// The tree shape rides along verbosely so remote consumers
		// (lsmctl top over the STATS verb) see per-level runs/bytes
		// without a second round trip.
		fmt.Fprintf(&b, "\n%s", db.TreeStats())
	}
	return b.String()
}

// CommitGroupSizes returns the histogram of batches per commit group
// (values are counts, not durations).
func (db *DB) CommitGroupSizes() metrics.HistogramSnapshot { return db.m.GroupSizes() }

// FilterMemoryBytes sums the pinned Bloom-filter bytes across every
// live table — the memory side of the filter experiments.
func (db *DB) FilterMemoryBytes() int64 {
	rs, err := db.pin()
	if err != nil {
		return 0
	}
	defer rs.unpin()
	var total int64
	for _, l := range rs.version.Levels {
		for _, r := range l.Runs {
			for _, f := range r.Files {
				// A table that cannot be opened has no filter in memory.
				if rd, err := rs.reader(f.Num); err == nil {
					total += int64(rd.FilterSizeBytes())
				}
			}
		}
	}
	return total
}

// SpaceAmplification estimates space amplification: bytes on disk
// divided by the bytes of unique live entries (approximated by the last
// level's size plus live memtable data, per Dong et al.'s definition).
// It returns 1 when the tree is empty.
func (db *DB) SpaceAmplification() float64 {
	v := db.Version()
	total := float64(v.TotalSize())
	if total == 0 {
		return 1
	}
	// Unique data is approximated by the deepest non-empty level.
	var deepest float64
	for i := len(v.Levels) - 1; i >= 0; i-- {
		if sz := v.Levels[i].Size(); sz > 0 {
			deepest = float64(sz)
			break
		}
	}
	if deepest == 0 {
		return 1
	}
	return total / deepest
}
