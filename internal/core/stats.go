package core

import (
	"fmt"
	"strings"

	"lsmlab/internal/admission"
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
	ts := TreeStats{LiveSeq: db.visibleSeq.Load()}
	if len(rs.mems) > 0 { // none once Close has flushed the last buffer
		ts.MemtableLen = rs.mems[0].mt.Len()
		ts.Immutables = len(rs.mems) - 1
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

// Stats is the one plain-data view of a store's state that every
// monitoring surface reads: the STATS text (Text), /metrics and the
// lsmctl commands. A single tree fills it from its own getters
// (DB.Stats); a partitioned store merges its shards' views
// (MergeStats) and keeps one ShardStats row per shard; the server adds
// its counters to Counters and Latency and describes itself in Server.
type Stats struct {
	Counters  metrics.Snapshot
	Latency   metrics.LatencySnapshot
	Health    Health
	Tree      TreeStats
	SpaceAmp  float64
	DiskBytes uint64
	Workload  WorkloadProfile
	Shards    []ShardStats // nil for a single tree
	Server    *ServerStats // nil on an embedded store
}

// ShardStats is the per-shard detail a merged view keeps — the figures
// an operator needs to spot hot-shard skew.
type ShardStats struct {
	Tree      TreeStats
	DiskBytes uint64
	Degraded  bool
}

// ServerStats is the serving layer's section of the view.
type ServerStats struct {
	Tenants []admission.TenantStats // one row per tenant seen
	// Leader is set on a replication leader, which reports its repl
	// counters even while they are all zero.
	Leader bool
	// Traced is set when a tracer is attached; the span counts are its
	// lifetime totals.
	Traced                      bool
	SpansStarted, SpansRetained uint64
}

// Stats fills the view for a single tree.
func (db *DB) Stats() Stats {
	ts := db.TreeStats()
	return Stats{
		Counters:  db.m.Snapshot(),
		Latency:   db.m.Latencies(),
		Health:    db.Health(),
		Tree:      ts,
		SpaceAmp:  ts.spaceAmp(),
		DiskBytes: db.DiskUsageBytes(),
		Workload:  db.WorkloadProfile(),
	}
}

// MergeStats folds per-shard views into one store-wide view. Counters
// and histograms merge by their descriptor tables' rules; the tree
// shape sums level-wise with LiveSeq the maximum watermark (the
// faithful form is SeqVector); health is degraded if any shard is,
// carrying the first such shard's detail with its id prefixed to the
// failing op; space amplification is total bytes over total unique
// bytes; the workload profiles merge as MergeProfiles describes.
func MergeStats(shards []Stats) Stats {
	out := Stats{Shards: make([]ShardStats, len(shards))}
	profiles := make([]WorkloadProfile, len(shards))
	var total, unique uint64
	for i, s := range shards {
		out.Counters = out.Counters.Add(s.Counters)
		out.Latency = out.Latency.Merge(s.Latency)
		out.DiskBytes += s.DiskBytes
		t, u := s.Tree.spaceTerms()
		total, unique = total+t, unique+u
		out.Health.add(i, s.Health)
		out.Tree.add(s.Tree)
		profiles[i] = s.Workload
		out.Shards[i] = ShardStats{Tree: s.Tree, DiskBytes: s.DiskBytes, Degraded: s.Health.Degraded}
	}
	out.Workload = MergeProfiles(profiles)
	out.SpaceAmp = 1
	if unique > 0 {
		out.SpaceAmp = float64(total) / float64(unique)
	}
	return out
}

// add folds shard i's health into a store-wide summary: the first
// degraded shard and the first background error win.
func (h *Health) add(i int, o Health) {
	if o.Degraded && !h.Degraded {
		h.Degraded = true
		h.Op = fmt.Sprintf("shard-%d/%s", i, o.Op)
		h.Kind, h.Cause, h.SinceNs = o.Kind, o.Cause, o.SinceNs
	}
	if o.BgErr != "" && h.BgErr == "" {
		h.BgErr = o.BgErr
		h.BgErrOp = fmt.Sprintf("shard-%d/%s", i, o.BgErrOp)
	}
}

// add folds one shard's shape into a store-wide total.
func (ts *TreeStats) add(o TreeStats) {
	ts.TotalBytes += o.TotalBytes
	ts.TotalFiles += o.TotalFiles
	ts.TotalRuns += o.TotalRuns
	ts.MemtableLen += o.MemtableLen
	ts.Immutables += o.Immutables
	ts.MemtableBytes += o.MemtableBytes
	ts.BacklogBytes += o.BacklogBytes
	ts.L0Runs += o.L0Runs
	if o.LiveSeq > ts.LiveSeq {
		ts.LiveSeq = o.LiveSeq
	}
	for i, l := range o.Levels {
		for len(ts.Levels) <= i {
			ts.Levels = append(ts.Levels, LevelStats{Level: len(ts.Levels)})
		}
		ts.Levels[i].Runs += l.Runs
		ts.Levels[i].Files += l.Files
		ts.Levels[i].Bytes += l.Bytes
		ts.Levels[i].Capacity += l.Capacity
	}
}

// Text renders the view as the STATS block: counters and derived
// amplification figures, health, the measured workload, one row per
// shard and per tenant, and — verbosely — per-level attribution,
// latency percentiles and the tree shape. It is the payload of the
// STATS verb and of lsmctl stats/top, for every engine form.
func (v Stats) Text(verbose bool) string {
	s := v.Counters
	var b strings.Builder
	b.WriteString(s.String())
	fmt.Fprintf(&b, "\nspace_amp=%.2f disk=%d bytes cache_hit=%.2f throttle_ms=%d",
		v.SpaceAmp, v.DiskBytes, s.CacheHitRate(), s.ThrottleNs/1e6)
	fmt.Fprintf(&b, "\nblock_reads=%d (cached %d) commit_groups=%d avg_group=%.2f wal_syncs=%d syncs_saved=%d linger_ms=%d linger_timeouts=%d",
		s.BlockReads, s.BlockReadsCached, s.CommitGroups, s.AvgCommitGroupSize(),
		s.WALSyncs, s.WALSyncsSaved, s.CommitLingerNs/1e6, s.CommitLingerTimeouts)
	// Health is always one line: operators grep for "degraded=" and a
	// background error is visible the moment it happens, not at Close.
	// Injected errors carry op+path (faultfs.OpError, os.PathError), so
	// the failing operation and file name surface here.
	h := v.Health
	fmt.Fprintf(&b, "\ndegraded=%t", h.Degraded)
	switch {
	case h.Degraded:
		fmt.Fprintf(&b, " op=%s kind=%s cause=%q", h.Op, h.Kind, h.Cause)
	case h.BgErr != "":
		fmt.Fprintf(&b, " bg_err_op=%s bg_err=%q", h.BgErrOp, h.BgErr)
	}
	if s.ScrubbedTables > 0 || s.ScrubCorruptions > 0 {
		fmt.Fprintf(&b, " scrubbed=%d scrub_corruptions=%d", s.ScrubbedTables, s.ScrubCorruptions)
	}
	wp := v.Workload
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
	if len(v.Shards) > 0 {
		fmt.Fprintf(&b, "\nshards=%d", len(v.Shards))
	}
	for i, sh := range v.Shards {
		ts := sh.Tree
		fmt.Fprintf(&b,
			"\n  shard %03d: mem=%dB l0_runs=%d backlog=%dB runs=%d files=%d disk=%dB degraded=%v",
			i, ts.MemtableBytes, ts.L0Runs, ts.BacklogBytes, ts.TotalRuns, ts.TotalFiles, sh.DiskBytes, sh.Degraded)
	}
	if verbose {
		lat := v.Latency
		fmt.Fprintf(&b, "\nlatency (this process):")
		fmt.Fprintf(&b, "\n  get        %s", lat.Get)
		fmt.Fprintf(&b, "\n  put        %s", lat.Put)
		fmt.Fprintf(&b, "\n  scan-next  %s", lat.ScanNext)
		fmt.Fprintf(&b, "\n  flush      %s", lat.Flush)
		fmt.Fprintf(&b, "\n  compaction %s", lat.Compaction)
		if gs := lat.GroupSize; gs.N > 0 {
			fmt.Fprintf(&b, "\ncommit group size: n=%d mean=%.2f max=%d", gs.N, gs.Mean(), gs.Max)
		}
		// The tree shape rides along verbosely so remote consumers
		// (lsmctl top over the STATS verb) see per-level runs/bytes
		// without a second round trip.
		fmt.Fprintf(&b, "\n%s", v.Tree)
	}
	if sv := v.Server; sv != nil {
		fmt.Fprintf(&b, "\nserver: conns_open=%d opened=%d rejected=%d requests=%d errors=%d throttled=%d net_read=%dB net_written=%dB",
			s.ConnsOpened-s.ConnsClosed, s.ConnsOpened, s.ConnsRejected,
			s.NetRequests, s.NetRequestErrors, s.NetThrottled, s.NetBytesRead, s.NetBytesWritten)
		// One row per tenant seen, so lsmctl top and the STATS verb show
		// the multi-tenant picture without a scraper.
		for _, t := range sv.Tenants {
			name := t.Tenant
			if name == admission.DefaultTenant {
				name = "(default)"
			}
			fmt.Fprintf(&b, "\ntenant %s: requests=%d throttled=%d in=%dB out=%dB throttling=%v",
				name, t.Requests, t.Throttled, t.BytesIn, t.BytesOut, t.Throttling)
		}
		// The repl line appears only on nodes that replicate: leaders
		// show shipping counters, followers apply counters.
		if sv.Leader || s.ReplBatchesApplied+s.ReplRepairOps+s.ReplGapsSignaled > 0 {
			fmt.Fprintf(&b, "\nrepl: subscribes=%d frames_shipped=%d gaps=%d acks=%d repair_pages=%d batches_applied=%d repair_ops=%d",
				s.ReplSubscribes, s.ReplFramesShipped, s.ReplGapsSignaled,
				s.ReplAcks, s.ReplRepairPages, s.ReplBatchesApplied, s.ReplRepairOps)
		}
		if verbose {
			fmt.Fprintf(&b, "\n  request    %s", v.Latency.Request)
		}
	}
	return b.String()
}

// FilterMemoryBytes sums the pinned Bloom-filter bytes across every
// live table — the memory side of the filter experiments.
func (db *DB) FilterMemoryBytes() int64 {
	rs, err := db.pin()
	if err != nil {
		return 0
	}
	defer rs.unpin()
	var total int64
	for _, f := range rs.version.Files() {
		// A table that cannot be opened has no filter in memory.
		if rd, err := rs.reader(f.Num); err == nil {
			total += int64(rd.FilterSizeBytes())
		}
	}
	return total
}

// spaceTerms returns space amplification's numerator and denominator:
// every table byte, and the bytes of unique live entries approximated
// by the deepest non-empty level (Dong et al.'s definition; in a young
// tree nothing has reached the last level yet, and an all-L0 tree has
// space amplification 1, not infinity).
func (ts TreeStats) spaceTerms() (total, deepest uint64) {
	for _, l := range ts.Levels {
		total += l.Bytes
		if l.Bytes > 0 {
			deepest = l.Bytes
		}
	}
	return total, deepest
}

// spaceAmp is bytes on disk divided by the bytes of unique live
// entries, and 1 for an empty tree.
func (ts TreeStats) spaceAmp() float64 {
	total, deepest := ts.spaceTerms()
	if deepest == 0 {
		return 1
	}
	return float64(total) / float64(deepest)
}

// SpaceAmplification estimates the tree's current space amplification.
func (db *DB) SpaceAmplification() float64 { return db.TreeStats().spaceAmp() }
