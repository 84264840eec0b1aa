// Package metrics collects the engine-wide counters from which the
// experiments derive write amplification, read amplification, space
// amplification, stall time, and filter effectiveness. All counters are
// lock-free and safe for concurrent update: a hot path touches its
// atomic field directly. Everything that reads them — snapshots,
// intervals, cross-shard merges, the /metrics exposition — walks the
// descriptor tables in table.go, so a new counter is one field in
// Metrics, one in Snapshot and one row there.
package metrics

import (
	"fmt"
	"sync/atomic"
)

// Metrics is the set of counters maintained by one engine instance.
type Metrics struct {
	// Write path.
	Puts          atomic.Int64 // user put operations
	Deletes       atomic.Int64 // user delete operations (all kinds)
	BytesIngested atomic.Int64 // user key+value bytes accepted
	WALBytes      atomic.Int64 // bytes appended to the write-ahead log

	// Group commit (the leader-based commit pipeline).
	CommitGroups  atomic.Int64 // commit groups written (one WAL write each)
	CommitBatches atomic.Int64 // batches committed across all groups
	WALSyncs      atomic.Int64 // WAL syncs issued (one per group under SyncWAL)
	WALSyncsSaved atomic.Int64 // syncs avoided by group coalescing (group size - 1 each)
	// A leader lingers before claiming while writers that shared the
	// last sync are still on their way back (core/commit.go).
	CommitLingerNs       atomic.Int64 // time leaders spent lingering
	CommitLingerTimeouts atomic.Int64 // lingers that ended by timeout (the peer estimate was wrong)

	// Read path.
	Gets            atomic.Int64 // user point lookups
	GetHits         atomic.Int64 // lookups that found a live value
	Scans           atomic.Int64 // user range scans
	ScanEntries     atomic.Int64 // entries returned by Scan (mean scan length = ScanEntries/Scans)
	RunsProbed      atomic.Int64 // sorted runs consulted by point lookups
	FilterProbes    atomic.Int64 // bloom filter probes
	FilterNegatives atomic.Int64 // probes that skipped a run
	// FilterFalsePos counts run probes that found nothing, filter
	// negatives included — not only filter passes that proved false.
	// Readers wanting true false positives subtract FilterNegatives, as
	// benchmark/ does; narrowing the counter must change both together.
	FilterFalsePos atomic.Int64

	// Structure maintenance.
	Flushes                atomic.Int64 // memtable flushes
	FlushBytes             atomic.Int64 // bytes written by flushes
	Compactions            atomic.Int64 // compaction jobs completed
	AgeCompactions         atomic.Int64 // jobs triggered by tombstone age (FADE)
	CompactionBytesRead    atomic.Int64 // bytes read by compactions
	CompactionBytesWritten atomic.Int64 // bytes written by compactions
	TombstonesDropped      atomic.Int64 // tombstones purged by compaction
	EntriesDropped         atomic.Int64 // invalidated entries purged

	// Stalls.
	StallNs     atomic.Int64 // total time writers spent stalled
	WriteStalls atomic.Int64 // number of stall events
	StallAborts atomic.Int64 // stalls aborted by Options.StallTimeout (backpressure)
	ThrottleNs  atomic.Int64 // time compactions paused in the bandwidth throttle

	// Block cache and table I/O. BlockReads counts data-block fetches by
	// the sstable readers; BlockReadsCached is the subset served from the
	// block cache without touching the filesystem.
	CacheHits        atomic.Int64
	CacheMisses      atomic.Int64
	BlockReads       atomic.Int64
	BlockReadsCached atomic.Int64

	// Robustness. Degraded is a 0/1 gauge set when the engine enters
	// read-only degraded mode; BgRetries counts background flush or
	// compaction attempts that failed (and were retried or escalated).
	// The scrub counters accumulate across DB.Scrub passes.
	Degraded         atomic.Int64 // 1 once the engine is read-only degraded
	BgRetries        atomic.Int64 // failed background job attempts
	ScrubbedTables   atomic.Int64 // sstables checked by scrubs
	ScrubCorruptions atomic.Int64 // corrupt files found by scrubs

	// Network serving layer (maintained by internal/server; a server
	// owns its own Metrics instance, separate from the engine's, so
	// these stay zero on an embedded DB). ConnsOpened - ConnsClosed is
	// the live connection count.
	ConnsOpened      atomic.Int64 // connections accepted
	ConnsClosed      atomic.Int64 // connections fully torn down
	ConnsRejected    atomic.Int64 // connections refused at the MaxConns limit
	NetRequests      atomic.Int64 // request frames received
	NetRequestErrors atomic.Int64 // requests answered with an error status
	NetThrottled     atomic.Int64 // requests answered with StatusThrottled (all tenants)
	NetBytesRead     atomic.Int64 // request frame bytes received
	NetBytesWritten  atomic.Int64 // response frame bytes sent

	// Replication. Leader-side counters are maintained by the serving
	// layer as it handles the replication verbs; follower-side counters
	// are merged into the engine snapshot by the replica engine wrapper.
	// On a server that is neither, all stay zero.
	ReplSubscribes     atomic.Int64 // follower stream subscriptions accepted (leader)
	ReplFramesShipped  atomic.Int64 // WAL group frames streamed to followers (leader)
	ReplGapsSignaled   atomic.Int64 // gap frames sent (leader) or stream gaps observed (follower)
	ReplAcks           atomic.Int64 // follower watermark acks recorded (leader)
	ReplRepairPages    atomic.Int64 // Merkle repair pages served (leader)
	ReplBatchesApplied atomic.Int64 // shipped WAL batches applied (follower)
	ReplRepairOps      atomic.Int64 // ops ingested via anti-entropy (follower)

	// Latency distributions (log-bucketed; see histogram.go). Counters
	// answer "how much", these answer "how long" — the tail behavior
	// that separates compaction designs (§2.2.3/§2.2.5).
	GetNs        Histogram
	PutNs        Histogram
	ScanNextNs   Histogram
	FlushNs      Histogram
	CompactionNs Histogram

	// CommitGroupSize records batches-per-group (a count, not a
	// duration; the log-linear buckets work for any int64). Its tail
	// shows how far write concurrency actually coalesces.
	CommitGroupSize Histogram

	// RequestNs records end-to-end network request latency (frame
	// decoded → response queued), maintained by internal/server.
	RequestNs Histogram
}

// Snapshot is an immutable copy of the counters at one instant. Every
// field has exactly one row in Counters, which is how Snapshot, Sub and
// Add reach it.
type Snapshot struct {
	Puts, Deletes, BytesIngested, WALBytes        int64
	CommitGroups, CommitBatches                   int64
	WALSyncs, WALSyncsSaved                       int64
	CommitLingerNs, CommitLingerTimeouts          int64
	Gets, GetHits, Scans, ScanEntries, RunsProbed int64
	FilterProbes, FilterNegatives, FilterFalsePos int64
	Flushes, FlushBytes, Compactions              int64
	AgeCompactions                                int64
	CompactionBytesRead, CompactionBytesWritten   int64
	TombstonesDropped, EntriesDropped             int64
	StallNs, WriteStalls, StallAborts, ThrottleNs int64
	CacheHits, CacheMisses                        int64
	BlockReads, BlockReadsCached                  int64
	Degraded, BgRetries                           int64
	ScrubbedTables, ScrubCorruptions              int64
	ConnsOpened, ConnsClosed, ConnsRejected       int64
	NetRequests, NetRequestErrors, NetThrottled   int64
	NetBytesRead, NetBytesWritten                 int64
	ReplSubscribes, ReplFramesShipped             int64
	ReplGapsSignaled, ReplAcks, ReplRepairPages   int64
	ReplBatchesApplied, ReplRepairOps             int64
}

// FilterProbe counts one Bloom-filter probe. With BlockRead it makes
// *Metrics the sstable.ReadStats every table reports to by default.
func (m *Metrics) FilterProbe(negative bool) {
	m.FilterProbes.Add(1)
	if negative {
		m.FilterNegatives.Add(1)
	}
}

// BlockRead counts one data-block fetch; the engine-wide counters keep
// no byte total (the profiler's per-level one does).
func (m *Metrics) BlockRead(cached bool, _ int) {
	m.BlockReads.Add(1)
	if cached {
		m.BlockReadsCached.Add(1)
	}
}

// CacheAccess counts one block-cache lookup: *Metrics is the engine's
// cache.Stats.
func (m *Metrics) CacheAccess(hit bool) {
	if hit {
		m.CacheHits.Add(1)
	} else {
		m.CacheMisses.Add(1)
	}
}

// Snapshot returns a copy of the current counter values.
func (m *Metrics) Snapshot() Snapshot {
	var s Snapshot
	for _, d := range Counters {
		*d.snap(&s) = d.live(m).Load()
	}
	return s
}

// Sub returns s - o over an interval: counters subtract, flags keep
// s's (the current) state.
func (s Snapshot) Sub(o Snapshot) Snapshot {
	for _, d := range Counters {
		if d.Kind == Counter {
			*d.snap(&s) -= *d.snap(&o)
		}
	}
	return s
}

// Add merges the snapshots of two parts of one system — two shards of
// a store, an engine and its server: counters sum, a flag is set if
// either part sets it.
func (s Snapshot) Add(o Snapshot) Snapshot {
	for _, d := range Counters {
		p, v := d.snap(&s), *d.snap(&o)
		switch {
		case d.Kind == Counter:
			*p += v
		case v > *p: // Flag: set if either side sets it
			*p = v
		}
	}
	return s
}

// ratio is num/den, and 0 — not NaN — while the denominator is still
// zero (an idle interval, or a numerator bumped before its denominator
// mid-snapshot).
func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// AvgCommitGroupSize is the mean number of batches coalesced per commit
// group — 1.0 means writes never overlapped, higher means the group
// commit is amortizing WAL writes (and syncs, under SyncWAL).
func (s Snapshot) AvgCommitGroupSize() float64 { return ratio(s.CommitBatches, s.CommitGroups) }

// WriteAmplification is the ratio of bytes written to storage (flushes
// plus compactions, excluding the WAL) to user bytes ingested.
func (s Snapshot) WriteAmplification() float64 {
	return ratio(s.FlushBytes+s.CompactionBytesWritten, s.BytesIngested)
}

// ReadAmplification is the average number of sorted runs probed per
// point lookup.
func (s Snapshot) ReadAmplification() float64 { return ratio(s.RunsProbed, s.Gets) }

// FilterEffectiveness is the fraction of filter probes that skipped a
// run.
func (s Snapshot) FilterEffectiveness() float64 { return ratio(s.FilterNegatives, s.FilterProbes) }

// CacheHitRate is the fraction of block-cache lookups that hit.
func (s Snapshot) CacheHitRate() float64 { return ratio(s.CacheHits, s.CacheHits+s.CacheMisses) }

// String renders the headline numbers for logs and the lsmctl stats
// command.
func (s Snapshot) String() string {
	return fmt.Sprintf(
		"puts=%d gets=%d scans=%d flushes=%d compactions=%d WA=%.2f RA=%.2f filter_eff=%.2f stalls=%d stall_ms=%d",
		s.Puts, s.Gets, s.Scans, s.Flushes, s.Compactions,
		s.WriteAmplification(), s.ReadAmplification(), s.FilterEffectiveness(),
		s.WriteStalls, s.StallNs/1e6)
}
