package metrics

import "sync/atomic"

// Kind fixes how a value combines: across the parts of one system (the
// shards of a store, an engine and its server) and over an interval.
type Kind uint8

const (
	// Counter is monotonic: parts sum, an interval is later - earlier.
	Counter Kind = iota
	// Flag is a 0/1 state, exposed as a gauge: the whole is set if any
	// part is, and an interval keeps the state it ends in.
	Flag
)

// Desc describes one int64 of Metrics/Snapshot.
type Desc struct {
	// Name is the /metrics family (the renderer adds the lsmlab_
	// prefix). Rows with an empty Name are kept off /metrics; they still
	// snapshot, subtract and merge.
	Name string
	Help string
	Kind Kind
	live func(*Metrics) *atomic.Int64
	snap func(*Snapshot) *int64
}

// Value reads the row's field out of a snapshot.
func (d Desc) Value(s *Snapshot) int64 { return *d.snap(s) }

// Counters is the one place a counter or gauge is named. Snapshot, Sub
// and Add walk it, /metrics renders it in this order, and the package
// test fails when a Snapshot field has no row here or two.
var Counters = []Desc{
	// Write path and group commit.
	{"puts_total", "User put operations.", Counter, func(m *Metrics) *atomic.Int64 { return &m.Puts }, func(s *Snapshot) *int64 { return &s.Puts }},
	{"deletes_total", "User delete operations.", Counter, func(m *Metrics) *atomic.Int64 { return &m.Deletes }, func(s *Snapshot) *int64 { return &s.Deletes }},
	{"bytes_ingested_total", "User key+value bytes accepted.", Counter, func(m *Metrics) *atomic.Int64 { return &m.BytesIngested }, func(s *Snapshot) *int64 { return &s.BytesIngested }},
	{"wal_bytes_total", "Bytes appended to the write-ahead log.", Counter, func(m *Metrics) *atomic.Int64 { return &m.WALBytes }, func(s *Snapshot) *int64 { return &s.WALBytes }},
	{"commit_groups_total", "Commit groups written (one WAL write each).", Counter, func(m *Metrics) *atomic.Int64 { return &m.CommitGroups }, func(s *Snapshot) *int64 { return &s.CommitGroups }},
	{"commit_batches_total", "Batches committed across all groups.", Counter, func(m *Metrics) *atomic.Int64 { return &m.CommitBatches }, func(s *Snapshot) *int64 { return &s.CommitBatches }},
	{"wal_syncs_total", "WAL syncs issued.", Counter, func(m *Metrics) *atomic.Int64 { return &m.WALSyncs }, func(s *Snapshot) *int64 { return &s.WALSyncs }},
	{"wal_syncs_saved_total", "Syncs avoided by group coalescing.", Counter, func(m *Metrics) *atomic.Int64 { return &m.WALSyncsSaved }, func(s *Snapshot) *int64 { return &s.WALSyncsSaved }},
	{"commit_linger_ns_total", "Time commit leaders waited for expected peers before claiming.", Counter, func(m *Metrics) *atomic.Int64 { return &m.CommitLingerNs }, func(s *Snapshot) *int64 { return &s.CommitLingerNs }},
	{"commit_linger_timeouts_total", "Leader lingers that timed out (the peer estimate was wrong).", Counter, func(m *Metrics) *atomic.Int64 { return &m.CommitLingerTimeouts }, func(s *Snapshot) *int64 { return &s.CommitLingerTimeouts }},

	// Read path.
	{"gets_total", "User point lookups.", Counter, func(m *Metrics) *atomic.Int64 { return &m.Gets }, func(s *Snapshot) *int64 { return &s.Gets }},
	{"get_hits_total", "Lookups that found a live value.", Counter, func(m *Metrics) *atomic.Int64 { return &m.GetHits }, func(s *Snapshot) *int64 { return &s.GetHits }},
	{"scans_total", "User range scans.", Counter, func(m *Metrics) *atomic.Int64 { return &m.Scans }, func(s *Snapshot) *int64 { return &s.Scans }},
	{"", "Entries returned by range scans.", Counter, func(m *Metrics) *atomic.Int64 { return &m.ScanEntries }, func(s *Snapshot) *int64 { return &s.ScanEntries }},
	{"runs_probed_total", "Sorted runs consulted by point lookups.", Counter, func(m *Metrics) *atomic.Int64 { return &m.RunsProbed }, func(s *Snapshot) *int64 { return &s.RunsProbed }},
	{"filter_probes_total", "Bloom filter probes.", Counter, func(m *Metrics) *atomic.Int64 { return &m.FilterProbes }, func(s *Snapshot) *int64 { return &s.FilterProbes }},
	{"filter_negatives_total", "Filter probes that skipped a run.", Counter, func(m *Metrics) *atomic.Int64 { return &m.FilterNegatives }, func(s *Snapshot) *int64 { return &s.FilterNegatives }},
	{"filter_false_positives_total", "Run probes that found nothing (filter negatives included).", Counter, func(m *Metrics) *atomic.Int64 { return &m.FilterFalsePos }, func(s *Snapshot) *int64 { return &s.FilterFalsePos }},
	{"block_reads_total", "Data-block fetches by sstable readers.", Counter, func(m *Metrics) *atomic.Int64 { return &m.BlockReads }, func(s *Snapshot) *int64 { return &s.BlockReads }},
	{"block_reads_cached_total", "Block fetches served from the cache.", Counter, func(m *Metrics) *atomic.Int64 { return &m.BlockReadsCached }, func(s *Snapshot) *int64 { return &s.BlockReadsCached }},
	{"cache_hits_total", "Block cache hits.", Counter, func(m *Metrics) *atomic.Int64 { return &m.CacheHits }, func(s *Snapshot) *int64 { return &s.CacheHits }},
	{"cache_misses_total", "Block cache misses.", Counter, func(m *Metrics) *atomic.Int64 { return &m.CacheMisses }, func(s *Snapshot) *int64 { return &s.CacheMisses }},

	// Structure maintenance and stalls.
	{"flushes_total", "Memtable flushes.", Counter, func(m *Metrics) *atomic.Int64 { return &m.Flushes }, func(s *Snapshot) *int64 { return &s.Flushes }},
	{"flush_bytes_total", "Bytes written by flushes.", Counter, func(m *Metrics) *atomic.Int64 { return &m.FlushBytes }, func(s *Snapshot) *int64 { return &s.FlushBytes }},
	{"compactions_total", "Compaction jobs completed.", Counter, func(m *Metrics) *atomic.Int64 { return &m.Compactions }, func(s *Snapshot) *int64 { return &s.Compactions }},
	{"", "Compaction jobs triggered by tombstone age (FADE).", Counter, func(m *Metrics) *atomic.Int64 { return &m.AgeCompactions }, func(s *Snapshot) *int64 { return &s.AgeCompactions }},
	{"compaction_bytes_read_total", "Bytes read by compactions.", Counter, func(m *Metrics) *atomic.Int64 { return &m.CompactionBytesRead }, func(s *Snapshot) *int64 { return &s.CompactionBytesRead }},
	{"compaction_bytes_written_total", "Bytes written by compactions.", Counter, func(m *Metrics) *atomic.Int64 { return &m.CompactionBytesWritten }, func(s *Snapshot) *int64 { return &s.CompactionBytesWritten }},
	{"tombstones_dropped_total", "Tombstones purged by compaction.", Counter, func(m *Metrics) *atomic.Int64 { return &m.TombstonesDropped }, func(s *Snapshot) *int64 { return &s.TombstonesDropped }},
	{"", "Invalidated entries purged by compaction.", Counter, func(m *Metrics) *atomic.Int64 { return &m.EntriesDropped }, func(s *Snapshot) *int64 { return &s.EntriesDropped }},
	{"write_stalls_total", "Write stall events.", Counter, func(m *Metrics) *atomic.Int64 { return &m.WriteStalls }, func(s *Snapshot) *int64 { return &s.WriteStalls }},
	{"stall_ns_total", "Total time writers spent stalled, ns.", Counter, func(m *Metrics) *atomic.Int64 { return &m.StallNs }, func(s *Snapshot) *int64 { return &s.StallNs }},
	{"stall_aborts_total", "Writes aborted by the stall timeout (backpressure).", Counter, func(m *Metrics) *atomic.Int64 { return &m.StallAborts }, func(s *Snapshot) *int64 { return &s.StallAborts }},
	{"", "Time compactions paused in the bandwidth throttle, ns.", Counter, func(m *Metrics) *atomic.Int64 { return &m.ThrottleNs }, func(s *Snapshot) *int64 { return &s.ThrottleNs }},

	// Robustness.
	{"bg_retries_total", "Failed background job attempts.", Counter, func(m *Metrics) *atomic.Int64 { return &m.BgRetries }, func(s *Snapshot) *int64 { return &s.BgRetries }},
	{"scrubbed_tables_total", "Sstables checked by scrubs.", Counter, func(m *Metrics) *atomic.Int64 { return &m.ScrubbedTables }, func(s *Snapshot) *int64 { return &s.ScrubbedTables }},
	{"scrub_corruptions_total", "Corrupt files found by scrubs.", Counter, func(m *Metrics) *atomic.Int64 { return &m.ScrubCorruptions }, func(s *Snapshot) *int64 { return &s.ScrubCorruptions }},
	{"degraded", "1 once the engine is read-only degraded.", Flag, func(m *Metrics) *atomic.Int64 { return &m.Degraded }, func(s *Snapshot) *int64 { return &s.Degraded }},

	// Serving layer.
	{"conns_opened_total", "Connections accepted.", Counter, func(m *Metrics) *atomic.Int64 { return &m.ConnsOpened }, func(s *Snapshot) *int64 { return &s.ConnsOpened }},
	{"conns_closed_total", "Connections fully torn down.", Counter, func(m *Metrics) *atomic.Int64 { return &m.ConnsClosed }, func(s *Snapshot) *int64 { return &s.ConnsClosed }},
	{"conns_rejected_total", "Connections refused at the limit.", Counter, func(m *Metrics) *atomic.Int64 { return &m.ConnsRejected }, func(s *Snapshot) *int64 { return &s.ConnsRejected }},
	{"net_requests_total", "Request frames received.", Counter, func(m *Metrics) *atomic.Int64 { return &m.NetRequests }, func(s *Snapshot) *int64 { return &s.NetRequests }},
	{"net_request_errors_total", "Requests answered with an error status.", Counter, func(m *Metrics) *atomic.Int64 { return &m.NetRequestErrors }, func(s *Snapshot) *int64 { return &s.NetRequestErrors }},
	{"net_throttled_total", "Requests answered with StatusThrottled (quota or backpressure).", Counter, func(m *Metrics) *atomic.Int64 { return &m.NetThrottled }, func(s *Snapshot) *int64 { return &s.NetThrottled }},
	{"net_bytes_read_total", "Request frame bytes received.", Counter, func(m *Metrics) *atomic.Int64 { return &m.NetBytesRead }, func(s *Snapshot) *int64 { return &s.NetBytesRead }},
	{"net_bytes_written_total", "Response frame bytes sent.", Counter, func(m *Metrics) *atomic.Int64 { return &m.NetBytesWritten }, func(s *Snapshot) *int64 { return &s.NetBytesWritten }},

	// Replication: the leader's rows are counted by its server, the
	// follower's by its receiver; summing the two sides is what makes
	// repl_gaps_total "sent or observed".
	{"repl_subscribes_total", "Follower stream subscriptions accepted.", Counter, func(m *Metrics) *atomic.Int64 { return &m.ReplSubscribes }, func(s *Snapshot) *int64 { return &s.ReplSubscribes }},
	{"repl_frames_shipped_total", "WAL group frames streamed to followers.", Counter, func(m *Metrics) *atomic.Int64 { return &m.ReplFramesShipped }, func(s *Snapshot) *int64 { return &s.ReplFramesShipped }},
	{"repl_gaps_total", "Gap frames sent (leader) or stream gaps observed (follower).", Counter, func(m *Metrics) *atomic.Int64 { return &m.ReplGapsSignaled }, func(s *Snapshot) *int64 { return &s.ReplGapsSignaled }},
	{"repl_acks_total", "Follower watermark acks recorded.", Counter, func(m *Metrics) *atomic.Int64 { return &m.ReplAcks }, func(s *Snapshot) *int64 { return &s.ReplAcks }},
	{"repl_repair_pages_total", "Merkle repair pages served.", Counter, func(m *Metrics) *atomic.Int64 { return &m.ReplRepairPages }, func(s *Snapshot) *int64 { return &s.ReplRepairPages }},
	{"repl_batches_applied_total", "Shipped WAL batches applied by this follower.", Counter, func(m *Metrics) *atomic.Int64 { return &m.ReplBatchesApplied }, func(s *Snapshot) *int64 { return &s.ReplBatchesApplied }},
	{"repl_repair_ops_total", "Ops ingested via anti-entropy repair.", Counter, func(m *Metrics) *atomic.Int64 { return &m.ReplRepairOps }, func(s *Snapshot) *int64 { return &s.ReplRepairOps }},
}

// Derived lists the gauges computed from a snapshot rather than
// counted: the paper's headline ratios plus the live connection count.
// Computed after merging, they need no merge rule of their own.
var Derived = []struct {
	Name, Help string
	Value      func(Snapshot) float64
}{
	{"conns_open", "Connections currently being served.", func(s Snapshot) float64 { return float64(s.ConnsOpened - s.ConnsClosed) }},
	{"write_amplification", "Storage bytes written per user byte ingested.", Snapshot.WriteAmplification},
	{"read_amplification", "Average sorted runs probed per point lookup.", Snapshot.ReadAmplification},
	{"filter_effectiveness", "Fraction of filter probes that skipped a run.", Snapshot.FilterEffectiveness},
	{"cache_hit_rate", "Fraction of block-cache lookups that hit.", Snapshot.CacheHitRate},
	{"avg_commit_group_size", "Mean batches coalesced per commit group.", Snapshot.AvgCommitGroupSize},
}

// HistDesc describes one histogram of Metrics/LatencySnapshot.
type HistDesc struct {
	Name string // /metrics summary family; empty keeps it off /metrics
	Help string
	live func(*Metrics) *Histogram
	snap func(*LatencySnapshot) *HistogramSnapshot
}

// Value reads the row's histogram out of a set.
func (d HistDesc) Value(s *LatencySnapshot) HistogramSnapshot { return *d.snap(s) }

// Histograms names every histogram once, as Counters does the counters.
var Histograms = []HistDesc{
	{"get_latency_ns", "DB.Get end-to-end latency, ns.", func(m *Metrics) *Histogram { return &m.GetNs }, func(s *LatencySnapshot) *HistogramSnapshot { return &s.Get }},
	{"put_latency_ns", "DB.Apply latency, ns.", func(m *Metrics) *Histogram { return &m.PutNs }, func(s *LatencySnapshot) *HistogramSnapshot { return &s.Put }},
	{"scan_next_latency_ns", "Iterator.Next latency, ns.", func(m *Metrics) *Histogram { return &m.ScanNextNs }, func(s *LatencySnapshot) *HistogramSnapshot { return &s.ScanNext }},
	{"flush_latency_ns", "Memtable flush duration, ns.", func(m *Metrics) *Histogram { return &m.FlushNs }, func(s *LatencySnapshot) *HistogramSnapshot { return &s.Flush }},
	{"compaction_latency_ns", "Compaction job duration, ns.", func(m *Metrics) *Histogram { return &m.CompactionNs }, func(s *LatencySnapshot) *HistogramSnapshot { return &s.Compaction }},
	{"request_latency_ns", "Network request latency, ns.", func(m *Metrics) *Histogram { return &m.RequestNs }, func(s *LatencySnapshot) *HistogramSnapshot { return &s.Request }},
	{"", "Batches per commit group (a count, not a duration).", func(m *Metrics) *Histogram { return &m.CommitGroupSize }, func(s *LatencySnapshot) *HistogramSnapshot { return &s.GroupSize }},
}
