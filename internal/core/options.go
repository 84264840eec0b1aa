// Package core implements the LSM storage engine: the write path
// (WAL → memtable → flush), the read path (memtables → runs, guided by
// fence pointers and Bloom filters), background compactions spanning
// the full compaction design space, snapshots, iterators, delete
// persistence, and optional WiscKey-style key–value separation.
//
// Every design decision named by the tutorial is an option on this one
// engine, so experiments compare layouts and policies on identical code
// paths.
package core

import (
	"time"

	"lsmlab/internal/compaction"
	"lsmlab/internal/events"
	"lsmlab/internal/memtable"
	"lsmlab/internal/trace"
	"lsmlab/internal/vfs"
)

// FilterMode selects how filter memory is assigned to runs.
type FilterMode int

const (
	// FilterUniform gives every run the same bits per key
	// (BitsPerKey) — the untuned baseline.
	FilterUniform FilterMode = iota
	// FilterMonkey divides a total budget (FilterBudgetBits) optimally
	// across levels: shallow runs get more bits per key, the largest
	// level may get none (Monkey, tutorial §2.1.3).
	FilterMonkey
	// FilterNone disables Bloom filters.
	FilterNone
)

// Options configures a DB. The zero value is not usable; call
// DefaultOptions and override.
type Options struct {
	// FS is the filesystem; tests and experiments use vfs.MemFS (often
	// wrapped in a CountingFS), tools use vfs.OSFS.
	FS vfs.FS
	// Path is the database directory.
	Path string

	// NumLevels is the number of on-disk levels.
	NumLevels int
	// SizeRatio is T, the growth factor between level capacities.
	SizeRatio int
	// BaseLevelBytes is L1's capacity; 0 derives BufferBytes*SizeRatio.
	BaseLevelBytes uint64

	// MemtableKind selects the buffer implementation (§2.2.1).
	MemtableKind memtable.Kind
	// BufferBytes is the memtable size that triggers a flush.
	BufferBytes int
	// MaxImmutableBuffers is how many full buffers may queue before
	// writers stall (§2.2.1: more buffers absorb ingestion bursts).
	MaxImmutableBuffers int

	// Layout, Granularity, MovePolicy are compaction primitives (ii),
	// (iii), (iv) (§2.2.4).
	Layout      compaction.Layout
	Granularity compaction.Granularity
	MovePolicy  compaction.MovePolicy
	// TargetFileSize bounds output files of flushes and compactions.
	TargetFileSize uint64

	// FilterMode, BitsPerKey, FilterBudgetBits configure Bloom filters.
	FilterMode       FilterMode
	BitsPerKey       float64
	FilterBudgetBits int64

	// BlockSize is the SSTable data block size.
	BlockSize int
	// CacheBytes is the shared block cache capacity; 0 disables it.
	CacheBytes int
	// PrefetchAfterCompaction enables the Leaper-style re-warming of the
	// block cache with output blocks of a compaction whose inputs were
	// hot (§2.1.3, [128]).
	PrefetchAfterCompaction bool

	// DisableWAL trades durability for ingest speed (bulk loading).
	DisableWAL bool
	// SyncWAL makes every write batch durable before returning.
	SyncWAL bool

	// Workers is the number of background threads executing flushes and
	// compactions (§2.2.5).
	Workers int
	// StallL0Runs stalls writers when level 0 accumulates this many
	// runs (0 disables; RocksDB's level0_stop_writes_trigger).
	StallL0Runs int
	// StallTimeout bounds how long one write may block inside a write
	// stall (makeRoomLocked) before aborting with a typed error
	// matching ErrBackpressure. 0 (the default) keeps the classic
	// behavior — block until a flush or compaction makes room. Serving
	// layers set it to convert unbounded stall latency into explicit
	// backpressure they can shed per tenant. Aborted writes fail before
	// sequence assignment and WAL append, so a backpressured batch is
	// never partially durable.
	StallTimeout time.Duration
	// CompactionBandwidthBytesPerSec throttles each compaction's writes
	// like SILK's I/O scheduler so flushes keep headroom (0 = unlimited;
	// §2.2.3, [16]). The limit is per concurrent compaction — modeling a
	// device whose aggregate bandwidth scales with queue depth, as SSD/
	// NVM parallelism does (§2.2.5). The throttle performs real sleeps
	// unless SleepFunc is injected.
	CompactionBandwidthBytesPerSec int64
	// SleepFunc, if set, replaces real sleeping for the bandwidth
	// throttle (experiments inject a virtual clock).
	SleepFunc func(d time.Duration)

	// TombstoneAgeThreshold enables Lethe/FADE timely deletion: any
	// file holding a tombstone older than this is compacted promptly,
	// bounding delete persistence latency (§2.3.3).
	TombstoneAgeThreshold time.Duration

	// ValueSeparationThreshold stores values at least this large in the
	// WiscKey value log, leaving only pointers in the tree (0 disables;
	// §2.2.2, [78]).
	ValueSeparationThreshold int

	// MergeOperator enables DB.Merge, the read-modify-write operation of
	// tutorial §2.2.6 (RocksDB's merge operator): operands are folded
	// into the base value lazily, at read or compaction time, so RMW
	// costs one blind write instead of a read-modify-write round trip.
	MergeOperator MergeOperator

	// EventListener, when non-nil, receives the engine's lifecycle
	// events (flushes, compactions, stalls, WAL rotations, vlog GC,
	// checkpoints). Listeners run synchronously on engine goroutines,
	// sometimes under internal locks: they must be fast, non-blocking,
	// and must not call back into the DB. Use events.NewRing for a
	// bounded in-memory log or events.Tee to fan out. Nil (the default)
	// keeps the hot paths free of any listener cost.
	EventListener events.Listener

	// Tracer, when non-nil, enables per-operation request tracing:
	// every Get/Apply/Scan and background flush/compaction is annotated
	// into a trace.Span (runs probed, filter outcomes, blocks read vs
	// cache-hit, stall and commit waits, value-log hops), and the
	// tracer's sampling/slow-op policy decides which spans its bounded
	// ring retains. Nil (the default) keeps the hot paths at a single
	// pointer compare with zero allocations.
	Tracer *trace.Tracer

	// RecordLatencies turns on the per-operation latency histograms
	// (DB.Latencies) even without an EventListener. Attaching a listener
	// implies it; with neither, Get/Put/Scan skip their clock reads
	// entirely so observability costs the hot paths nothing.
	RecordLatencies bool

	// DisableProfiler turns off the always-on workload profiler (the
	// sketch-based live workload characterization and per-level I/O
	// attribution behind DB.WorkloadProfile, /workload, and the
	// lsmlab_workload_*//lsmlab_level_* metric families). The profiler
	// samples one operation in eight into pre-allocated sketches, so its
	// steady-state cost is a striped atomic increment per op and zero
	// allocations; it stays on by default.
	DisableProfiler bool

	// ProfileWindowOps is the decay half-life of the workload profile,
	// in observed operations: after this many gets+puts+deletes+scans
	// the sketch generations rotate, and estimates cover the last one to
	// two half-lives. Default 1<<20. Experiments and tests shrink it to
	// track shifts quickly.
	ProfileWindowOps int

	// NowNs supplies time (injected for deterministic tests).
	NowNs func() int64

	// Replica opens the store as a read-only replication follower:
	// external writes (Put/Delete/Apply/Merge) fail with ErrReplica,
	// while the replica.Receiver applies shipped WAL batches through
	// ReplicaApply. Reads, scans, snapshots, health, stats, scrub, and
	// checkpoints all serve normally.
	Replica bool

	// MaxBackgroundRetries bounds how many consecutive failures of one
	// background job (a flush of one buffer, or compactions generally)
	// are retried — with capped exponential backoff — before the engine
	// degrades to read-only mode. Corruption errors skip retries and
	// degrade immediately. Default 5; negative degrades on the first
	// failure.
	MaxBackgroundRetries int
}

// DefaultOptions returns a production-shaped configuration: RocksDB-like
// hybrid layout (tiered L0, leveled deeper levels), 10x size ratio,
// skiplist buffer, uniform 10 bits/key filters, 8 MiB block cache.
func DefaultOptions(fs vfs.FS, path string) Options {
	return Options{
		FS:                   fs,
		Path:                 path,
		NumLevels:            5,
		SizeRatio:            10,
		MemtableKind:         memtable.KindSkipList,
		BufferBytes:          1 << 20,
		MaxImmutableBuffers:  2,
		Layout:               compaction.TieredFirst{K0: 4},
		Granularity:          compaction.GranularityPartial,
		MovePolicy:           compaction.PickMinOverlap,
		TargetFileSize:       2 << 20,
		FilterMode:           FilterUniform,
		BitsPerKey:           10,
		BlockSize:            4096,
		CacheBytes:           8 << 20,
		Workers:              1,
		StallL0Runs:          12,
		MaxBackgroundRetries: 5,
	}
}

// withDefaults fills unset fields.
func (o Options) withDefaults() Options {
	d := DefaultOptions(o.FS, o.Path)
	if o.NumLevels <= 0 {
		o.NumLevels = d.NumLevels
	}
	if o.SizeRatio < 2 {
		o.SizeRatio = d.SizeRatio
	}
	if o.MemtableKind == "" {
		o.MemtableKind = d.MemtableKind
	}
	if o.BufferBytes <= 0 {
		o.BufferBytes = d.BufferBytes
	}
	if o.MaxImmutableBuffers <= 0 {
		o.MaxImmutableBuffers = d.MaxImmutableBuffers
	}
	if o.Layout == nil {
		o.Layout = d.Layout
	}
	if o.TargetFileSize == 0 {
		o.TargetFileSize = d.TargetFileSize
	}
	if o.BitsPerKey == 0 && o.FilterMode == FilterUniform {
		o.BitsPerKey = d.BitsPerKey
	}
	if o.BlockSize <= 0 {
		o.BlockSize = d.BlockSize
	}
	if o.Workers <= 0 {
		o.Workers = d.Workers
	}
	if o.BaseLevelBytes == 0 {
		o.BaseLevelBytes = uint64(o.BufferBytes) * uint64(o.SizeRatio)
	}
	if o.MaxBackgroundRetries == 0 {
		o.MaxBackgroundRetries = d.MaxBackgroundRetries
	}
	if o.ProfileWindowOps <= 0 {
		o.ProfileWindowOps = 1 << 20
	}
	if o.NowNs == nil {
		o.NowNs = func() int64 { return time.Now().UnixNano() }
	}
	return o
}
