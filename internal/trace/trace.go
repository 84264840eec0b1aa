// Package trace provides cheap per-operation request tracing for the
// engine and the serving layer. A Span carries a 64-bit trace id, the
// operation name, coarse stage timings, and access-path annotations
// (runs probed, filter probes and outcomes, blocks read vs cache-hit,
// stall and commit-wait time, value-log hops) — the per-request
// counterpart of the engine-wide counters in internal/metrics, in the
// spirit of RocksDB's PerfContext.
//
// Cost model: a nil *Tracer is fully inert — Start returns a nil
// *Span, and every Span method is a nil-check away from free — so a DB
// without tracing pays a single pointer compare per operation and
// allocates nothing. With a Tracer attached, spans are pooled and the
// bounded ring stores them by value, so the steady state allocates
// nothing either; the cost is the clock reads and counter bumps.
//
// Retention: a finished span is kept in the ring if it was sampled
// (every Options.SampleEvery-th operation), exceeded the slow-op
// threshold (Options.SlowNs), or was explicitly retained (wire-traced
// requests, background jobs). Sampling is decided at Start (head
// sampling): when no slow threshold is armed, an unsampled operation
// never could be retained, so it gets a nil span and pays nothing at
// all. Arming SlowNs switches to annotating every operation — the only
// way to catch the worst requests — at the cost of a span per op.
package trace

import (
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Operation names used by the engine and server. Spans are not limited
// to these; any short stable string works.
const (
	OpGet        = "get"
	OpPut        = "put"
	OpBatch      = "batch"
	OpScan       = "scan"
	OpFlush      = "flush"
	OpCompaction = "compaction"
)

// MaxStages bounds the per-span stage array. Spans are fixed-size so
// the capture ring holds them by value with no per-span allocation;
// stages past the bound are dropped (and counted in TruncatedStages).
const MaxStages = 8

// Stage is one named phase of an operation with its duration.
type Stage struct {
	Name  string `json:"name"`
	DurNs int64  `json:"dur_ns"`
}

// Span is the record of one operation. All methods are safe on a nil
// receiver (no-ops), so instrumentation sites never branch on whether
// tracing is enabled.
type Span struct {
	TraceID uint64 // request identity, propagated across the wire
	Op      string
	StartNs int64
	DurNs   int64

	// Retention verdicts, set by Tracer.Finish.
	Sampled bool
	Slow    bool

	// Read-path annotations.
	Runs             int32 // sorted runs probed
	FilterProbes     int32
	FilterNegatives  int32
	FilterFalsePos   int32
	BlockReads       int32 // data blocks fetched (including cache hits)
	BlockReadsCached int32 // subset served from the block cache
	VlogReads        int32 // WiscKey value-log hops

	// Write-path annotations.
	Batches      int32 // commit-group size observed by this op's group
	StallNs      int64 // time blocked in write stalls
	CommitWaitNs int64 // time waiting for WAL write + publish

	Entries int32 // entries returned (scans) or applied (batches)
	Bytes   int64 // payload bytes touched
	// Tenant is the key-prefix namespace the operation touched (the
	// admission-control identity; empty for the default tenant and for
	// background jobs).
	Tenant string
	Err    string

	TruncatedStages int32 // stages dropped past MaxStages

	keep    bool
	nstages int32
	stages  [MaxStages]Stage
}

// Stage records one named phase duration.
func (sp *Span) Stage(name string, durNs int64) {
	if sp == nil {
		return
	}
	if int(sp.nstages) >= MaxStages {
		sp.TruncatedStages++
		return
	}
	sp.stages[sp.nstages] = Stage{Name: name, DurNs: durNs}
	sp.nstages++
}

// StageSince records a phase spanning [startNs, nowNs].
func (sp *Span) StageSince(name string, startNs, nowNs int64) {
	sp.Stage(name, nowNs-startNs)
}

// Stages returns a copy of the recorded stages in order.
func (sp *Span) Stages() []Stage {
	if sp == nil || sp.nstages == 0 {
		return nil
	}
	out := make([]Stage, sp.nstages)
	copy(out, sp.stages[:sp.nstages])
	return out
}

// FilterProbe mirrors sstable.ReadStats: one Bloom-filter probe.
func (sp *Span) FilterProbe(negative bool) {
	if sp == nil {
		return
	}
	sp.FilterProbes++
	if negative {
		sp.FilterNegatives++
	}
}

// BlockRead mirrors sstable.ReadStats, less the byte count: one
// data-block fetch.
func (sp *Span) BlockRead(cached bool) {
	if sp == nil {
		return
	}
	sp.BlockReads++
	if cached {
		sp.BlockReadsCached++
	}
}

// AddRun counts one sorted run probed.
func (sp *Span) AddRun() {
	if sp != nil {
		sp.Runs++
	}
}

// AddFalsePositive counts one filter pass that found nothing.
func (sp *Span) AddFalsePositive() {
	if sp != nil {
		sp.FilterFalsePos++
	}
}

// AddVlogRead counts one value-log hop.
func (sp *Span) AddVlogRead() {
	if sp != nil {
		sp.VlogReads++
	}
}

// AddEntries accumulates returned/applied entries.
func (sp *Span) AddEntries(n int) {
	if sp != nil {
		sp.Entries += int32(n)
	}
}

// AddBytes accumulates payload bytes.
func (sp *Span) AddBytes(n int64) {
	if sp != nil {
		sp.Bytes += n
	}
}

// AddStallNs accumulates write-stall time absorbed by this op's group.
func (sp *Span) AddStallNs(ns int64) {
	if sp != nil {
		sp.StallNs += ns
	}
}

// AddCommitWaitNs accumulates time spent waiting on the commit
// pipeline (group formation, WAL write, ordered publish).
func (sp *Span) AddCommitWaitNs(ns int64) {
	if sp != nil {
		sp.CommitWaitNs += ns
	}
}

// SetBatches records the size of the commit group this op rode in.
func (sp *Span) SetBatches(n int32) {
	if sp != nil {
		sp.Batches = n
	}
}

// SetTenant records the key-prefix namespace the operation touched.
func (sp *Span) SetTenant(tenant string) {
	if sp != nil {
		sp.Tenant = tenant
	}
}

// SetErr records the operation's error (nil clears nothing).
func (sp *Span) SetErr(err error) {
	if sp != nil && err != nil {
		sp.Err = err.Error()
	}
}

// Retain marks the span for unconditional capture regardless of
// sampling — background jobs use it so /traces always shows them.
func (sp *Span) Retain() {
	if sp != nil {
		sp.keep = true
	}
}

// ID returns the span's trace id (0 on a nil span).
func (sp *Span) ID() uint64 {
	if sp == nil {
		return 0
	}
	return sp.TraceID
}

// spanJSON is the wire shape of one captured span (/traces).
type spanJSON struct {
	TraceID string  `json:"trace_id"`
	Op      string  `json:"op"`
	StartNs int64   `json:"start_ns"`
	DurNs   int64   `json:"dur_ns"`
	Sampled bool    `json:"sampled"`
	Slow    bool    `json:"slow"`
	Stages  []Stage `json:"stages,omitempty"`

	Runs             int32  `json:"runs,omitempty"`
	FilterProbes     int32  `json:"filter_probes,omitempty"`
	FilterNegatives  int32  `json:"filter_negatives,omitempty"`
	FilterFalsePos   int32  `json:"filter_false_pos,omitempty"`
	BlockReads       int32  `json:"block_reads,omitempty"`
	BlockReadsCached int32  `json:"block_reads_cached,omitempty"`
	VlogReads        int32  `json:"vlog_reads,omitempty"`
	Batches          int32  `json:"batches,omitempty"`
	StallNs          int64  `json:"stall_ns,omitempty"`
	CommitWaitNs     int64  `json:"commit_wait_ns,omitempty"`
	Entries          int32  `json:"entries,omitempty"`
	Bytes            int64  `json:"bytes,omitempty"`
	Tenant           string `json:"tenant,omitempty"`
	Err              string `json:"err,omitempty"`
}

// MarshalJSON renders the span with only its live stages.
func (sp Span) MarshalJSON() ([]byte, error) {
	return json.Marshal(spanJSON{
		TraceID:          fmt.Sprintf("%016x", sp.TraceID),
		Op:               sp.Op,
		StartNs:          sp.StartNs,
		DurNs:            sp.DurNs,
		Sampled:          sp.Sampled,
		Slow:             sp.Slow,
		Stages:           (&sp).Stages(),
		Runs:             sp.Runs,
		FilterProbes:     sp.FilterProbes,
		FilterNegatives:  sp.FilterNegatives,
		FilterFalsePos:   sp.FilterFalsePos,
		BlockReads:       sp.BlockReads,
		BlockReadsCached: sp.BlockReadsCached,
		VlogReads:        sp.VlogReads,
		Batches:          sp.Batches,
		StallNs:          sp.StallNs,
		CommitWaitNs:     sp.CommitWaitNs,
		Entries:          sp.Entries,
		Bytes:            sp.Bytes,
		Tenant:           sp.Tenant,
		Err:              sp.Err,
	})
}

// Options configures a Tracer. The zero value keeps only slow spans
// once a SlowNs is set; with neither SampleEvery nor SlowNs, spans are
// annotated but never retained (useful for pure wire-id propagation).
type Options struct {
	// SampleEvery retains every Nth finished span (1 = all, 0 = none).
	SampleEvery int
	// SlowNs always retains spans at least this slow (0 disables).
	SlowNs int64
	// RingSize bounds the capture ring. Default 256.
	RingSize int
	// NowNs supplies time (injected for deterministic tests).
	NowNs func() int64
	// Seed perturbs trace-id generation (0 seeds from the clock).
	Seed uint64
}

// Tracer mints, times, and selectively captures spans. Safe for
// concurrent use; all methods are no-ops on a nil receiver.
type Tracer struct {
	sampleEvery uint64
	slowNs      int64
	nowNs       func() int64
	seed        uint64

	sampleCtr atomic.Uint64
	idCtr     atomic.Uint64
	started   atomic.Uint64
	retained  atomic.Uint64

	pool sync.Pool

	mu   sync.Mutex
	ring []Span
	next int
	n    int
}

// New returns a Tracer with the given retention policy.
func New(opts Options) *Tracer {
	if opts.RingSize <= 0 {
		opts.RingSize = 256
	}
	if opts.NowNs == nil {
		opts.NowNs = func() int64 { return time.Now().UnixNano() }
	}
	if opts.Seed == 0 {
		opts.Seed = uint64(opts.NowNs())
	}
	t := &Tracer{
		sampleEvery: uint64(max(opts.SampleEvery, 0)),
		slowNs:      opts.SlowNs,
		nowNs:       opts.NowNs,
		seed:        opts.Seed,
		ring:        make([]Span, opts.RingSize),
	}
	t.pool.New = func() any { return new(Span) }
	return t
}

// Mix64 is SplitMix64 — the id hash the tracer uses. Exported so other
// components (the network client) can mint compatible trace ids from
// their own seed and counter.
func Mix64(x uint64) uint64 { return mix64(x) }

// mix64 is SplitMix64's finalizer — a cheap, well-distributed id hash.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// NewID mints a non-zero trace id (0 means "untraced" on the wire).
func (t *Tracer) NewID() uint64 {
	if t == nil {
		return 0
	}
	id := mix64(t.seed + t.idCtr.Add(1))
	if id == 0 {
		id = 1
	}
	return id
}

// Start begins a span for op with a fresh trace id. Returns nil (and
// costs nothing downstream) on a nil Tracer, and — head sampling — on
// an unsampled operation when no slow threshold is armed.
func (t *Tracer) Start(op string) *Span { return t.StartID(op, 0) }

// StartID begins a span with a caller-supplied trace id — the wire-
// propagated case. id 0 mints a fresh one. Wire-supplied ids bypass
// sampling: the caller explicitly asked for this request to be traced.
func (t *Tracer) StartID(op string, id uint64) *Span {
	if t == nil {
		return nil
	}
	t.started.Add(1)
	sampled, keep := false, false
	if id == 0 {
		// The sampling verdict lands at Start, not Finish: with no slow
		// threshold an unsampled span could never be retained, so the
		// operation skips span bookkeeping (and its clock reads) entirely.
		sampled = t.sampleEvery == 1 ||
			(t.sampleEvery > 1 && t.sampleCtr.Add(1)%t.sampleEvery == 0)
		if !sampled && t.slowNs == 0 {
			return nil
		}
		id = t.NewID()
	} else {
		// A caller-supplied id is an explicit request to trace this op,
		// so the span is captured regardless of the sampling policy.
		keep = true
	}
	sp := t.pool.Get().(*Span)
	*sp = Span{}
	sp.TraceID = id
	sp.Op = op
	sp.Sampled = sampled
	sp.keep = keep
	sp.StartNs = t.nowNs()
	return sp
}

// StartRetained begins a span that bypasses sampling and is always
// captured at Finish — for rare, always-interesting background jobs
// (flush, compaction) that head sampling must not drop.
func (t *Tracer) StartRetained(op string) *Span {
	if t == nil {
		return nil
	}
	t.started.Add(1)
	sp := t.pool.Get().(*Span)
	*sp = Span{}
	sp.TraceID = t.NewID()
	sp.Op = op
	sp.keep = true
	sp.StartNs = t.nowNs()
	return sp
}

// Finish stamps the span's duration, applies the retention policy
// (sampling decided at Start, slow threshold, explicit Retain), and
// recycles the span. The span must not be touched after Finish.
func (t *Tracer) Finish(sp *Span) {
	if t == nil || sp == nil {
		return
	}
	sp.DurNs = t.nowNs() - sp.StartNs
	if t.slowNs > 0 && sp.DurNs >= t.slowNs {
		sp.Slow = true
	}
	if sp.Sampled || sp.Slow || sp.keep {
		t.retained.Add(1)
		t.mu.Lock()
		t.ring[t.next] = *sp
		t.next = (t.next + 1) % len(t.ring)
		if t.n < len(t.ring) {
			t.n++
		}
		t.mu.Unlock()
	}
	t.pool.Put(sp)
}

// Spans returns the captured spans, oldest first.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, t.n)
	start := t.next - t.n
	for i := 0; i < t.n; i++ {
		out = append(out, t.ring[(start+i+len(t.ring))%len(t.ring)])
	}
	return out
}

// Started returns how many spans were begun.
func (t *Tracer) Started() uint64 {
	if t == nil {
		return 0
	}
	return t.started.Load()
}

// Retained returns how many spans passed retention into the ring
// (including those since overwritten).
func (t *Tracer) Retained() uint64 {
	if t == nil {
		return 0
	}
	return t.retained.Load()
}
