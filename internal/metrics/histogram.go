package metrics

import (
	"fmt"
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram is a lock-free log-linear latency histogram over
// nanosecond durations. Each power-of-two octave is split into
// histSubCount linear sub-buckets, bounding the relative error of a
// reconstructed quantile by 1/histSubCount. Recording is a single
// atomic add plus two atomic updates for sum and max, so the histogram
// can sit on the Get/Put hot paths.
//
// The zero value is ready to use. Snapshots are immutable copies and
// merge component-wise, so per-shard or per-engine histograms aggregate
// exactly.
type Histogram struct {
	counts [histBuckets]atomic.Int64
	sum    atomic.Int64
	max    atomic.Int64
}

const (
	// histSubBits sub-bucket index bits per octave: 2 → 4 linear
	// sub-buckets, ≤12.5% quantile reconstruction error.
	histSubBits  = 2
	histSubCount = 1 << histSubBits
	// Values 0..histSubCount-1 get exact buckets; octaves histSubBits
	// through 63 contribute histSubCount buckets each.
	histBuckets = histSubCount + (64-histSubBits)*histSubCount
)

// bucketIndex maps a duration to its bucket. Negative durations (a
// clock stepping backwards) clamp to bucket 0.
func bucketIndex(ns int64) int {
	if ns < 0 {
		ns = 0
	}
	n := uint64(ns)
	if n < histSubCount {
		return int(n)
	}
	exp := uint(bits.Len64(n)) - 1 // n ∈ [2^exp, 2^(exp+1))
	sub := (n >> (exp - histSubBits)) & (histSubCount - 1)
	return int((exp-histSubBits+1)*histSubCount) + int(sub)
}

// bucketBounds returns the half-open value range [lo, hi) of bucket i,
// saturating at MaxInt64 for the top octave (durations that large never
// occur; the clamp only keeps the arithmetic honest).
func bucketBounds(i int) (lo, hi int64) {
	if i < histSubCount {
		return int64(i), int64(i) + 1
	}
	block := i / histSubCount
	sub := i % histSubCount
	exp := uint(block) + histSubBits - 1
	width := uint64(1) << (exp - histSubBits)
	ulo := uint64(1)<<exp + uint64(sub)*width
	uhi := ulo + width
	const maxI64 = uint64(1)<<63 - 1
	if ulo > maxI64 {
		ulo = maxI64
	}
	if uhi > maxI64 || uhi == 0 {
		uhi = maxI64
	}
	return int64(ulo), int64(uhi)
}

// RecordNs adds one nanosecond duration observation.
func (h *Histogram) RecordNs(ns int64) {
	h.counts[bucketIndex(ns)].Add(1)
	h.sum.Add(ns)
	for {
		cur := h.max.Load()
		if ns <= cur || h.max.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// RecordSince adds the elapsed time from a start timestamp to now, both
// on the caller's clock.
func (h *Histogram) RecordSince(startNs, nowNs int64) { h.RecordNs(nowNs - startNs) }

// Snapshot returns an immutable copy of the current state. Concurrent
// recorders may land between bucket loads; the snapshot is a consistent
// *approximation*, exact once recording quiesces.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		s.N += c
	}
	s.Sum = h.sum.Load()
	s.Max = h.max.Load()
	return s
}

// HistogramSnapshot is a point-in-time copy of a Histogram.
type HistogramSnapshot struct {
	Counts [histBuckets]int64
	N      int64 // total observations
	Sum    int64 // sum of observations, ns
	Max    int64 // largest observation, ns
}

// Count returns the number of recorded observations.
func (s HistogramSnapshot) Count() int64 { return s.N }

// Mean returns the average observation in nanoseconds.
func (s HistogramSnapshot) Mean() float64 {
	if s.N == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.N)
}

// Quantile returns an estimate of the q-quantile (0 ≤ q ≤ 1) in
// nanoseconds, interpolating linearly within the containing bucket. The
// estimate's relative error is bounded by the sub-bucket width; Max is
// exact and returned for q = 1.
func (s HistogramSnapshot) Quantile(q float64) int64 {
	if s.N == 0 {
		return 0
	}
	if q >= 1 {
		return s.Max
	}
	if q < 0 {
		q = 0
	}
	rank := q * float64(s.N)
	var cum float64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) > rank {
			lo, hi := bucketBounds(i)
			frac := (rank - cum) / float64(c)
			v := float64(lo) + frac*float64(hi-lo)
			if int64(v) > s.Max && s.Max > 0 {
				return s.Max
			}
			return int64(v)
		}
		cum += float64(c)
	}
	return s.Max
}

// Merge returns the component-wise sum of two snapshots: the histogram
// of the union of both observation sets.
func (s HistogramSnapshot) Merge(o HistogramSnapshot) HistogramSnapshot {
	out := s
	for i := range out.Counts {
		out.Counts[i] += o.Counts[i]
	}
	out.N += o.N
	out.Sum += o.Sum
	if o.Max > out.Max {
		out.Max = o.Max
	}
	return out
}

// String renders the headline percentiles for stats output.
func (s HistogramSnapshot) String() string {
	d := func(ns int64) time.Duration { return time.Duration(ns) }
	return fmt.Sprintf("n=%d mean=%v p50=%v p90=%v p99=%v max=%v",
		s.N, d(int64(s.Mean())), d(s.Quantile(0.5)), d(s.Quantile(0.9)),
		d(s.Quantile(0.99)), d(s.Max))
}

// LatencySnapshot bundles every histogram of one engine at one instant:
// the per-operation latencies and the commit-group sizes. Each field
// has exactly one row in Histograms; snapshots merge component-wise.
type LatencySnapshot struct {
	Get        HistogramSnapshot // DB.Get, end to end
	Put        HistogramSnapshot // DB.Apply (single puts and batches)
	ScanNext   HistogramSnapshot // Iterator.Next advances
	Flush      HistogramSnapshot // memtable flush jobs
	Compaction HistogramSnapshot // compaction jobs
	Request    HistogramSnapshot // network requests (internal/server)
	GroupSize  HistogramSnapshot // batches per commit group (counts, not ns)
}

// Latencies returns a snapshot of every histogram.
func (m *Metrics) Latencies() LatencySnapshot {
	var s LatencySnapshot
	for _, d := range Histograms {
		*d.snap(&s) = d.live(m).Snapshot()
	}
	return s
}

// Merge returns the component-wise merge of two latency snapshots.
func (s LatencySnapshot) Merge(o LatencySnapshot) LatencySnapshot {
	for _, d := range Histograms {
		*d.snap(&s) = d.snap(&s).Merge(*d.snap(&o))
	}
	return s
}
