package main

import (
	"math"
	"math/bits"
	"sort"
)

// hist is a fixed-memory latency histogram: exact below 64 ns, then 64
// linear sub-buckets per power of two (each at most 1.6 % wide).
// Quantiles interpolate inside the bucket they land in, so two runs
// never report the identical value just because they share a bucket.
// (metrics.Histogram has four sub-buckets per octave, up to 25 % wide:
// fine for an operator's dashboard, too coarse to hold a 10 % bound.)
// Not safe for concurrent use: each load goroutine owns one and the
// harness merges them after the phase.
type hist struct {
	counts [histBuckets]uint64
	n      uint64
	max    int64
}

const (
	histSubBits = 6
	histSub     = 1 << histSubBits
	// Values are clamped to 2^40 ns (18 minutes), far past any run.
	histMaxExp  = 40
	histBuckets = (histMaxExp - histSubBits + 2) * histSub
)

func histIndex(v int64) int {
	if v < histSub {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 1
	if e > histMaxExp {
		return histBuckets - 1
	}
	sub := int(v>>(uint(e)-histSubBits)) & (histSub - 1)
	return (e-histSubBits+1)*histSub + sub
}

// histBounds returns the inclusive lower bound and the width of bucket i.
func histBounds(i int) (lo, width float64) {
	if i < histSub {
		return float64(i), 1
	}
	e := uint(i/histSub + histSubBits - 1)
	sub := int64(i % histSub)
	return float64((histSub + sub) << (e - histSubBits)), float64(int64(1) << (e - histSubBits))
}

func (h *hist) record(ns int64) {
	h.counts[histIndex(ns)]++
	h.n++
	if ns > h.max {
		h.max = ns
	}
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	if o.max > h.max {
		h.max = o.max
	}
}

// quantile returns the q-quantile in nanoseconds, 0 when empty.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	target := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= target {
			lo, width := histBounds(i)
			v := lo + width*(target-cum)/float64(c)
			return math.Min(v, float64(h.max))
		}
		cum += float64(c)
	}
	return float64(h.max)
}

// median of a small sample; 0 when empty. Sorts a copy.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns Q1 and Q3 the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), which is how
// the acceptance check measures spread. It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j)
		return s[j-1] + d*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}
