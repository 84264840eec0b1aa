package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lsmlab/internal/workload"
)

// loaders is the number of load goroutines of every workload: a closed
// loop of two callers, each waiting for its reply before its next
// request. It matches the two cores the calibration ran on and is not
// a tunable — changing it changes every number.
const loaders = 2

// streamLen is how many operations are generated per load goroutine
// before the clock starts; a phase that outlasts them cycles. At the
// fastest workload's rate this is a few seconds of distinct operations,
// and the reuse distance stays far above any cache in the program.
const streamLen = 1 << 19

// streamLen shrinks with the data sets, so the reuse distance keeps its
// proportion to them.
func (c *config) streamLen() int { return max(1<<12, int(float64(streamLen)*c.scale)) }

// opClass names the latency classes the harness reports.
type opClass uint8

const (
	classGet     opClass = iota // point lookup of a key the model holds
	classGetZero                // point lookup of a key that was never written
	classPut                    // put or delete
	classScan
	numClasses
)

var classNames = [numClasses]string{"get", "getzero", "put", "scan"}

// stream is a pre-generated operation sequence: what internal/workload
// emitted for one sub-seed, reduced to kind and key index so the timed
// loop neither formats keys nor allocates.
type stream struct {
	kind []uint8 // workload.OpKind
	idx  []uint32
}

// genStream draws n operations from cfg. When getCfg is non-nil, point
// lookups take their key from that second generator instead (the mixed
// workload skews only its gets).
func genStream(cfg workload.Config, getCfg *workload.Config, n int) stream {
	g := workload.New(cfg)
	var gg *workload.Generator
	if getCfg != nil {
		gg = workload.New(*getCfg)
	}
	s := stream{kind: make([]uint8, n), idx: make([]uint32, n)}
	for i := 0; i < n; i++ {
		op := g.Next()
		if gg != nil && op.Kind == workload.OpGet {
			op = gg.Next()
		}
		key := op.Key
		if op.Kind == workload.OpGetZero {
			key = key[:keyLen]
		}
		k, ok := parseKey(key)
		if !ok {
			panic(fmt.Sprintf("benchmark: workload generator emitted key %q", op.Key))
		}
		s.kind[i] = uint8(op.Kind)
		s.idx[i] = uint32(k)
	}
	return s
}

// streams holds each load goroutine's stream, so the traced pass of a
// trace run replays the untraced pass's operations without generating
// them again.
type streams [loaders]stream

func (c *streams) get(g int, gen func() stream) stream {
	if c[g].idx == nil {
		c[g] = gen()
	}
	return c[g]
}

// subSeed derives the seed of load goroutine g from the run's seed.
func subSeed(seed int64, g int) int64 { return seed*1000003 + int64(g)*7919 + 1 }

// stats is what one load goroutine records during one phase.
type stats struct {
	lat    [numClasses]hist
	ops    int64 // operations completed
	failed int64 // operations that erred, were refused, or returned a wrong result
}

func (s *stats) merge(o *stats) {
	for c := range s.lat {
		s.lat[c].merge(&o.lat[c])
	}
	s.ops += o.ops
	s.failed += o.failed
}

// worker is one load goroutine's executor. step performs the next
// operation (or window of operations) of its stream, verifies the
// result, records latency and outcome in st, and returns the clock
// reading it took when the operation completed, so the loop can test
// its deadline without another clock read.
type worker interface {
	step(st *stats) int64
	close()
}

// phase is the merged result of one timed phase.
type phase struct {
	stats
	wallNs    int64
	mallocs   uint64
	gcPauseNs uint64
	rssBytes  float64 // median resident set over the phase
	clocked   bool    // a caller with an operation count was stopped by the clock first
}

func (p *phase) opsPerSec() float64 {
	if p.wallNs <= 0 {
		return 0
	}
	return float64(p.ops) / (float64(p.wallNs) / 1e9)
}

// limit is what ends a phase: the clock, or — on the workloads that
// write — each caller's operation count, whichever comes first.
type limit struct {
	d   time.Duration
	ops int64 // per load goroutine; 0 = the clock alone
}

// runPhase drives every worker in its own goroutine until lim is
// reached or stop reports true, and returns when all have finished their
// current operation.
func runPhase(ws []worker, lim limit, stop func() bool) phase {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	rss := startRSSSampler()
	per := make([]stats, len(ws))
	var wg sync.WaitGroup
	start := time.Now().UnixNano()
	deadline := start + int64(lim.d)
	var end atomic.Int64
	for i := range ws {
		wg.Add(1)
		go func(w worker, st *stats) {
			defer wg.Done()
			for n := 0; ; n++ {
				now := w.step(st)
				if now >= deadline || (lim.ops > 0 && st.ops >= lim.ops) || (n&63 == 0 && stop != nil && stop()) {
					for {
						e := end.Load()
						if now <= e || end.CompareAndSwap(e, now) {
							break
						}
					}
					return
				}
			}
		}(ws[i], &per[i])
	}
	wg.Wait()
	var p phase
	p.wallNs = end.Load() - start
	p.rssBytes = rss.stop()
	runtime.ReadMemStats(&ms1)
	p.mallocs = ms1.Mallocs - ms0.Mallocs
	p.gcPauseNs = ms1.PauseTotalNs - ms0.PauseTotalNs
	for i := range per {
		p.stats.merge(&per[i])
		p.clocked = p.clocked || (lim.ops > 0 && per[i].ops < lim.ops)
	}
	return p
}

// rssSampler polls the process's resident set twenty times a second;
// the median over the timed phase is bench.mem_phase_mb. It includes
// garbage awaiting collection, so it follows the collector's cycle;
// mem_held_mb is read after the phase, when that is gone.
type rssSampler struct {
	quit chan struct{}
	done chan float64
}

func startRSSSampler() *rssSampler {
	s := &rssSampler{quit: make(chan struct{}), done: make(chan float64, 1)}
	go func() {
		samples := []float64{float64(residentBytes())}
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				samples = append(samples, float64(residentBytes()))
			case <-s.quit:
				s.done <- median(samples)
				return
			}
		}
	}()
	return s
}

func (s *rssSampler) stop() float64 {
	close(s.quit)
	return <-s.done
}

// peakResidentMB reads VmHWM, the process's resident-set high-water
// mark since it started, from /proc/self/status; 0 where there is none.
func peakResidentMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// residentBytes reads the resident set size from /proc/self/statm;
// 0 where that file does not exist.
func residentBytes() int64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize())
}
