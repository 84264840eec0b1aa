// Command benchmark is lsmlab's benchmark: four closed-loop workloads,
// each run by two load goroutines against a store the harness builds
// from a seed, with every result checked against a model. BENCHMARK.json
// at the repository root names its workloads and metrics; README.md in
// this directory says why each exists.
//
//	bash benchmark/run.sh                                      # every workload, every metric
//	bash benchmark/run.sh --workload serve-read-hot --seed 1 --seconds 15 --trace 0
//	bash benchmark/run.sh --workload serve-read-hot --seed 1 --seconds 15 --trace 1
//	bash benchmark/run.sh --seed 1 --repeat 10 --out a.json    # ten seeds per workload
//	bash benchmark/run.sh compare a.json b.json
//
// Each run of one workload ends with one JSON object on a line of its
// own: correct, attempted, failed, metrics. With --trace 0 the metrics
// are the end-to-end ones, measured with no wrapper or tracer in place;
// with --trace 1 they are the per-layer ones; without --trace the
// workload runs once each way.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// runSeconds is the phase length the benchmark is defined and calibrated
// at: run_seconds in BENCHMARK.json (the smoke test holds the two equal)
// and the default of --seconds.
const runSeconds = 15

// setupReps is how many times an untraced run builds its store; the
// median is setup_s and the last store is the one measured.
const setupReps = 3

// warmup is how long the workers run before the clock starts.
const warmup = 300 * time.Millisecond

// metric is one reported number.
type metric struct {
	name    string
	value   float64
	unit    string
	samples int64 // how many observations the value summarises
}

// result is everything one run of one workload measured.
type result struct {
	cfg     config
	setups  []float64 // seconds, one per repetition
	primary opClass   // the class p50_us and p95_us report
	main    phase     // the untraced timed phase
	traced  phase     // the traced phase (trace runs only)
	before  counters  // public snapshots around the untraced phase
	after   counters
	counted recCounters // what the wrappers counted over the untraced phase of a trace run
	tcount  recCounters // ... and over the traced phase
	sum     traceSummary
	probes  []metric

	heldBytes       uint64 // MemStats.Sys - HeapReleased after the untraced phase, quiet and collected
	clientThrottles int64
	writeAmp        float64
	spaceAmp        float64
	reopenS         float64
	attempted       int64
	failed          int64
}

// recCounters is a snapshot of the recorder's always-on counters.
type recCounters struct {
	applies, applyOps         int64
	flushNs, compactionNs     int64
	flushJobs, compactionJobs int64
	walWriteBytes, walSyncs   int64
	sstReads, sstReadBytes    int64
	sstWriteBytes             int64
}

func (r *recorder) counters() recCounters {
	if r == nil {
		return recCounters{}
	}
	return recCounters{
		applies: r.applies.Load(), applyOps: r.applyOps.Load(),
		flushNs: r.flushNs.Load(), compactionNs: r.compactionNs.Load(),
		flushJobs: r.flushJobs.Load(), compactionJobs: r.compactionJobs.Load(),
		walWriteBytes: r.vfs[fcWAL].writeBytes.Load(), walSyncs: r.vfs[fcWAL].syncs.Load(),
		sstReads: r.vfs[fcSST].readOps.Load(), sstReadBytes: r.vfs[fcSST].readBytes.Load(),
		sstWriteBytes: r.vfs[fcSST].writeBytes.Load(),
	}
}

func (c recCounters) sub(o recCounters) recCounters {
	return recCounters{
		applies: c.applies - o.applies, applyOps: c.applyOps - o.applyOps,
		flushNs: c.flushNs - o.flushNs, compactionNs: c.compactionNs - o.compactionNs,
		flushJobs: c.flushJobs - o.flushJobs, compactionJobs: c.compactionJobs - o.compactionJobs,
		walWriteBytes: c.walWriteBytes - o.walWriteBytes, walSyncs: c.walSyncs - o.walSyncs,
		sstReads: c.sstReads - o.sstReads, sstReadBytes: c.sstReadBytes - o.sstReadBytes,
		sstWriteBytes: c.sstWriteBytes - o.sstWriteBytes,
	}
}

// throttler is implemented by workers that hold a wire client.
type throttler interface{ throttles() int64 }

func (w *hotWorker) throttles() int64  { return w.cl.Throttles() }
func (w *syncWorker) throttles() int64 { return w.cl.Throttles() }

// runWorkload performs one run: set-up, warm-up, the timed phase, on a
// trace run the traced phase and the probes, then the end-of-run checks.
func runWorkload(cfg config) (*result, error) {
	res := &result{cfg: cfg}
	var rec *recorder
	reps := setupReps
	if cfg.trace {
		rec = newRecorder()
		reps = 1 // setup_s is an end-to-end metric; a trace run does not report it
	}
	var b bench
	defer func() {
		if b != nil {
			b.close()
		}
	}()
	for rep := 0; rep < reps; rep++ {
		if b != nil {
			err := b.close()
			b = nil
			if err != nil {
				return nil, fmt.Errorf("close repeated set-up: %w", err)
			}
			debug.FreeOSMemory()
		}
		nb, err := newBench(&cfg, rec)
		if err != nil {
			return nil, err
		}
		b = nb
		t0 := time.Now()
		err = b.setup()
		res.setups = append(res.setups, time.Since(t0).Seconds())
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
	}

	workers := func(traced bool) ([]worker, error) {
		ws := make([]worker, loaders)
		for g := range ws {
			w, err := b.worker(g, traced)
			if err != nil {
				return nil, fmt.Errorf("worker %d: %w", g, err)
			}
			ws[g] = w
		}
		return ws, nil
	}
	closeAll := func(ws []worker) {
		for _, w := range ws {
			if t, ok := w.(throttler); ok {
				res.clientThrottles += t.throttles()
			}
			w.close()
		}
	}
	count := func(p *phase) {
		res.attempted += p.ops
		res.failed += p.failed
	}

	ws, err := workers(false)
	if err != nil {
		return nil, err
	}
	d := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		d /= 2
	}
	lim := func(t time.Duration) limit { return limit{d: t, ops: cfg.opLimit(t)} }
	warm := runPhase(ws, lim(min(warmup, d)), nil)
	count(&warm)
	b.settle()
	debug.FreeOSMemory()

	res.primary = b.primary()
	res.before = b.counters()
	c0 := rec.counters()
	res.main = runPhase(ws, lim(d), nil)
	res.after, res.counted = b.counters(), rec.counters().sub(c0)
	count(&res.main)
	closeAll(ws)
	// mem_held_mb: what the runtime holds from the operating system once
	// the store is quiet and the garbage is collected and returned. The
	// resident set during the phase also holds garbage awaiting a
	// collection, and on the sync-bound workload, which collects only
	// two or three times in a phase, it swung by a tenth from run to
	// run; the resident set afterwards still swung by 4 % with pages the
	// kernel had not taken back yet.
	b.settle()
	debug.FreeOSMemory()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.heldBytes = ms.Sys - ms.HeapReleased

	if cfg.trace {
		tws, err := workers(true)
		if err != nil {
			return nil, err
		}
		c0 = rec.counters()
		origin := nowNs()
		rec.on.Store(true)
		res.traced = runPhase(tws, lim(d), rec.full)
		rec.on.Store(false)
		res.tcount = rec.counters().sub(c0)
		count(&res.traced)
		closeAll(tws)
		res.sum = rec.finish()
		path := fmt.Sprintf("%s/trace-%s.json", cfg.outDir, cfg.workload)
		if err := rec.writeSpans(path, cfg.workload, cfg.seed, origin); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
	}

	if err := b.finish(res); err != nil {
		return nil, fmt.Errorf("end-of-run check: %w", err)
	}
	err = b.close()
	b = nil
	if err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	if cfg.trace {
		debug.FreeOSMemory()
		res.probes = runProbes(cfg.scale)
	}
	return res, nil
}

func us(ns float64) float64 { return ns / 1e3 }

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// endToEnd is the --trace 0 metric set, in BENCHMARK.json's order.
func (r *result) endToEnd() []metric {
	h := &r.main.lat[r.primary]
	n := int64(h.n)
	return []metric{
		{"ops_per_s", r.main.opsPerSec(), "1/s", r.main.ops},
		{"p50_us", us(h.quantile(0.50)), "us", n},
		{"p95_us", us(h.quantile(0.95)), "us", n},
		{"write_amp", r.writeAmp, "ratio", 1},
		{"space_amp", r.spaceAmp, "ratio", 1},
		{"mem_held_mb", float64(r.heldBytes) / (1 << 20), "MB", 1},
		{"setup_s", median(r.setups), "s", int64(len(r.setups))},
	}
}

// perLayer is the --trace 1 metric set: counts over the untraced phase,
// self times and busy times from the traced phase, and the probes.
func (r *result) perLayer() []metric {
	d := r.after.eng.Sub(r.before.eng)
	s := r.after.srv.Sub(r.before.srv)
	c, t := r.counted, r.tcount
	mainOps := r.main.ops
	writes := d.Puts + d.Deletes
	sum := &r.sum

	var ms []metric
	add := func(name string, v float64, unit string, samples int64) {
		ms = append(ms, metric{name, v, unit, samples})
	}
	// client
	add("client.self_us_p50", us(median(sum.clientSelf)), "us", int64(len(sum.clientSelf)))
	add("client.throttles", float64(r.clientThrottles), "count", mainOps)
	retries := int64(0)
	if s.NetRequests > 0 {
		retries = s.NetRequests - mainOps
	}
	add("client.retries", float64(retries), "count", mainOps)
	// server
	add("server.self_us_p50", us(median(sum.serverSelf)), "us", int64(len(sum.serverSelf)))
	add("server.requests", float64(s.NetRequests), "count", 1)
	add("server.net_bytes_per_op", ratio(s.NetBytesRead+s.NetBytesWritten, s.NetRequests), "B", s.NetRequests)
	add("server.puts_per_apply", ratio(c.applyOps, c.applies), "ratio", c.applies)
	// admission
	add("admission.throttled", float64(r.after.admThrottled-r.before.admThrottled), "count", mainOps)
	// core
	add("core.get_self_us_p50", us(median(sum.getSelf)), "us", int64(len(sum.getSelf)))
	add("core.apply_self_us_p50", us(median(sum.applySelf)), "us", int64(len(sum.applySelf)))
	add("core.scan_self_us_p50", us(median(sum.scanSelf)), "us", int64(len(sum.scanSelf)))
	add("core.flush_busy_s", float64(t.flushNs)/1e9, "s", t.flushJobs)
	add("core.runs_probed_per_get", ratio(d.RunsProbed, d.Gets), "ratio", d.Gets)
	add("core.commit_group_size", ratio(d.CommitBatches, d.CommitGroups), "ratio", d.CommitGroups)
	add("core.wal_syncs_per_put", ratio(d.WALSyncs, writes), "ratio", writes)
	add("core.write_stalls", float64(d.WriteStalls), "count", writes)
	add("core.stall_ms", float64(d.StallNs)/1e6, "ms", d.WriteStalls)
	add("core.flushes", float64(d.Flushes), "count", 1)
	add("core.scan_entries_per_scan", ratio(d.ScanEntries, d.Scans), "ratio", d.Scans)
	// wal, sstable, bloom, cache, compaction: counts
	add("wal.bytes_per_user_byte", ratio(d.WALBytes, d.BytesIngested), "ratio", d.BytesIngested)
	add("sstable.block_reads_per_get", ratio(d.BlockReads, d.Gets), "ratio", d.Gets)
	add("bloom.negative_share", ratio(d.FilterNegatives, d.FilterProbes), "share", d.FilterProbes)
	// The engine's FilterFalsePos counts every probe that found nothing,
	// filter negatives included; the false positives are the rest.
	add("bloom.false_positive_share", ratio(d.FilterFalsePos-d.FilterNegatives, d.FilterProbes), "share", d.FilterProbes)
	add("cache.hit_rate", d.CacheHitRate(), "share", d.CacheHits+d.CacheMisses)
	add("compaction.bytes_written", float64(d.CompactionBytesWritten), "B", d.Compactions)
	add("compaction.bytes_read", float64(d.CompactionBytesRead), "B", d.Compactions)
	add("compaction.busy_s", float64(t.compactionNs)/1e9, "s", t.compactionJobs)
	add("compaction.jobs", float64(t.compactionJobs), "count", 1)
	// vfs: the wrapper's counters over the traced phase
	tracedGets := sum.gets
	add("vfs.wal_write_bytes", float64(t.walWriteBytes), "B", r.traced.ops)
	add("vfs.wal_syncs", float64(t.walSyncs), "count", r.traced.ops)
	add("vfs.sst_reads_per_get", ratio(sum.sstReadsFG, tracedGets), "ratio", tracedGets)
	add("vfs.sst_read_bytes", float64(t.sstReadBytes), "B", t.sstReads)
	add("vfs.sst_write_bytes", float64(t.sstWriteBytes), "B", r.traced.ops)
	add("vfs.time_share", ratio(sum.fgVFSNs, sum.engineNs), "share", int64(len(sum.getSelf)+len(sum.applySelf)+len(sum.scanSelf)))
	// bench: diagnostics of the untraced phase, every class
	for cl := opClass(0); cl < numClasses; cl++ {
		h := &r.main.lat[cl]
		n := int64(h.n)
		add("bench."+classNames[cl]+"_p50_us", us(h.quantile(0.50)), "us", n)
		add("bench."+classNames[cl]+"_p95_us", us(h.quantile(0.95)), "us", n)
		add("bench."+classNames[cl]+"_p99_us", us(h.quantile(0.99)), "us", n)
		add("bench."+classNames[cl]+"_p999_us", us(h.quantile(0.999)), "us", n)
		add("bench."+classNames[cl]+"_max_us", us(float64(h.max)), "us", n)
	}
	add("bench.allocs_per_op", ratio(int64(r.main.mallocs), mainOps), "ratio", mainOps)
	add("bench.gc_pause_total_ms", float64(r.main.gcPauseNs)/1e6, "ms", 1)
	add("bench.reopen_ms", r.reopenS*1e3, "ms", 1)
	add("bench.mem_phase_mb", r.main.rssBytes/(1<<20), "MB", 1)
	add("bench.mem_peak_mb", peakResidentMB(), "MB", 1)
	add("bench.untraced_ops_per_s", r.main.opsPerSec(), "1/s", mainOps)
	add("bench.traced_ops_per_s", r.traced.opsPerSec(), "1/s", r.traced.ops)
	overhead := 0.0
	if u := r.main.opsPerSec(); u > 0 {
		overhead = 1 - r.traced.opsPerSec()/u
	}
	add("bench.trace_overhead_share", overhead, "share", r.traced.ops)
	add("bench.trace_spans", float64(sum.spans), "count", 1)
	return append(ms, r.probes...)
}

// output is the result line.
type output struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) metrics() []metric {
	if r.cfg.trace {
		return r.perLayer()
	}
	return r.endToEnd()
}

func (r *result) output() output {
	o := output{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricJSON{}}
	for _, m := range r.metrics() {
		o.Metrics[m.name] = metricJSON{m.value, m.unit}
	}
	return o
}

// report prints every metric by name with unit and sample count, and on
// a trace run the per-layer budget of the workload's request.
func (r *result) report() {
	mode := "end-to-end, untraced"
	if r.cfg.trace {
		mode = "per-layer, counts + traced phase + probes"
	}
	fmt.Printf("== %s  seed=%d  seconds=%g  (%s)\n", r.cfg.workload, r.cfg.seed, r.cfg.seconds, mode)
	ended := "the clock"
	if callerRate[r.cfg.workload] > 0 {
		ended = "its operation count"
		if r.main.clocked {
			ended = "the clock before its operation count: write_amp and space_amp are at a smaller volume than the benchmark's"
		}
	}
	fmt.Printf("   timed phase: %d ops in %.3f s by %d closed-loop callers, ended by %s; error_share = %d/%d\n",
		r.main.ops, float64(r.main.wallNs)/1e9, loaders, ended, r.failed, r.attempted)
	for _, m := range r.metrics() {
		fmt.Printf("   %-32s %16.6g %-6s n=%d\n", m.name, m.value, m.unit, m.samples)
	}
	if r.cfg.trace {
		r.budget()
	}
}

// budget prints where the median request of the traced phase spent its
// time, layer by layer (self time: a span minus its children).
func (r *result) budget() {
	s := &r.sum
	fmt.Printf("   per-layer p50 self-time budget of the traced phase (%d spans, %d client records, %d unmatched):\n",
		s.spans, s.clientRecords, s.unmatched)
	if len(s.clientSelf) > 0 {
		fmt.Printf("     client+wire %9.2f us | server %9.2f us", us(median(s.clientSelf)), us(median(s.serverSelf)))
	} else {
		fmt.Printf("     (embedded: no client or server)")
	}
	for _, e := range []struct {
		name string
		self []float64
	}{{"get", s.getSelf}, {"apply", s.applySelf}, {"scan", s.scanSelf}} {
		if len(e.self) > 0 {
			fmt.Printf(" | core.%s %9.2f us", e.name, us(median(e.self)))
		}
	}
	fmt.Printf(" | vfs share of engine time %.3f\n", ratio(s.fgVFSNs, s.engineNs))
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	cfg := config{scale: 1}
	var trace, repeat int
	var out string
	flag.StringVar(&cfg.workload, "workload", "", "workload to run (default: all four, in order)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed every input is generated from")
	flag.Float64Var(&cfg.seconds, "seconds", runSeconds, "length of the timed phase; the benchmark's numbers are those at the default")
	flag.IntVar(&trace, "trace", -1, "0: end-to-end metrics, nothing wrapped; 1: per-layer metrics from wrappers, a traced phase and the probes (default: a run of each)")
	flag.IntVar(&repeat, "repeat", 1, "run each workload on this many successive seeds and print median, quartiles and spread per metric")
	flag.StringVar(&out, "out", "", "with --repeat: write every run's metrics to this JSON file, for compare")
	flag.StringVar(&cfg.outDir, "outdir", "benchmark/out", "directory for span files and the on-disk store")
	flag.Parse()
	if flag.NArg() > 0 || cfg.seconds <= 0 || trace < -1 || trace > 1 || repeat < 1 {
		fmt.Fprintln(os.Stderr, "usage: benchmark [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--repeat K [--out F]] | compare A.json B.json")
		os.Exit(2)
	}
	modes := []bool{false, true}
	if trace >= 0 {
		modes = []bool{trace == 1}
	}
	if err := run(cfg, modes, repeat, out); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

var errIncorrect = errors.New("a result did not match the model")

// run runs every named workload once per mode (false: end-to-end,
// true: per-layer), in this process or, with --repeat or --out, one
// child process per run.
func run(cfg config, modes []bool, repeat int, out string) error {
	names := workloadNames
	if cfg.workload != "" {
		names = []string{cfg.workload}
	}
	if repeat > 1 || out != "" {
		return repeatRuns(cfg, names, modes, repeat, out)
	}
	incorrect := false
	for _, name := range names {
		for _, trace := range modes {
			c := cfg
			c.workload, c.trace = name, trace
			res, err := runWorkload(c)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			res.report()
			line, err := json.Marshal(res.output())
			if err != nil {
				return err
			}
			fmt.Printf("%s\n", line)
			incorrect = incorrect || res.failed != 0
		}
	}
	if incorrect {
		return errIncorrect
	}
	return nil
}
