// Package lsmlab's root benchmark suite: one testing.B target per E/O
// experiment in DESIGN.md §3 (W1's is BenchmarkPutParallel; the tables
// themselves, N1 included, print through cmd/lsmbench -exp), plus
// micro-benchmarks of the hot paths. These are for measuring while
// working: performance claims and the CI gate are stated in the
// workloads and metrics of BENCHMARK.json (bash benchmark/run.sh,
// scripts/bench_gate.sh).
//
// Experiment benches run the full experiment once per iteration at a
// reduced scale and report the headline figure from its table via
// b.ReportMetric, so `go test -bench=.` regenerates every table's shape.
package lsmlab

import (
	"fmt"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"lsmlab/internal/bloom"
	"lsmlab/internal/compaction"
	"lsmlab/internal/core"
	"lsmlab/internal/experiments"
	"lsmlab/internal/kv"
	"lsmlab/internal/memtable"
	"lsmlab/internal/sstable"
	"lsmlab/internal/trace"
	"lsmlab/internal/vfs"
	"lsmlab/internal/workload"
)

// benchScale keeps experiment benches to seconds; cmd/lsmbench runs the
// documented full scale.
const benchScale = experiments.Scale(0.1)

// runExperiment executes the experiment once per b.N and reports the
// value of metricCol from the row whose first cell is rowName (empty
// rowName = first row).
func runExperiment(b *testing.B, id, rowName, metricCol, unit string) {
	b.Helper()
	var last float64
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.Run(id, benchScale)
		if err != nil {
			b.Fatal(err)
		}
		row := 0
		if rowName != "" {
			row = -1
			for r, cells := range tbl.Rows {
				if cells[0] == rowName {
					row = r
					break
				}
			}
			if row < 0 {
				b.Fatalf("row %q missing from %s", rowName, id)
			}
		}
		col := -1
		for c, name := range tbl.Columns {
			if name == metricCol {
				col = c
				break
			}
		}
		if col < 0 {
			b.Fatalf("column %q missing from %s", metricCol, id)
		}
		v, err := strconv.ParseFloat(tbl.Rows[row][col], 64)
		if err != nil {
			b.Fatal(err)
		}
		last = v
	}
	b.ReportMetric(last, unit)
}

// ---------------------------------------------------------------------
// Experiment benches (E1..E12)

func BenchmarkE1CompactionPolicies(b *testing.B) {
	runExperiment(b, "E1", "tiering(4)", "write_amp", "tiering_write_amp")
}

func BenchmarkE2Memtables(b *testing.B) {
	runExperiment(b, "E2", "vector", "write_only_ns_op", "vector_write_ns")
}

func BenchmarkE3PointFilters(b *testing.B) {
	runExperiment(b, "E3", "monkey", "zero_pages_per_lookup", "monkey_zero_pages")
}

func BenchmarkE4RangeFilters(b *testing.B) {
	runExperiment(b, "E4", "rosetta(14b)", "short_runs_probed", "rosetta_short_probes")
}

func BenchmarkE5KVSeparation(b *testing.B) {
	runExperiment(b, "E5", "", "write_amp", "baseline64_write_amp")
}

func BenchmarkE6FilePicking(b *testing.B) {
	runExperiment(b, "E6", "tombstone-density", "tombstones_left", "tombstones_left")
}

func BenchmarkE7BufferTuning(b *testing.B) {
	runExperiment(b, "E7", "16", "stalls", "small_buffer_stalls")
}

func BenchmarkE8Parallelism(b *testing.B) {
	runExperiment(b, "E8", "4", "ingest_wall_ms", "four_worker_ingest_ms")
}

func BenchmarkE9SizeRatio(b *testing.B) {
	runExperiment(b, "E9", "10", "write_amp", "T10_write_amp")
}

func BenchmarkE10RobustTuning(b *testing.B) {
	runExperiment(b, "E10", "robust", "worst_case_cost", "robust_worst_cost")
}

func BenchmarkE11DeletePersistence(b *testing.B) {
	runExperiment(b, "E11", "2000", "oldest_tombstone_age_ops", "bounded_age_ops")
}

func BenchmarkE12CacheLeaper(b *testing.B) {
	runExperiment(b, "E12", "true", "hit_rate", "prefetch_hit_rate")
}

func BenchmarkE13Partitioning(b *testing.B) {
	runExperiment(b, "E13", "8", "total_wall_ms", "eight_part_total_ms")
}

func BenchmarkO1TraceAttribution(b *testing.B) {
	runExperiment(b, "O1", "10bpk/all", "p99_us", "traced_get_p99_us")
}

func BenchmarkO2WorkloadProfile(b *testing.B) {
	runExperiment(b, "O2", "zipf-read", "zipf_s", "zipf_phase_fitted_s")
}

// ---------------------------------------------------------------------
// Micro-benchmarks of the hot paths

func BenchmarkMemtableAdd(b *testing.B) {
	for _, kind := range []memtable.Kind{
		memtable.KindSkipList, memtable.KindVector,
		memtable.KindHashSkipList, memtable.KindHashLinkList,
	} {
		b.Run(string(kind), func(b *testing.B) {
			m := memtable.New(kind)
			val := make([]byte, 64)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Add(kv.SeqNum(i+1), kv.KindSet, workload.Key(int64(i%100000)), val)
			}
		})
	}
}

func BenchmarkMemtableGet(b *testing.B) {
	for _, kind := range []memtable.Kind{memtable.KindSkipList, memtable.KindHashLinkList} {
		b.Run(string(kind), func(b *testing.B) {
			m := memtable.New(kind)
			val := make([]byte, 64)
			for i := 0; i < 100000; i++ {
				m.Add(kv.SeqNum(i+1), kv.KindSet, workload.Key(int64(i)), val)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Get(workload.Key(int64(i%100000)), kv.MaxSeqNum)
			}
		})
	}
}

func BenchmarkBloomFilter(b *testing.B) {
	keys := make([][]byte, 100000)
	for i := range keys {
		keys[i] = workload.Key(int64(i))
	}
	f := bloom.NewFromKeys(keys, 10)
	b.Run("MayContain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f.MayContain(keys[i%len(keys)])
		}
	})
	b.Run("Hash64", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bloom.Hash64(keys[i%len(keys)])
		}
	})
}

func BenchmarkSSTableWrite(b *testing.B) {
	fs := vfs.NewMem()
	val := make([]byte, 100)
	b.SetBytes(100 + 20)
	for i := 0; i < b.N; i++ {
		if i%100000 == 0 {
			b.StopTimer()
			f, _ := fs.Create("bench.sst")
			w := sstable.NewWriter(f, sstable.WriterOptions{BitsPerKey: 10})
			b.StartTimer()
			for j := 0; j < 100000 && i+j < b.N; j++ {
				w.Add(kv.MakeKey(workload.Key(int64(j)), kv.SeqNum(j+1), kv.KindSet), val)
			}
			b.StopTimer()
			w.Finish()
			f.Close()
			b.StartTimer()
		}
	}
}

func BenchmarkEngineGet(b *testing.B) {
	fs := vfs.NewMem()
	opts := core.DefaultOptions(fs, "db")
	db, err := core.Open(opts)
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	const n = 50000
	val := make([]byte, 100)
	for i := 0; i < n; i++ {
		db.Put(workload.Key(int64(i)), val)
	}
	db.Flush()
	db.WaitIdle()
	for i := 0; b.Loop(); i++ {
		if _, err := db.Get(workload.Key(int64(i % n))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEnginePut(b *testing.B) {
	fs := vfs.NewMem()
	opts := core.DefaultOptions(fs, "db")
	db, err := core.Open(opts)
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	val := make([]byte, 100)
	b.SetBytes(100 + 16)
	for i := 0; b.Loop(); i++ {
		if err := db.Put(workload.Key(int64(i)), val); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPutParallel measures aggregate Put throughput under write
// concurrency — the commit pipeline's headline number. A large buffer
// keeps flush/compaction backpressure out of the measurement so the
// comparison is about the write path itself. Each serial/parallel pair
// shares options: "serial" is the serialized baseline, "parallel"
// drives GOMAXPROCS writers (b.RunParallel) drawing unique keys from a
// shared counter. The sync pair models a 50µs device fsync on the
// in-memory VFS — that is where group commit pays: concurrent writers
// share one sync per group, so aggregate throughput rises with the
// writer count even on a single core.
func BenchmarkPutParallel(b *testing.B) {
	const fsyncDelay = 50 * time.Microsecond
	open := func(b *testing.B, syncWAL bool) *core.DB {
		b.Helper()
		fs := vfs.NewMem()
		if syncWAL {
			fs.SetSyncDelay(fsyncDelay)
		}
		opts := core.DefaultOptions(fs, "db")
		opts.SyncWAL = syncWAL
		opts.BufferBytes = 512 << 20 // isolate the commit path from flushes
		db, err := core.Open(opts)
		if err != nil {
			b.Fatal(err)
		}
		return db
	}
	for _, mode := range []struct {
		name string
		sync bool
	}{
		{"", false},
		{"sync50us", true},
	} {
		serial, parallel := "serial", "parallel"
		if mode.name != "" {
			serial += "-" + mode.name
			parallel += "-" + mode.name
		}
		b.Run(serial, func(b *testing.B) {
			db := open(b, mode.sync)
			defer db.Close()
			val := make([]byte, 100)
			b.SetBytes(100 + 16)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := db.Put(workload.Key(int64(i)), val); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(parallel, func(b *testing.B) {
			db := open(b, mode.sync)
			defer db.Close()
			// RunParallel spawns GOMAXPROCS×parallelism goroutines; pad to
			// at least 8 writers so commit groups form on small machines.
			if p := runtime.GOMAXPROCS(0); p < 8 {
				b.SetParallelism((8 + p - 1) / p)
			}
			var ctr atomic.Int64
			b.SetBytes(100 + 16)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				val := make([]byte, 100)
				for pb.Next() {
					if err := db.Put(workload.Key(ctr.Add(1)), val); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// BenchmarkBatchReuse measures building a batch into a Reset-reused
// Batch: the arena retains its blocks across Reset, so the steady state
// is zero allocations per operation.
func BenchmarkBatchReuse(b *testing.B) {
	var batch core.Batch
	key := make([]byte, 16)
	val := make([]byte, 100)
	const opsPerBatch = 16
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch.Reset()
		for j := 0; j < opsPerBatch; j++ {
			key[0] = byte(j)
			batch.Put(key, val)
		}
	}
}

// BenchmarkTraceOverhead prices per-op request tracing on both hot
// paths — point reads (the per-stage instrumentation's heaviest
// consumer) and puts (the write path) — at three settings: no tracer,
// 1% sampling (the suggested production setting), and trace-everything.
// The O1 section in EXPERIMENTS.md quotes these numbers.
func BenchmarkTraceOverhead(b *testing.B) {
	openTraced := func(b *testing.B, every int) *core.DB {
		b.Helper()
		fs := vfs.NewMem()
		opts := core.DefaultOptions(fs, "db")
		opts.BufferBytes = 512 << 20 // keep flushes out of the put loop
		if every > 0 {
			opts.Tracer = trace.New(trace.Options{SampleEvery: every, RingSize: 1024})
		}
		db, err := core.Open(opts)
		if err != nil {
			b.Fatal(err)
		}
		return db
	}
	for _, tc := range []struct {
		name  string
		every int
	}{
		{"off", 0},
		{"sample1pct", 100},
		{"sampleAll", 1},
	} {
		b.Run("get/"+tc.name, func(b *testing.B) {
			db := openTraced(b, tc.every)
			defer db.Close()
			const n = 20000
			val := make([]byte, 100)
			for i := 0; i < n; i++ {
				if err := db.Put(workload.Key(int64(i)), val); err != nil {
					b.Fatal(err)
				}
			}
			if err := db.Flush(); err != nil {
				b.Fatal(err)
			}
			db.WaitIdle()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.Get(workload.Key(int64(i % n))); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("put/"+tc.name, func(b *testing.B) {
			db := openTraced(b, tc.every)
			defer db.Close()
			val := make([]byte, 100)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := db.Put(workload.Key(int64(i)), val); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkEngineScan(b *testing.B) {
	fs := vfs.NewMem()
	db, err := core.Open(core.DefaultOptions(fs, "db"))
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	const n = 50000
	val := make([]byte, 100)
	for i := 0; i < n; i++ {
		db.Put(workload.Key(int64(i)), val)
	}
	db.Flush()
	db.WaitIdle()
	for _, c := range []struct {
		name         string
		width, limit int64
	}{
		{"range100", 100, 0}, // every key of a 100-key range
		{"limit50", 50, 50},  // embed-mixed-scan's shape: [k, k+50) capped at 50
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				start := int64(i % (n - 200))
				kvs, err := db.Scan(workload.Key(start), workload.Key(start+c.width), int(c.limit))
				if err != nil {
					b.Fatal(err)
				}
				if len(kvs) == 0 {
					b.Fatal("empty scan")
				}
			}
		})
	}
}

// BenchmarkAblationFilterModes isolates the filter design choice called
// out in DESIGN.md: zero-result gets with no filter, uniform filters,
// and Monkey allocation, on identical trees.
func BenchmarkAblationFilterModes(b *testing.B) {
	for _, mode := range []struct {
		name   string
		mutate func(*core.Options)
	}{
		{"none", func(o *core.Options) { o.FilterMode = core.FilterNone }},
		{"uniform10", func(o *core.Options) { o.FilterMode = core.FilterUniform; o.BitsPerKey = 10 }},
		{"monkey", func(o *core.Options) {
			o.FilterMode = core.FilterMonkey
			o.FilterBudgetBits = 50000 * 10
		}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			fs := vfs.NewMem()
			opts := core.DefaultOptions(fs, "db")
			mode.mutate(&opts)
			db, err := core.Open(opts)
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			val := make([]byte, 64)
			for i := 0; i < 50000; i++ {
				db.Put(workload.Key(int64(i)), val)
			}
			db.Flush()
			db.WaitIdle()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := append(workload.Key(int64(i%50000)), []byte("-absent")...)
				db.Get(k)
			}
		})
	}
}

// BenchmarkAblationWALSync isolates durability cost: WAL on, WAL+sync,
// WAL off.
func BenchmarkAblationWALSync(b *testing.B) {
	for _, mode := range []struct {
		name   string
		mutate func(*core.Options)
	}{
		{"wal", nil},
		{"wal+sync", func(o *core.Options) { o.SyncWAL = true }},
		{"no-wal", func(o *core.Options) { o.DisableWAL = true }},
	} {
		b.Run(mode.name, func(b *testing.B) {
			fs := vfs.NewMem()
			opts := core.DefaultOptions(fs, "db")
			if mode.mutate != nil {
				mode.mutate(&opts)
			}
			db, err := core.Open(opts)
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			val := make([]byte, 100)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := db.Put(workload.Key(int64(i)), val); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMergingIterator measures the k-way merge that underlies
// scans and compactions.
func BenchmarkMergingIterator(b *testing.B) {
	for _, ways := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("%dway", ways), func(b *testing.B) {
			var iters []kv.Iterator
			for w := 0; w < ways; w++ {
				var es []kv.Entry
				for i := 0; i < 10000; i++ {
					es = append(es, kv.Entry{
						Key: kv.MakeKey(workload.Key(int64(i*ways+w)), kv.SeqNum(i+1), kv.KindSet),
					})
				}
				iters = append(iters, kv.NewSliceIterator(es))
			}
			m := kv.NewMergingIterator(iters...)
			count := 0
			for b.Loop() {
				if count == 0 {
					m.First()
				}
				if m.Valid() {
					m.Key()
					m.Next()
					count++
				} else {
					count = 0
				}
			}
		})
	}
}

// BenchmarkAblationBlockSize isolates the data-block size choice: point
// gets against identical trees built with different block sizes.
func BenchmarkAblationBlockSize(b *testing.B) {
	for _, blockSize := range []int{512, 4096, 16384} {
		b.Run(fmt.Sprintf("%dB", blockSize), func(b *testing.B) {
			fs := vfs.NewMem()
			opts := core.DefaultOptions(fs, "db")
			opts.BlockSize = blockSize
			db, err := core.Open(opts)
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			val := make([]byte, 100)
			for i := 0; i < 50000; i++ {
				db.Put(workload.Key(int64(i)), val)
			}
			db.Flush()
			db.WaitIdle()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.Get(workload.Key(int64(i % 50000))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationLayoutIngest isolates the data-layout choice on the
// pure ingest path (the E1 write-amplification story as wall-clock).
func BenchmarkAblationLayoutIngest(b *testing.B) {
	layouts := map[string]compaction.Layout{
		"leveling":   compaction.Leveling{},
		"tiering4":   compaction.Tiering{K: 4},
		"lazy4":      compaction.LazyLeveling{K: 4},
		"tieredL0-4": compaction.TieredFirst{K0: 4},
	}
	for name, layout := range layouts {
		b.Run(name, func(b *testing.B) {
			fs := vfs.NewMem()
			opts := core.DefaultOptions(fs, "db")
			opts.Layout = layout
			opts.BufferBytes = 64 << 10
			opts.BaseLevelBytes = 256 << 10
			opts.SizeRatio = 4
			db, err := core.Open(opts)
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			val := make([]byte, 64)
			b.SetBytes(64 + 16)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := db.Put(workload.Key(int64(i%100000)), val); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			db.Flush()
			db.WaitIdle()
		})
	}
}

// BenchmarkAblationValueSeparation isolates the WiscKey threshold on
// the ingest path at a fixed 1 KiB value size.
func BenchmarkAblationValueSeparation(b *testing.B) {
	for _, sep := range []bool{false, true} {
		name := "inline"
		if sep {
			name = "separated"
		}
		b.Run(name, func(b *testing.B) {
			fs := vfs.NewMem()
			opts := core.DefaultOptions(fs, "db")
			if sep {
				opts.ValueSeparationThreshold = 128
			}
			db, err := core.Open(opts)
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			val := make([]byte, 1024)
			b.SetBytes(1024 + 16)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := db.Put(workload.Key(int64(i)), val); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
