package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"lsmlab/internal/core"
	"lsmlab/internal/metrics"
	"lsmlab/internal/partition"
	"lsmlab/internal/workload"
)

// readConfig parameterizes the read and mixed benchmark modes: a
// preloaded key space, a reader pool, key popularity, cache warmth, and
// the filter budget — the knobs the paper's read-cost analysis varies.
type readConfig struct {
	mode      string // get | scan | mixed
	readers   int
	ops       int // operations across all readers (measured phase)
	keys      int64
	valueSize int
	dist      string // uniform | zipfian
	warm      bool
	bits      float64 // bloom filter bits per key
	scanLen   int
	syncWAL   bool
	dir       string // OS directory ("" = in-memory fs)
}

func (c readConfig) distribution() (workload.Distribution, error) {
	switch c.dist {
	case "uniform":
		return workload.Uniform, nil
	case "zipfian":
		return workload.Zipfian, nil
	}
	return 0, fmt.Errorf("unknown -dist %q (uniform|zipfian)", c.dist)
}

func (c readConfig) mix() (workload.Mix, error) {
	switch c.mode {
	case "get":
		return workload.MixC, nil
	case "scan":
		return workload.Mix{ScanShort: 1}, nil
	case "mixed":
		return workload.MixA, nil
	}
	return workload.Mix{}, fmt.Errorf("unknown -mode %q (get|scan|mixed)", c.mode)
}

// runRead executes one read benchmark and writes the optional JSON
// summary.
func runRead(cfg readConfig, jsonPath string) error {
	res, err := readBench(cfg, os.Stdout)
	if err != nil {
		return err
	}
	return res.writeJSON(jsonPath)
}

// readBench preloads the key space, optionally warms the block cache,
// then drives cfg.readers goroutines through the configured operation
// mix, reporting throughput, latency percentiles, allocations per
// operation, and the access-path counters (filter negatives, cache
// hits, block reads) that explain where each get went.
func readBench(cfg readConfig, w io.Writer) (benchResult, error) {
	dist, err := cfg.distribution()
	if err != nil {
		return benchResult{}, err
	}
	mix, err := cfg.mix()
	if err != nil {
		return benchResult{}, err
	}
	if cfg.readers < 1 {
		cfg.readers = 1
	}
	if cfg.scanLen < 1 {
		cfg.scanLen = 16
	}

	opts := benchOptions(cfg.dir, cfg.syncWAL, 0)
	opts.RecordLatencies = true
	opts.FilterMode = core.FilterUniform
	opts.BitsPerKey = cfg.bits
	db, err := partition.Open(opts, 0)
	if err != nil {
		return benchResult{}, err
	}
	defer db.Close()

	// Preload the key space in batches, then settle flushes and
	// compactions so measurement starts from a quiet tree.
	val := make([]byte, cfg.valueSize)
	var batch core.Batch
	const loadBatch = 512
	for i := int64(0); i < cfg.keys; i += loadBatch {
		batch.Reset()
		for j := int64(0); j < loadBatch && i+j < cfg.keys; j++ {
			batch.Put(workload.Key(i+j), val)
		}
		if err := db.Apply(&batch); err != nil {
			return benchResult{}, err
		}
	}
	if err := db.Flush(); err != nil {
		return benchResult{}, err
	}

	if cfg.warm {
		// One striped pass over the whole key space pulls every reachable
		// block through the cache once; what stays resident afterwards is
		// the steady-state warm set for the configured cache size.
		var wg sync.WaitGroup
		for r := 0; r < cfg.readers; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				for i := int64(r); i < cfg.keys; i += int64(cfg.readers) {
					db.Get(workload.Key(i))
				}
			}(r)
		}
		wg.Wait()
	}

	perReader := cfg.ops / cfg.readers
	total := perReader * cfg.readers
	var getLat, scanLat metrics.Histogram
	var getOps, scanOps, putOps atomic.Int64
	errs := make([]error, cfg.readers)

	m0 := db.Metrics()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	var wg sync.WaitGroup
	for r := 0; r < cfg.readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			g := workload.New(workload.Config{
				Seed:         int64(1000 + r),
				KeySpace:     cfg.keys,
				ValueLen:     cfg.valueSize,
				Distribution: dist,
				Mix:          mix,
				ShortScanLen: cfg.scanLen,
			})
			for i := 0; i < perReader; i++ {
				op := g.Next()
				switch op.Kind {
				case workload.OpPut:
					if err := db.Put(op.Key, op.Value); err != nil {
						errs[r] = err
						return
					}
					putOps.Add(1)
				case workload.OpGet, workload.OpGetZero:
					t0 := time.Now().UnixNano()
					_, err := db.Get(op.Key)
					getLat.RecordSince(t0, time.Now().UnixNano())
					if err != nil && err != core.ErrNotFound {
						errs[r] = err
						return
					}
					getOps.Add(1)
				case workload.OpScan:
					t0 := time.Now().UnixNano()
					_, err := db.Scan(op.Key, op.EndKey, op.Limit)
					scanLat.RecordSince(t0, time.Now().UnixNano())
					if err != nil {
						errs[r] = err
						return
					}
					scanOps.Add(1)
				}
			}
		}(r)
	}
	wg.Wait()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)
	for _, err := range errs {
		if err != nil {
			return benchResult{}, err
		}
	}
	d := db.Metrics().Sub(m0)

	res := benchResult{
		Mode: cfg.mode, Readers: cfg.readers, Ops: total,
		ValueBytes: cfg.valueSize, SyncWAL: cfg.syncWAL,
		KeySpace: cfg.keys, Dist: cfg.dist, WarmCache: cfg.warm,
		FilterBits: cfg.bits,
		ElapsedSec: elapsed.Seconds(), OpsPerSec: float64(total) / elapsed.Seconds(),
		GetOps: getOps.Load(), ScanOps: scanOps.Load(), PutOps: putOps.Load(),
		AllocsPerOp: float64(ms1.Mallocs-ms0.Mallocs) / float64(total),
	}
	if cfg.mode == "scan" {
		res.ScanLen = cfg.scanLen
		res.fillLatency(scanLat.Snapshot())
	} else {
		res.fillLatency(getLat.Snapshot())
	}
	res.fillReadPath(d)
	res.fillEngine(db.Metrics())

	fmt.Fprintf(w, "mode=%s readers=%d ops=%d keys=%d value=%dB dist=%s warm=%v bits=%.1f\n",
		cfg.mode, cfg.readers, total, cfg.keys, cfg.valueSize, cfg.dist, cfg.warm, cfg.bits)
	fmt.Fprintf(w, "elapsed=%.2fs throughput=%.0f ops/s allocs/op=%.2f\n",
		res.ElapsedSec, res.OpsPerSec, res.AllocsPerOp)
	fmt.Fprintf(w, "latency: p50=%dns p99=%dns p999=%dns max=%dns\n",
		res.P50Ns, res.P99Ns, res.P999Ns, res.MaxNs)
	fmt.Fprintf(w, "access path: RA=%.2f hit_rate=%.2f filter_neg=%d cache_hit=%.2f block_reads=%d (cached %d)\n",
		res.ReadAmp, res.HitRate, res.FilterNegatives, res.CacheHitRate,
		res.BlockReads, res.BlockReadsCached)
	return res, nil
}

// pinnedWorkload names the committed perf-trajectory workload. Changing
// it invalidates every BENCH_*.json on disk: bump the name and re-run
// the whole trajectory if you must.
const pinnedWorkload = "pinned-v1: 16B keys, 100B values, 200k keys, 100k gets @ 8 readers " +
	"(uniform + zipfian, warm cache, 10 bits/key) + 100k sync'd puts @ 8 writers, " +
	"in-memory fs, best of 3 runs per section; sharded sections: 40k sync'd batched " +
	"puts @ 8 writers (batch 32, 200us fsync, 64KiB buffers, leveled T=2, 4MiB/s " +
	"compaction throttle) at 1 and 4 shards"

// baselineRepeats is how many times each pinned section runs; the run
// with the highest throughput is recorded. A 100k-op section measures
// for only a fraction of a second, where scheduler interference skews
// single runs by ±20%; best-of-N reports the least-disturbed run.
const baselineRepeats = 3

// trajectoryFile is the on-disk format of BENCH_*.json: named sections
// so one file captures reads and writes of the same engine build.
type trajectoryFile struct {
	Schema   int                    `json:"schema"`
	Workload string                 `json:"workload"`
	Results  map[string]benchResult `json:"results"`
}

// runBaseline runs the pinned trajectory suite — get/uniform,
// get/zipfian, and the 8-writer put benchmark — and writes the combined
// JSON. CI and `make bench-baseline` feed its output to -compare.
func runBaseline(jsonPath string) error {
	if jsonPath == "" {
		return fmt.Errorf("-baseline requires -json PATH for the trajectory file")
	}
	readCfg := func(dist string) readConfig {
		return readConfig{
			mode: "get", readers: 8, ops: 100000, keys: 200000,
			valueSize: 100, dist: dist, warm: true, bits: 10, scanLen: 16,
		}
	}
	bestOf := func(section string, run func() (benchResult, error)) (benchResult, error) {
		var best benchResult
		for i := 0; i < baselineRepeats; i++ {
			fmt.Printf("== baseline: %s (run %d/%d) ==\n", section, i+1, baselineRepeats)
			res, err := run()
			if err != nil {
				return benchResult{}, err
			}
			if i == 0 || res.OpsPerSec > best.OpsPerSec {
				best = res
			}
		}
		return best, nil
	}
	results := make(map[string]benchResult)

	res, err := bestOf("get/uniform", func() (benchResult, error) {
		return readBench(readCfg("uniform"), os.Stdout)
	})
	if err != nil {
		return err
	}
	results["get_uniform"] = res

	if res, err = bestOf("get/zipfian", func() (benchResult, error) {
		return readBench(readCfg("zipfian"), os.Stdout)
	}); err != nil {
		return err
	}
	results["get_zipfian"] = res

	if res, err = bestOf("put/8 writers", func() (benchResult, error) {
		return writersBench(writersConfig{
			writers: 8, ops: 100000, valueSize: 100, batchSize: 1, syncWAL: true,
		}, os.Stdout)
	}); err != nil {
		return err
	}
	results["put_8writers"] = res

	// Sharded write scaling: the same sync'd batched workload at 1 and 4
	// shards. The configuration models a disk-bound store (200us fsync,
	// small buffers, leveled T=2, a per-compaction bandwidth throttle) so
	// that per-shard WAL/flush/compaction pipelines — not CPU — are the
	// contended resource; the shard4/shard1 ratio is the scaling claim
	// the sharding work is pinned on.
	shardCfg := func(n int) writersConfig {
		return writersConfig{
			writers: 8, ops: 40000, valueSize: 100, batchSize: 32,
			syncWAL: true, syncDelay: 200 * time.Microsecond, shards: n,
			bufferBytes: 64 << 10, sizeRatio: 2, leveled: true,
			compactionBW: 4 << 20,
		}
	}
	if res, err = bestOf("put/8 writers, 1 shard", func() (benchResult, error) {
		return writersBench(shardCfg(1), os.Stdout)
	}); err != nil {
		return err
	}
	results["put_8writers_shard1"] = res

	if res, err = bestOf("put/8 writers, 4 shards", func() (benchResult, error) {
		return writersBench(shardCfg(4), os.Stdout)
	}); err != nil {
		return err
	}
	results["put_8writers_shard4"] = res

	return writeTrajectory(jsonPath, results)
}

func writeTrajectory(path string, results map[string]benchResult) error {
	f := trajectoryFile{Schema: 1, Workload: pinnedWorkload, Results: results}
	return writeJSONFile(path, f)
}
