// Command lsmbench regenerates the experiment tables of DESIGN.md §3:
// one table per tutorial claim (E1–E13, plus the O1 trace-attribution
// table built from /traces). It also carries the engine benchmarks that
// feed the committed perf trajectory (BENCH_*.json): concurrent writes
// through the group-commit pipeline, point-read/scan/mixed workloads
// over a preloaded key space, and a regression comparator.
//
// Usage:
//
//	lsmbench -exp all            # run everything at full scale
//	lsmbench -exp E1,E3 -scale 0.25
//	lsmbench -writers 8 -ops 200000 -sync   # group-commit throughput
//	lsmbench -mode get -readers 8 -keys 200000 -dist zipfian -warm  # read path
//	lsmbench -serve -conns 8 -ops 100000 -sync   # same store, over TCP
//	lsmbench -addr 127.0.0.1:4700 -conns 8       # against a live server
//	lsmbench -addr 127.0.0.1:4700 -replicas 127.0.0.1:4701 -conns 8  # + replica readback
//	lsmbench -baseline -json BENCH_new.json      # pinned trajectory suite
//	lsmbench -compare BENCH_0.json BENCH_1.json  # regression gate
//
// Flag combinations are validated up front: a flag that does not apply
// to the selected mode is a usage error, never silently ignored.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"lsmlab/internal/admission"
	"lsmlab/internal/benchcmp"
	"lsmlab/internal/client"
	"lsmlab/internal/compaction"
	"lsmlab/internal/core"
	"lsmlab/internal/experiments"
	"lsmlab/internal/metrics"
	"lsmlab/internal/partition"
	"lsmlab/internal/server"
	"lsmlab/internal/vfs"
	"lsmlab/internal/workload"
)

func main() {
	var (
		exp   = flag.String("exp", "all", "comma-separated experiment ids (E1..E13, O1) or 'all'")
		scale = flag.Float64("scale", 1.0, "workload scale factor (1.0 = documented size)")

		writers   = flag.Int("writers", 0, "run the concurrent write benchmark with this many writers")
		ops       = flag.Int("ops", 100000, "total operations for writers/net/read modes")
		valueSize = flag.Int("value", 100, "value size in bytes")
		batchSize = flag.Int("batch", 1, "puts per Apply batch for -writers mode")
		shards    = flag.Int("shards", 1, "run -writers against a store with this many hash-routed shards (1 = the flat single tree)")
		syncWAL   = flag.Bool("sync", false, "fsync the WAL on every commit")
		syncDelay = flag.Duration("syncdelay", 0, "modeled fsync latency on the in-memory fs (e.g. 100us)")
		dir       = flag.String("dir", "", "OS directory (default: in-memory fs; real fsync latency needs a real disk)")

		_        = flag.Bool("serve", false, "network mode: serve the bench store in-process and write over TCP")
		addr     = flag.String("addr", "", "network mode: benchmark an external lsmserved at this address")
		conns    = flag.Int("conns", 1, "network mode: number of client connections")
		replicas = flag.String("replicas", "", "network mode: comma-separated follower addresses; after the put phase, reads fan out across them with read-your-writes enforced")
		depth    = flag.Int("depth", 1, "network mode: pipelined requests in flight per connection (1 = synchronous)")
		tenants  = flag.Int("tenants", 0, "network mode: overload bench with this many tenants; tenant t0 hammers at 4x quota, the rest stay under it")
		quota    = flag.String("quota", "", "network mode: per-tenant quota 'ops=N[,bytes=N][,burst=SEC]' for -tenants (with -serve it is enforced in-process; with -addr it only sets the pacing targets)")

		mode    = flag.String("mode", "", "read benchmark: get|scan|mixed over a preloaded key space")
		readers = flag.Int("readers", 8, "read mode: concurrent reader goroutines")
		keys    = flag.Int64("keys", 200000, "read mode: distinct keys preloaded before measuring")
		dist    = flag.String("dist", "zipfian", "read mode: key popularity, uniform|zipfian")
		warm    = flag.Bool("warm", true, "read mode: warm the block cache with one full pass before measuring")
		bits    = flag.Float64("bits", 10, "read mode: bloom filter bits per key")
		scanLen = flag.Int("scanlen", 16, "read mode: entries per scan (scan/mixed)")

		_ = flag.Bool("baseline", false, "run the pinned perf-trajectory suite and write it to -json")

		_              = flag.Bool("compare", false, "compare two BENCH_*.json files: lsmbench -compare old.json new.json")
		thresholdScale = flag.Float64("threshold-scale", 1, "multiply -compare regression tolerances (CI uses 2)")
		markdown       = flag.Bool("markdown", false, "render the -compare table as markdown")

		jsonPath = flag.String("json", "", "write a machine-readable result summary to this file")
	)
	flag.Parse()

	explicit := make(map[string]bool)
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	benchMode, err := validateFlags(explicit)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lsmbench: %v\n", err)
		os.Exit(2)
	}

	switch benchMode {
	case modeCompare:
		args := flag.Args()
		if len(args) != 2 {
			fmt.Fprintln(os.Stderr, "lsmbench: -compare needs exactly two files: old.json new.json")
			os.Exit(2)
		}
		failed, err := benchcmp.CompareFiles(args[0], args[1],
			benchcmp.Options{Scale: *thresholdScale}, os.Stdout, *markdown)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lsmbench:", err)
			os.Exit(2)
		}
		if failed {
			os.Exit(1)
		}
		return

	case modeBaseline:
		if err := runBaseline(*jsonPath); err != nil {
			fmt.Fprintln(os.Stderr, "lsmbench:", err)
			os.Exit(1)
		}
		return

	case modeNet:
		if *quota != "" && *tenants <= 0 {
			fmt.Fprintln(os.Stderr, "lsmbench: -quota requires -tenants")
			os.Exit(2)
		}
		if *tenants > 0 {
			for _, f := range []string{"conns", "depth", "replicas"} {
				if explicit[f] {
					fmt.Fprintf(os.Stderr, "lsmbench: -%s does not apply to the -tenants overload bench\n", f)
					os.Exit(2)
				}
			}
			if err := runNetTenants(*addr, *tenants, *quota, *ops, *valueSize, *syncWAL, *syncDelay, *dir, *jsonPath); err != nil {
				fmt.Fprintln(os.Stderr, "lsmbench:", err)
				os.Exit(1)
			}
			return
		}
		if err := runNet(*addr, *replicas, *conns, *ops, *valueSize, *depth, *syncWAL, *syncDelay, *dir, *jsonPath); err != nil {
			fmt.Fprintln(os.Stderr, "lsmbench:", err)
			os.Exit(1)
		}
		return

	case modeWriters:
		if *writers < 1 {
			fmt.Fprintln(os.Stderr, "lsmbench: -writers must be at least 1")
			os.Exit(2)
		}
		if err := runWriters(writersConfig{
			writers: *writers, ops: *ops, valueSize: *valueSize, batchSize: *batchSize,
			syncWAL: *syncWAL, syncDelay: *syncDelay, dir: *dir, shards: *shards,
		}, *jsonPath); err != nil {
			fmt.Fprintln(os.Stderr, "lsmbench:", err)
			os.Exit(1)
		}
		return

	case modeRead:
		if err := runRead(readConfig{
			mode: *mode, readers: *readers, ops: *ops, keys: *keys,
			valueSize: *valueSize, dist: *dist, warm: *warm, bits: *bits,
			scanLen: *scanLen, syncWAL: *syncWAL, dir: *dir,
		}, *jsonPath); err != nil {
			fmt.Fprintln(os.Stderr, "lsmbench:", err)
			os.Exit(1)
		}
		return
	}

	var ids []string
	if *exp == "all" {
		for _, e := range experiments.All() {
			ids = append(ids, e.ID)
		}
	} else {
		for _, id := range strings.Split(*exp, ",") {
			ids = append(ids, strings.TrimSpace(id))
		}
	}

	failed := false
	for _, id := range ids {
		start := time.Now()
		tbl, err := experiments.Run(id, experiments.Scale(*scale))
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
			failed = true
			continue
		}
		tbl.Fprint(os.Stdout)
		fmt.Printf("(%s completed in %.1fs)\n\n", id, time.Since(start).Seconds())
	}
	if failed {
		os.Exit(1)
	}
}

// benchResult is the machine-readable summary written by -json: the
// numbers CI trend lines and the BENCH_*.json trajectory consume
// without scraping the human output.
type benchResult struct {
	Mode       string  `json:"mode"` // "writers", "net", "get", "scan", "mixed"
	Writers    int     `json:"writers,omitempty"`
	Shards     int     `json:"shards,omitempty"`
	Conns      int     `json:"conns,omitempty"`
	Depth      int     `json:"depth,omitempty"`
	Readers    int     `json:"readers,omitempty"`
	Ops        int     `json:"ops"`
	ValueBytes int     `json:"value_bytes"`
	BatchSize  int     `json:"batch_size,omitempty"`
	SyncWAL    bool    `json:"sync_wal"`
	KeySpace   int64   `json:"key_space,omitempty"`
	Dist       string  `json:"dist,omitempty"`
	WarmCache  bool    `json:"warm_cache,omitempty"`
	FilterBits float64 `json:"filter_bits_per_key,omitempty"`
	ScanLen    int     `json:"scan_len,omitempty"`
	ElapsedSec float64 `json:"elapsed_sec"`
	OpsPerSec  float64 `json:"ops_per_sec"`

	// AllocsPerOp is the heap-allocation count per operation over the
	// measured phase (runtime.ReadMemStats Mallocs delta / ops) — the
	// CPU-side cost the zero-alloc get-path work drives down.
	AllocsPerOp float64 `json:"allocs_per_op"`

	// Primary-operation latency percentiles, nanoseconds (puts in
	// writers/net mode, gets in get/mixed mode, scans in scan mode).
	P50Ns  int64 `json:"p50_ns"`
	P99Ns  int64 `json:"p99_ns"`
	P999Ns int64 `json:"p999_ns"`
	MaxNs  int64 `json:"max_ns"`

	// Read modes: operation counts and access-path attribution for the
	// measured phase only (interval deltas, not engine totals).
	GetOps           int64   `json:"get_ops,omitempty"`
	ScanOps          int64   `json:"scan_ops,omitempty"`
	PutOps           int64   `json:"put_ops,omitempty"`
	HitRate          float64 `json:"get_hit_rate,omitempty"`
	FilterNegatives  int64   `json:"filter_negatives,omitempty"`
	FilterFalsePos   int64   `json:"filter_false_positives,omitempty"`
	CacheHits        int64   `json:"cache_hits,omitempty"`
	CacheMisses      int64   `json:"cache_misses,omitempty"`
	CacheHitRate     float64 `json:"cache_hit_rate,omitempty"`
	BlockReads       int64   `json:"block_reads,omitempty"`
	BlockReadsCached int64   `json:"block_reads_cached,omitempty"`

	// Multi-tenant overload bench (-tenants): the enforced per-tenant
	// quota and one row per tenant.
	QuotaOpsPerSec float64        `json:"quota_ops_per_sec,omitempty"`
	Tenants        []tenantResult `json:"tenants,omitempty"`

	// Engine-side totals (zero when benchmarking an external server).
	WriteAmp           float64 `json:"write_amplification"`
	ReadAmp            float64 `json:"read_amplification"`
	BytesIngested      int64   `json:"bytes_ingested"`
	WALBytes           int64   `json:"wal_bytes"`
	FlushBytes         int64   `json:"flush_bytes"`
	CompactionBytesOut int64   `json:"compaction_bytes_written"`
	AvgCommitGroup     float64 `json:"avg_commit_group_size"`
	WALSyncs           int64   `json:"wal_syncs"`
	WALSyncsSaved      int64   `json:"wal_syncs_saved"`
}

// fillEngine copies the engine-side totals from a metrics snapshot.
func (r *benchResult) fillEngine(m metrics.Snapshot) {
	r.WriteAmp = m.WriteAmplification()
	r.BytesIngested = m.BytesIngested
	r.WALBytes = m.WALBytes
	r.FlushBytes = m.FlushBytes
	r.CompactionBytesOut = m.CompactionBytesWritten
	r.AvgCommitGroup = m.AvgCommitGroupSize()
	r.WALSyncs = m.WALSyncs
	r.WALSyncsSaved = m.WALSyncsSaved
	if r.ReadAmp == 0 {
		r.ReadAmp = m.ReadAmplification()
	}
}

// fillReadPath copies the access-path attribution from an interval
// delta of the engine counters (measured phase only, excluding preload
// and warmup).
func (r *benchResult) fillReadPath(d metrics.Snapshot) {
	r.ReadAmp = d.ReadAmplification()
	r.HitRate = 0
	if d.Gets > 0 {
		r.HitRate = float64(d.GetHits) / float64(d.Gets)
	}
	r.FilterNegatives = d.FilterNegatives
	r.FilterFalsePos = d.FilterFalsePos
	r.CacheHits = d.CacheHits
	r.CacheMisses = d.CacheMisses
	r.CacheHitRate = d.CacheHitRate()
	r.BlockReads = d.BlockReads
	r.BlockReadsCached = d.BlockReadsCached
}

// fillLatency copies the percentile summary from a histogram snapshot.
func (r *benchResult) fillLatency(h metrics.HistogramSnapshot) {
	r.P50Ns = h.Quantile(0.5)
	r.P99Ns = h.Quantile(0.99)
	r.P999Ns = h.Quantile(0.999)
	r.MaxNs = h.Max
}

// writeJSON persists the summary (no-op when -json was not given).
func (r *benchResult) writeJSON(path string) error {
	if path == "" {
		return nil
	}
	return writeJSONFile(path, r)
}

func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// writersConfig parameterizes the concurrent write benchmark. The
// shard/shape fields let the pinned baseline reproduce the sharded
// scaling configuration exactly (see runBaseline).
type writersConfig struct {
	writers   int
	ops       int
	valueSize int
	batchSize int
	syncWAL   bool
	syncDelay time.Duration
	dir       string

	shards       int   // shard count of the store (0 and 1 = the flat single tree)
	bufferBytes  int   // 0 = engine default
	sizeRatio    int   // 0 = engine default
	leveled      bool  // force compaction.Leveling{}
	compactionBW int64 // per-compaction write throttle, bytes/sec (0 = unthrottled)
}

// runWriters executes the write benchmark and writes the optional JSON
// summary.
func runWriters(cfg writersConfig, jsonPath string) error {
	res, err := writersBench(cfg, os.Stdout)
	if err != nil {
		return err
	}
	return res.writeJSON(jsonPath)
}

// benchOptions places a bench store: in dir on the OS filesystem when
// given (real fsync latency), else in memory with syncs that take
// syncDelay.
func benchOptions(dir string, syncWAL bool, syncDelay time.Duration) core.Options {
	var fs vfs.FS = vfs.NewOS()
	if dir == "" {
		mem := vfs.NewMem()
		mem.SetSyncDelay(syncDelay)
		fs, dir = mem, "bench-db"
	}
	opts := core.DefaultOptions(fs, dir)
	opts.SyncWAL = syncWAL
	return opts
}

// writersBench drives cfg.writers goroutines over disjoint key ranges
// through one store and reports aggregate throughput plus the commit
// pipeline's coalescing statistics. The default in-memory filesystem
// keeps the numbers about the engine; pass dir to pay real fsync
// latency, which is where group commit coalesces hardest. With
// cfg.shards > 1 each batch is split and committed through per-shard
// pipelines.
func writersBench(cfg writersConfig, w io.Writer) (benchResult, error) {
	if cfg.batchSize < 1 {
		cfg.batchSize = 1
	}
	opts := benchOptions(cfg.dir, cfg.syncWAL, cfg.syncDelay)
	opts.RecordLatencies = true
	if cfg.bufferBytes > 0 {
		opts.BufferBytes = cfg.bufferBytes
	}
	if cfg.sizeRatio > 1 {
		opts.SizeRatio = cfg.sizeRatio
	}
	if cfg.leveled {
		opts.Layout = compaction.Leveling{}
	}
	if cfg.compactionBW > 0 {
		opts.CompactionBandwidthBytesPerSec = cfg.compactionBW
	}
	db, err := partition.Open(opts, cfg.shards)
	if err != nil {
		return benchResult{}, err
	}
	defer db.Close()

	perWriter := cfg.ops / cfg.writers
	var wg sync.WaitGroup
	errs := make([]error, cfg.writers)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for wr := 0; wr < cfg.writers; wr++ {
		wg.Add(1)
		go func(wr int) {
			defer wg.Done()
			val := make([]byte, cfg.valueSize)
			base := int64(wr * perWriter)
			var batch core.Batch
			for i := 0; i < perWriter; i += cfg.batchSize {
				batch.Reset()
				for j := 0; j < cfg.batchSize && i+j < perWriter; j++ {
					batch.Put(workload.Key(base+int64(i+j)), val)
				}
				if err := db.Apply(&batch); err != nil {
					errs[wr] = err
					return
				}
			}
		}(wr)
	}
	wg.Wait()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)
	for _, err := range errs {
		if err != nil {
			return benchResult{}, err
		}
	}

	st := db.Stats()
	m := st.Counters
	total := perWriter * cfg.writers
	fmt.Fprintf(w, "writers=%d ops=%d value=%dB batch=%d sync=%v shards=%d\n",
		cfg.writers, total, cfg.valueSize, cfg.batchSize, cfg.syncWAL, cfg.shards)
	fmt.Fprintf(w, "elapsed=%.2fs throughput=%.0f ops/s\n",
		elapsed.Seconds(), float64(total)/elapsed.Seconds())
	fmt.Fprintf(w, "commit_groups=%d batches=%d avg_group=%.2f wal_syncs=%d syncs_saved=%d\n",
		m.CommitGroups, m.CommitBatches, m.AvgCommitGroupSize(),
		m.WALSyncs, m.WALSyncsSaved)
	if gs := st.Latency.GroupSize; gs.N > 0 {
		fmt.Fprintf(w, "group size: n=%d mean=%.2f max=%d\n", gs.N, gs.Mean(), gs.Max)
	}
	res := benchResult{
		Mode: "writers", Writers: cfg.writers, Shards: cfg.shards,
		Ops: total, ValueBytes: cfg.valueSize,
		BatchSize: cfg.batchSize, SyncWAL: cfg.syncWAL,
		ElapsedSec: elapsed.Seconds(), OpsPerSec: float64(total) / elapsed.Seconds(),
		AllocsPerOp: float64(ms1.Mallocs-ms0.Mallocs) / float64(total),
	}
	res.fillEngine(m)
	res.fillLatency(st.Latency.Put)
	return res, nil
}

// runNet measures put throughput over the wire: conns connections,
// each keeping up to depth requests in flight. With -serve the store
// and server run in this process (so engine coalescing stats are
// reported too); with -addr the target is an external lsmserved.
func runNet(addr, replicas string, conns, ops, valueSize, depth int, syncWAL bool, syncDelay time.Duration, dir, jsonPath string) error {
	if conns < 1 {
		conns = 1
	}
	if depth < 1 {
		depth = 1
	}

	var db *partition.Store
	if addr == "" {
		// -serve: host the bench store in-process, same defaults as
		// -writers mode.
		var err error
		db, err = partition.Open(benchOptions(dir, syncWAL, syncDelay), 0)
		if err != nil {
			return err
		}
		defer db.Close()
		srv := server.New(db, server.Options{})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		serveDone := make(chan error, 1)
		go func() { serveDone <- srv.Serve(ln) }()
		defer func() {
			srv.Shutdown(10 * time.Second)
			<-serveDone
		}()
		addr = ln.Addr().String()
	}

	cl, err := client.Dial(addr, client.Options{PoolSize: conns})
	if err != nil {
		return err
	}
	defer cl.Close()

	perConn := ops / conns
	val := make([]byte, valueSize)
	var wg sync.WaitGroup
	errs := make([]error, conns)
	var lat metrics.Histogram
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			p, err := cl.Pipeline()
			if err != nil {
				errs[c] = err
				return
			}
			base := int64(c * perConn)
			// window holds in-flight futures; latency is enqueue→ack.
			type inflight struct {
				f       *client.Future
				startNs int64
			}
			window := make([]inflight, 0, depth)
			drainOne := func() error {
				in := window[0]
				window = window[1:]
				if err := in.f.Err(); err != nil {
					return err
				}
				lat.RecordSince(in.startNs, time.Now().UnixNano())
				return nil
			}
			for i := 0; i < perConn; i++ {
				if len(window) == depth {
					if err := drainOne(); err != nil {
						errs[c] = err
						return
					}
				}
				f := p.Put(workload.Key(base+int64(i)), val)
				window = append(window, inflight{f, time.Now().UnixNano()})
			}
			for len(window) > 0 {
				if err := drainOne(); err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	total := perConn * conns
	res := benchResult{
		Mode: "net", Conns: conns, Depth: depth, Ops: total, ValueBytes: valueSize,
		SyncWAL:    syncWAL,
		ElapsedSec: elapsed.Seconds(), OpsPerSec: float64(total) / elapsed.Seconds(),
	}
	res.fillLatency(lat.Snapshot())
	fmt.Printf("net conns=%d depth=%d ops=%d value=%dB sync=%v addr=%s\n",
		conns, depth, total, valueSize, syncWAL, addr)
	fmt.Printf("elapsed=%.2fs throughput=%.0f ops/s\n",
		elapsed.Seconds(), float64(total)/elapsed.Seconds())
	fmt.Printf("put latency: %s\n", lat.Snapshot())
	if replicas != "" {
		if err := runReplicaReadback(addr, replicas, conns, total, valueSize); err != nil {
			return err
		}
	}
	if db != nil {
		m := db.Metrics()
		res.fillEngine(m)
		fmt.Printf("commit_groups=%d batches=%d avg_group=%.2f wal_syncs=%d syncs_saved=%d\n",
			m.CommitGroups, m.CommitBatches, m.AvgCommitGroupSize(),
			m.WALSyncs, m.WALSyncsSaved)
		if gs := db.Stats().Latency.GroupSize; gs.N > 0 {
			fmt.Printf("group size: n=%d mean=%.2f max=%d\n", gs.N, gs.Mean(), gs.Max)
		}
	}
	return res.writeJSON(jsonPath)
}

// tenantResult is one tenant's row in the -tenants overload bench:
// offered load, how much of it the server admitted, and the latency of
// the admitted portion.
type tenantResult struct {
	Tenant       string  `json:"tenant"`
	TargetRate   float64 `json:"target_ops_per_sec"`
	Attempted    int     `json:"attempted"`
	Acked        int     `json:"acked"`
	Throttled    int     `json:"throttled"`
	ThrottleRate float64 `json:"throttle_rate"`
	OpsPerSec    float64 `json:"ops_per_sec"` // acked throughput
	P99Ns        int64   `json:"p99_ns"`      // acked put latency

	// RetryAfterNs is the first retry-after hint the server attached to
	// a throttled response (0 when the tenant was never throttled).
	RetryAfterNs int64 `json:"retry_after_ns,omitempty"`
}

// runNetTenants measures overload isolation instead of raw throughput:
// every tenant writes into its own key-prefix namespace against the
// same per-tenant quota, tenant t0 offering 4x its quota and the rest
// staying at half of theirs. A healthy server throttles t0's excess
// (with retry-after hints the bench surfaces rather than sleeps out —
// retries are disabled so every rejection is counted) while the polite
// tenants see no throttles at all. With -serve the quota is enforced by
// an in-process admission controller; with -addr the target server's
// own configuration must match the pacing quota for the numbers to
// mean anything.
func runNetTenants(addr string, tenants int, quotaSpec string, ops, valueSize int, syncWAL bool, syncDelay time.Duration, dir, jsonPath string) error {
	if quotaSpec == "" {
		quotaSpec = "ops=200"
	}
	q, err := admission.ParseQuota(quotaSpec)
	if err != nil {
		return fmt.Errorf("-quota: %w", err)
	}
	if q.OpsPerSec <= 0 {
		return fmt.Errorf("-quota must set ops=N for the -tenants bench")
	}

	var db *partition.Store
	if addr == "" {
		// -serve: host the bench store in-process with the quota applied
		// as the per-tenant default, so every tenant gets its own bucket.
		db, err = partition.Open(benchOptions(dir, syncWAL, syncDelay), 0)
		if err != nil {
			return err
		}
		defer db.Close()
		srv := server.New(db, server.Options{
			Admission: admission.NewController(admission.Config{Default: q}),
		})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		serveDone := make(chan error, 1)
		go func() { serveDone <- srv.Serve(ln) }()
		defer func() {
			srv.Shutdown(10 * time.Second)
			<-serveDone
		}()
		addr = ln.Addr().String()
	}

	// Offered rates: t0 hammers, everyone else stays comfortably under
	// quota. The attempt counts are sized so the total offered load is
	// roughly -ops spread over one shared wall-clock window.
	rates := make([]float64, tenants)
	rates[0] = 4 * q.OpsPerSec
	var sum float64
	for i := range rates {
		if i > 0 {
			rates[i] = q.OpsPerSec / 2
		}
		sum += rates[i]
	}
	window := float64(ops) / sum // seconds

	results := make([]tenantResult, tenants)
	var agg metrics.Histogram
	var wg sync.WaitGroup
	errs := make([]error, tenants)
	start := time.Now()
	for tn := 0; tn < tenants; tn++ {
		wg.Add(1)
		go func(tn int) {
			defer wg.Done()
			// One connection per tenant; retries disabled so every
			// StatusThrottled is observed and counted, not slept out.
			cl, err := client.Dial(addr, client.Options{PoolSize: 1, MaxRetries: -1})
			if err != nil {
				errs[tn] = err
				return
			}
			defer cl.Close()
			rate := rates[tn]
			attempts := int(rate * window)
			if attempts < 1 {
				attempts = 1
			}
			interval := time.Duration(float64(time.Second) / rate)
			prefix := fmt.Sprintf("t%d/", tn)
			val := make([]byte, valueSize)
			var lat metrics.Histogram
			acked, throttled := 0, 0
			var hint time.Duration
			t0 := time.Now()
			for i := 0; i < attempts; i++ {
				// Absolute schedule: pacing does not drift when puts or
				// throttle round-trips are slow.
				if d := time.Until(t0.Add(time.Duration(i) * interval)); d > 0 {
					time.Sleep(d)
				}
				key := append([]byte(prefix), workload.Key(int64(i))...)
				sentNs := time.Now().UnixNano()
				err := cl.Put(key, val)
				switch {
				case errors.Is(err, client.ErrThrottled):
					throttled++
					var te *client.ThrottledError
					if hint == 0 && errors.As(err, &te) {
						hint = te.RetryAfter
					}
				case err != nil:
					errs[tn] = fmt.Errorf("tenant t%d put %d: %w", tn, i, err)
					return
				default:
					acked++
					now := time.Now().UnixNano()
					lat.RecordSince(sentNs, now)
					agg.RecordSince(sentNs, now)
				}
			}
			elapsed := time.Since(t0).Seconds()
			results[tn] = tenantResult{
				Tenant:       fmt.Sprintf("t%d", tn),
				TargetRate:   rate,
				Attempted:    attempts,
				Acked:        acked,
				Throttled:    throttled,
				ThrottleRate: float64(throttled) / float64(attempts),
				OpsPerSec:    float64(acked) / elapsed,
				P99Ns:        lat.Snapshot().Quantile(0.99),
				RetryAfterNs: int64(hint),
			}
		}(tn)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	total, acked := 0, 0
	for _, r := range results {
		total += r.Attempted
		acked += r.Acked
	}
	fmt.Printf("net-tenants tenants=%d quota_ops=%.0f attempted=%d acked=%d value=%dB sync=%v addr=%s\n",
		tenants, q.OpsPerSec, total, acked, valueSize, syncWAL, addr)
	fmt.Printf("elapsed=%.2fs acked throughput=%.0f ops/s\n",
		elapsed.Seconds(), float64(acked)/elapsed.Seconds())
	for _, r := range results {
		fmt.Printf("tenant %s: target=%.0f/s attempted=%d acked=%d throttled=%d throttle_rate=%.2f retry_after=%s acked_rate=%.0f/s p99=%s\n",
			r.Tenant, r.TargetRate, r.Attempted, r.Acked, r.Throttled,
			r.ThrottleRate, time.Duration(r.RetryAfterNs), r.OpsPerSec, time.Duration(r.P99Ns))
	}

	res := benchResult{
		Mode: "net-tenants", Ops: total, ValueBytes: valueSize, SyncWAL: syncWAL,
		ElapsedSec: elapsed.Seconds(), OpsPerSec: float64(acked) / elapsed.Seconds(),
		QuotaOpsPerSec: q.OpsPerSec, Tenants: results,
	}
	res.fillLatency(agg.Snapshot())
	if db != nil {
		res.fillEngine(db.Metrics())
	}
	return res.writeJSON(jsonPath)
}

// runReplicaReadback reads the just-written key space back through the
// replica fan-out client and reports where the reads landed: served by
// a fresh-enough follower, retried on the leader after a stale answer,
// or fallen back after a replica error. Read-your-writes holds
// throughout — a follower answer is only used when its watermark
// dominates the client's write token.
func runReplicaReadback(addr, replicas string, conns, total, valueSize int) error {
	addrs := strings.Split(replicas, ",")
	rcl, err := client.Dial(addr, client.Options{Replicas: addrs, PoolSize: conns})
	if err != nil {
		return err
	}
	defer rcl.Close()
	// One write refreshes the token so the readback is constrained by
	// everything this process wrote.
	if err := rcl.Put(workload.Key(0), make([]byte, valueSize)); err != nil {
		return err
	}
	reads := total
	if reads > 50000 {
		reads = 50000
	}
	perConn := reads / conns
	if perConn == 0 {
		perConn = 1
	}
	var wg sync.WaitGroup
	errs := make([]error, conns)
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perConn; i++ {
				key := workload.Key(int64((c*perConn + i) % total))
				if _, err := rcl.Get(key); err != nil {
					errs[c] = fmt.Errorf("readback %s: %w", key, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	st := rcl.ReplicaStats()
	n := perConn * conns
	fmt.Printf("replica readback: reads=%d elapsed=%.2fs throughput=%.0f ops/s replicas=%d\n",
		n, elapsed.Seconds(), float64(n)/elapsed.Seconds(), len(addrs))
	fmt.Printf("replica readback: served=%d stale_fallback=%d errors=%d\n",
		st.Served, st.Stale, st.Errors)
	return nil
}
