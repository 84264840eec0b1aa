package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"lsmlab/internal/admission"
	"lsmlab/internal/client"
	"lsmlab/internal/core"
	"lsmlab/internal/metrics"
	"lsmlab/internal/partition"
	"lsmlab/internal/server"
	"lsmlab/internal/vfs"
	"lsmlab/internal/vfs/faultfs"
	"lsmlab/internal/workload"
)

// Workload names, in the order BENCHMARK.json lists them.
const (
	wlServeReadHot   = "serve-read-hot"
	wlEmbedReadCold  = "embed-read-cold"
	wlServeWriteSync = "serve-write-sync"
	wlEmbedMixedScan = "embed-mixed-scan"
)

var workloadNames = []string{wlServeReadHot, wlEmbedReadCold, wlServeWriteSync, wlEmbedMixedScan}

// Sizes at scale 1. They fix each data set relative to the cache in
// front of it and are part of the benchmark's definition.
const (
	readHotKeys    = 200_000   // 23 MB of user data under a 64 MiB block cache
	readHotCache   = 64 << 20  //
	readColdKeys   = 500_000   // 58 MB of user data over a 4 MiB block cache
	readColdCache  = 4 << 20   //
	writeSyncSpace = 1_000_000 // keys per tenant; every fourth is preloaded
	writeSyncShard = 2
	writeSyncWin   = 16 // pipelined PUTs in flight per connection
	mixedKeys      = 500_000
	scanLen        = 50
	syncDelay      = 200 * time.Microsecond // modelled fsync on MemFS
	loadBatch      = 128
	loadPace       = 4096 // keys between waits for background work during a load
)

// callerRate sizes the phases of the two workloads that write: a phase
// of d seconds ends once each caller has done callerRate*d operations, or
// after d seconds if that comes first. The rates are about four fifths
// of what the commit that added the benchmark sustains on the 2-core
// calibration box (7 100 and 40 700 per caller), so a run at the
// benchmark's 15 s ingests the same 168 000 PUTs or 960 000 mixed
// operations however fast the program under test is — write_amp and
// space_amp then describe the same volume, and a faster put path does
// not read as a compaction regression — until the program is a fifth
// slower than it was. They are part of the benchmark's definition:
// later PRs do not change them.
var callerRate = map[string]float64{
	wlServeWriteSync: 5_600, // 350 windows of 16 a second
	wlEmbedMixedScan: 32_000,
}

// config is one run's inputs.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// scale shrinks every data set. main sets 1, which is the benchmark;
	// only the smoke test sets a small fraction.
	scale float64
	// outDir receives the span files and the on-disk store.
	outDir string
}

// opLimit is each caller's operation count for a phase capped at d; 0 on
// the read-only workloads, whose phases the clock alone ends.
func (c *config) opLimit(d time.Duration) int64 {
	return int64(callerRate[c.workload] * d.Seconds())
}

func (c *config) scaled(n int) int {
	m := int(float64(n) * c.scale)
	m -= m % 8
	if m < 4096 {
		m = 4096
	}
	return m
}

// bufferBytes is the memtable size: the engine's 1 MiB default at
// scale 1, shrunk with the data so a small-scale run still flushes and
// compacts.
func (c *config) bufferBytes() int {
	return max(32<<10, int(float64(1<<20)*c.scale))
}

// counters is every public counter snapshot a workload's store offers.
type counters struct {
	eng          metrics.Snapshot // engine, summed over shards
	srv          metrics.Snapshot // serving layer; zero when embedded
	admThrottled int64
}

// bench is one workload: it owns the store, the server if there is one,
// and the model its results are checked against.
type bench interface {
	// setup opens the store, loads it, lets background work drain and
	// warms what the workload says is warm.
	setup() error
	// worker returns load goroutine g's executor; traced selects the
	// variant that records client-side spans.
	worker(g int, traced bool) (worker, error)
	// primary is the operation class the workload is built around,
	// whose latency p50_us and p95_us report.
	primary() opClass
	counters() counters
	// settle blocks until background work has drained.
	settle()
	// finish runs after the last phase: end-of-run checks against the
	// model and the RUM numbers that need a quiet store.
	finish(res *result) error
	close() error
}

func newBench(cfg *config, rec *recorder) (bench, error) {
	switch cfg.workload {
	case wlServeReadHot:
		return &readHot{cfg: cfg, rec: rec}, nil
	case wlEmbedReadCold:
		return &readCold{cfg: cfg, rec: rec}, nil
	case wlServeWriteSync:
		return &writeSync{cfg: cfg, rec: rec}, nil
	case wlEmbedMixedScan:
		return &mixedScan{cfg: cfg, rec: rec}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", cfg.workload, workloadNames)
}

// ---------------------------------------------------------------------
// Shared pieces

// instrument puts the span-recording filesystem and the job listener
// on a store about to be opened for a trace run.
func instrument(opts *core.Options, rec *recorder) {
	if rec != nil {
		opts.FS = &traceFS{FS: opts.FS, rec: rec}
		opts.EventListener = rec
	}
}

// loadable is the surface both engine forms offer a loader.
type loadable interface {
	Apply(*core.Batch) error
	WaitIdle()
}

// loadKeys writes version 1 of n keys in a seeded pseudo-random order,
// loadBatch keys per Apply, so the tree's runs overlap the way they do
// after real ingestion. Every loadPace keys — less than one memtable —
// it lets background work drain, so each flush and the compactions it
// triggers finish before the next memtable fills: the tree ends in the
// shape the picker's policy gives this key sequence, not in whichever
// shape this run's race between loader and compactor produced. keyOf
// maps a permuted position to the key index and prefix is prepended to
// every key.
func loadKeys(db loadable, n int, seed int64, prefix string, keyOf func(int) uint32) error {
	// i -> (i*step + off) mod n is a permutation when step and n are coprime.
	step := 2654435761 % n
	for gcd(step, n) != 1 {
		step++
	}
	off := int(uint64(seed) * 7919 % uint64(n))
	var b core.Batch
	key := make([]byte, 0, len(prefix)+keyLen)
	var val [valueLen]byte
	for i := 0; i < n; i++ {
		idx := keyOf((i*step + off) % n)
		key = appendKey(append(key[:0], prefix...), int64(idx))
		fillValue(val[:], idx, 1)
		b.Put(key, val[:])
		if b.Len() == loadBatch || i == n-1 {
			if err := db.Apply(&b); err != nil {
				return fmt.Errorf("load: %w", err)
			}
			b.Reset()
		}
		if (i+1)%loadPace == 0 {
			db.WaitIdle()
		}
	}
	db.WaitIdle()
	return nil
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func identity(i int) uint32 { return uint32(i) }

// served is an in-process server on a loopback port.
type served struct {
	srv  *server.Server
	done chan error
	addr string
}

func serve(e server.Engine, rec *recorder, adm *admission.Controller) (*served, error) {
	if rec != nil {
		e = &tracedEngine{Engine: e, rec: rec}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &served{srv: server.New(e, server.Options{Admission: adm}), done: make(chan error, 1), addr: ln.Addr().String()}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

func (s *served) stop() error {
	err := s.srv.Shutdown(5 * time.Second)
	<-s.done
	return err
}

// dial opens load goroutine's own client: one pooled connection, and on
// a traced pass every request flagged, with a one-slot ring the worker
// drains after each call.
func dial(addr string, traced bool) (*client.Client, error) {
	o := client.Options{PoolSize: 1}
	if traced {
		o.TraceEvery, o.TraceRingSize = 1, 1
	}
	return client.Dial(addr, o)
}

// noteTrace hands the client's record of the request that just
// completed to the recorder.
func noteTrace(rec *recorder, cl *client.Client, start, end int64) {
	if t := cl.Traces(); len(t) == 1 {
		rec.addClient(clientRecord{req: t[0].TraceID, start: start, end: end, serverNs: t[0].ServerNs})
	}
}

// flusher is what rum needs of a quiet store.
type flusher interface {
	Flush() error
	DiskUsageBytes() uint64
}

// writeAmp is bytes written to storage (WAL, flushes, compactions) per
// user byte ingested, over the store's life so far: the load, whose
// volume is fixed, and the phases, whose volume callerRate fixes.
func writeAmp(c counters) float64 {
	return ratio(c.eng.WALBytes+c.eng.FlushBytes+c.eng.CompactionBytesWritten, c.eng.BytesIngested)
}

// spaceAmp flushes the memtable, so that every live byte is in a table,
// and divides table bytes by the model's live user bytes.
func spaceAmp(db flusher, liveBytes int64) (float64, error) {
	if err := db.Flush(); err != nil {
		return 0, fmt.Errorf("flush for space_amp: %w", err)
	}
	return ratio(int64(db.DiskUsageBytes()), liveBytes), nil
}

// ---------------------------------------------------------------------
// serve-read-hot

type readHot struct {
	cfg     *config
	rec     *recorder
	n       int
	db      *core.DB
	sv      *served
	streams streams
}

func (b *readHot) setup() error {
	b.n = b.cfg.scaled(readHotKeys)
	opts := core.DefaultOptions(vfs.NewMem(), "db")
	opts.CacheBytes = readHotCache
	opts.BufferBytes = b.cfg.bufferBytes()
	instrument(&opts, b.rec)
	db, err := core.Open(opts)
	if err != nil {
		return err
	}
	b.db = db
	if err := loadKeys(db, b.n, b.cfg.seed, "", identity); err != nil {
		return err
	}
	if err := db.Compact(); err != nil {
		return err
	}
	// Every key once, so the timed phase never misses the block cache.
	key := make([]byte, 0, keyLen)
	for i := 0; i < b.n; i++ {
		key = appendKey(key[:0], int64(i))
		if _, err := db.Get(key); err != nil {
			return fmt.Errorf("warm get %s: %w", key, err)
		}
	}
	b.sv, err = serve(db, b.rec, nil)
	return err
}

func (b *readHot) worker(g int, traced bool) (worker, error) {
	cl, err := dial(b.sv.addr, traced)
	if err != nil {
		return nil, err
	}
	w := &hotWorker{cl: cl, s: b.streams.get(g, func() stream {
		return genStream(workload.Config{Seed: subSeed(b.cfg.seed, g), KeySpace: int64(b.n),
			Distribution: workload.Zipfian, Mix: workload.MixC}, nil, b.cfg.streamLen())
	})}
	if traced {
		w.rec = b.rec
	}
	return w, nil
}

func (b *readHot) counters() counters {
	return counters{eng: b.db.Metrics(), srv: b.sv.srv.Metrics()}
}

func (b *readHot) primary() opClass { return classGet }

func (b *readHot) settle() { b.db.WaitIdle() }

func (b *readHot) finish(res *result) (err error) {
	res.writeAmp = writeAmp(b.counters())
	res.spaceAmp, err = spaceAmp(b.db, int64(b.n)*(keyLen+valueLen))
	return err
}

func (b *readHot) close() error {
	var err error
	if b.sv != nil {
		err = b.sv.stop()
	}
	if b.db != nil {
		err = errors.Join(err, b.db.Close())
	}
	return err
}

type hotWorker struct {
	cl      *client.Client
	rec     *recorder // non-nil on the traced pass
	s       stream
	pos     int
	key     []byte
	scratch [valueLen]byte
}

func (w *hotWorker) step(st *stats) int64 {
	idx := w.s.idx[w.pos]
	if w.pos++; w.pos == len(w.s.idx) {
		w.pos = 0
	}
	w.key = appendKey(w.key[:0], int64(idx))
	t0 := nowNs()
	v, err := w.cl.Get(w.key)
	t1 := nowNs()
	st.lat[classGet].record(t1 - t0)
	st.ops++
	if ver, ok := checkValue(v, idx, &w.scratch); err != nil || !ok || ver != 1 {
		st.failed++
	}
	if w.rec != nil {
		noteTrace(w.rec, w.cl, t0, t1)
	}
	return t1
}

func (w *hotWorker) close() { w.cl.Close() }

// ---------------------------------------------------------------------
// embed-read-cold

type readCold struct {
	cfg     *config
	rec     *recorder
	n       int
	dir     string
	db      *core.DB
	eng     embedded
	streams streams
}

var absentSuffix = []byte("-absent") // what internal/workload appends to zero-result keys

func (b *readCold) setup() error {
	b.n = b.cfg.scaled(readColdKeys)
	b.dir = filepath.Join(b.cfg.outDir, fmt.Sprintf("store-%s-%d", wlEmbedReadCold, os.Getpid()))
	if err := os.RemoveAll(b.dir); err != nil {
		return err
	}
	if err := os.MkdirAll(b.dir, 0o755); err != nil {
		return err
	}
	opts := core.DefaultOptions(vfs.NewOS(), b.dir)
	opts.CacheBytes = readColdCache
	opts.BufferBytes = b.cfg.bufferBytes()
	instrument(&opts, b.rec)
	db, err := core.Open(opts)
	if err != nil {
		return err
	}
	b.db, b.eng = db, db
	if b.rec != nil {
		b.eng = &tracedDB{db: db, rec: b.rec}
	}
	// No manual compaction: the tree keeps the runs ingestion left it.
	return loadKeys(db, b.n, b.cfg.seed, "", identity)
}

func (b *readCold) worker(g int, traced bool) (worker, error) {
	return &coldWorker{eng: b.eng, s: b.streams.get(g, func() stream {
		return genStream(workload.Config{Seed: subSeed(b.cfg.seed, g), KeySpace: int64(b.n),
			Distribution: workload.Uniform, Mix: workload.Mix{Gets: 0.5, GetZeros: 0.5}}, nil, b.cfg.streamLen())
	})}, nil
}

func (b *readCold) counters() counters {
	return counters{eng: b.db.Metrics()}
}

func (b *readCold) primary() opClass { return classGet }

func (b *readCold) settle() { b.db.WaitIdle() }

func (b *readCold) finish(res *result) (err error) {
	res.writeAmp = writeAmp(b.counters())
	res.spaceAmp, err = spaceAmp(b.db, int64(b.n)*(keyLen+valueLen))
	return err
}

func (b *readCold) close() error {
	var err error
	if b.db != nil {
		err = b.db.Close()
	}
	if b.dir != "" {
		err = errors.Join(err, os.RemoveAll(b.dir))
	}
	return err
}

type coldWorker struct {
	eng     embedded
	s       stream
	pos     int
	key     []byte
	scratch [valueLen]byte
}

func (w *coldWorker) step(st *stats) int64 {
	idx, kind := w.s.idx[w.pos], workload.OpKind(w.s.kind[w.pos])
	if w.pos++; w.pos == len(w.s.idx) {
		w.pos = 0
	}
	w.key = appendKey(w.key[:0], int64(idx))
	absent, class := kind == workload.OpGetZero, classGet
	if absent {
		w.key = append(w.key, absentSuffix...)
		class = classGetZero
	}
	t0 := nowNs()
	v, err := w.eng.Get(w.key)
	t1 := nowNs()
	st.lat[class].record(t1 - t0)
	st.ops++
	if absent {
		if !errors.Is(err, core.ErrNotFound) {
			st.failed++
		}
	} else if ver, ok := checkValue(v, idx, &w.scratch); err != nil || !ok || ver != 1 {
		st.failed++
	}
	return t1
}

func (w *coldWorker) close() {}

// ---------------------------------------------------------------------
// serve-write-sync

type writeSync struct {
	cfg   *config
	rec   *recorder
	space int
	mem   *vfs.MemFS
	ffs   *faultfs.FS
	opts  core.Options
	store *partition.Store
	adm   *admission.Controller
	sv    *served
	// ver[g][i] is the last version tenant g's connection put for key i
	// (0 = never written). Each slice has one writer: load goroutine g.
	ver     [loaders][]uint32
	workers [loaders]*syncWorker
}

func tenantPrefix(g int) string { return fmt.Sprintf("t%d/", g) }

func (b *writeSync) setup() error {
	b.space = b.cfg.scaled(writeSyncSpace)
	b.mem = vfs.NewMem()
	b.ffs = faultfs.New(b.mem, b.cfg.seed)
	b.opts = core.DefaultOptions(b.ffs, "ws")
	b.opts.SyncWAL = true
	b.opts.BufferBytes = b.cfg.bufferBytes()
	instrument(&b.opts, b.rec)
	store, err := partition.Open(b.opts, writeSyncShard)
	if err != nil {
		return err
	}
	b.store = store
	// Preload every fourth key of each tenant with free syncs, then
	// switch the modelled fsync on for everything that follows.
	for g := 0; g < loaders; g++ {
		b.ver[g] = make([]uint32, b.space)
		err := loadKeys(store, b.space/4, b.cfg.seed+int64(g), tenantPrefix(g), func(i int) uint32 {
			b.ver[g][4*i] = 1
			return uint32(4 * i)
		})
		if err != nil {
			return err
		}
	}
	b.mem.SetSyncDelay(syncDelay)
	// Enforcing, but far above what two connections can offer.
	roomy := admission.Quota{OpsPerSec: 1e7, BytesPerSec: 1e10}
	b.adm = admission.NewController(admission.Config{Tenants: map[string]admission.Quota{"t0": roomy, "t1": roomy}})
	b.sv, err = serve(store, b.rec, b.adm)
	return err
}

func (b *writeSync) worker(g int, traced bool) (worker, error) {
	cl, err := dial(b.sv.addr, traced)
	if err != nil {
		return nil, err
	}
	w := b.workers[g]
	if w == nil {
		s := genStream(workload.Config{Seed: subSeed(b.cfg.seed, g), KeySpace: int64(b.space),
			Distribution: workload.Uniform, Mix: workload.MixLoad}, nil, b.cfg.streamLen())
		w = &syncWorker{s: s, ver: b.ver[g], prefix: tenantPrefix(g)}
		b.workers[g] = w
	}
	// The traced pass continues the same stream and model.
	w.cl, w.rec = cl, nil
	if traced {
		w.rec = b.rec
	}
	if w.pipe, err = cl.Pipeline(); err != nil {
		return nil, err
	}
	return w, nil
}

func (b *writeSync) counters() counters {
	c := counters{eng: b.store.Metrics()}
	if b.sv != nil {
		c.srv = b.sv.srv.Metrics()
	}
	for _, t := range b.adm.Stats() {
		c.admThrottled += t.Throttled
	}
	return c
}

func (b *writeSync) primary() opClass { return classPut }

func (b *writeSync) settle() { b.store.WaitIdle() }

// finish is the durability check: power is cut (unsynced bytes are
// dropped), the store reopens by deriving its shard count, and every
// acknowledged PUT must read back with its last acknowledged value.
func (b *writeSync) finish(res *result) error {
	if err := b.sv.stop(); err != nil {
		return err
	}
	b.sv = nil
	b.store.WaitIdle()
	var live int64
	for g := range b.ver {
		for _, v := range b.ver[g] {
			if v != 0 {
				live += int64(len(tenantPrefix(g)) + keyLen + valueLen)
			}
		}
	}
	res.writeAmp = writeAmp(b.counters())

	b.mem.SetSyncDelay(0)
	if err := b.ffs.Crash(); err != nil {
		return fmt.Errorf("crash: %w", err)
	}
	b.store = nil // abandoned, as a crashed process's handles are
	t0 := time.Now()
	store, err := partition.Open(b.opts, 0)
	if err != nil {
		return fmt.Errorf("reopen after crash: %w", err)
	}
	res.reopenS = time.Since(t0).Seconds()
	b.store = store
	if n := store.NumShards(); n != writeSyncShard {
		return fmt.Errorf("reopen derived %d shards, want %d", n, writeSyncShard)
	}
	// Every key put over the wire, and a sixteenth of the untouched
	// preloaded ones.
	var scratch [valueLen]byte
	key := make([]byte, 0, 32)
	for g := range b.ver {
		for i, v := range b.ver[g] {
			preloadedOnly := v == 1 && i%4 == 0
			if v == 0 || (preloadedOnly && i%64 != 0) {
				continue
			}
			key = appendKey(append(key[:0], tenantPrefix(g)...), int64(i))
			got, err := store.Get(key)
			res.attempted++
			if ver, ok := checkValue(got, uint32(i), &scratch); err != nil || !ok || ver != v {
				res.failed++
			}
		}
	}
	res.spaceAmp, err = spaceAmp(store, live)
	return err
}

func (b *writeSync) close() error {
	var err error
	if b.sv != nil {
		err = b.sv.stop()
	}
	if b.store != nil {
		err = errors.Join(err, b.store.Close())
	}
	return err
}

type syncWorker struct {
	cl     *client.Client
	pipe   *client.Pipeline
	rec    *recorder
	s      stream
	pos    int
	ver    []uint32
	prefix string
	key    []byte
	val    [valueLen]byte
	futs   [writeSyncWin]*client.Future
	sent   [writeSyncWin]int64
}

func (w *syncWorker) next() uint32 {
	idx := w.s.idx[w.pos]
	if w.pos++; w.pos == len(w.s.idx) {
		w.pos = 0
	}
	w.ver[idx]++
	w.key = appendKey(append(w.key[:0], w.prefix...), int64(idx))
	fillValue(w.val[:], idx, w.ver[idx])
	return idx
}

func (w *syncWorker) step(st *stats) int64 {
	futs := w.futs[:]
	if w.rec != nil {
		futs = futs[:writeSyncWin-1]
	}
	for j := range futs {
		w.next()
		w.sent[j] = nowNs()
		futs[j] = w.pipe.Put(w.key, w.val[:])
	}
	var flushErr error
	if w.rec == nil {
		flushErr = w.pipe.Flush()
	} else {
		// Traced pass: internal/client flags only blocking calls, so the
		// window's last PUT is one. Its send flushes the fifteen buffered
		// before it — the connection still has sixteen in flight and the
		// server still folds — and it is answered last.
		w.next()
		t0 := nowNs()
		err := w.cl.Put(w.key, w.val[:])
		t1 := nowNs()
		st.lat[classPut].record(t1 - t0)
		st.ops++
		if err != nil {
			st.failed++
		}
		noteTrace(w.rec, w.cl, t0, t1)
	}
	var now int64
	for j, f := range futs {
		ferr := f.Err()
		now = nowNs()
		st.lat[classPut].record(now - w.sent[j])
		st.ops++
		if ferr != nil || flushErr != nil {
			st.failed++
		}
	}
	return now
}

func (w *syncWorker) close() { w.cl.Close() }

// ---------------------------------------------------------------------
// embed-mixed-scan

type mixedScan struct {
	cfg     *config
	rec     *recorder
	n       int
	db      *core.DB
	eng     embedded
	model   *versions
	streams streams
}

func (b *mixedScan) setup() error {
	b.n = b.cfg.scaled(mixedKeys)
	opts := core.DefaultOptions(vfs.NewMem(), "db")
	opts.BufferBytes = b.cfg.bufferBytes()
	instrument(&opts, b.rec)
	db, err := core.Open(opts)
	if err != nil {
		return err
	}
	b.db, b.eng = db, db
	if b.rec != nil {
		b.eng = &tracedDB{db: db, rec: b.rec}
	}
	b.model = newVersions(b.n, mkState(1, false))
	return loadKeys(db, b.n, b.cfg.seed, "", identity)
}

func (b *mixedScan) worker(g int, traced bool) (worker, error) {
	s := b.streams.get(g, func() stream {
		seed := subSeed(b.cfg.seed, g)
		mix := workload.Config{Seed: seed, KeySpace: int64(b.n), Distribution: workload.Uniform,
			Mix: workload.Mix{Puts: 0.45, Deletes: 0.05, ScanShort: 0.30, Gets: 0.20}, ShortScanLen: scanLen}
		gets := workload.Config{Seed: seed + 1, KeySpace: int64(b.n), Distribution: workload.Zipfian, Mix: workload.MixC}
		return genStream(mix, &gets, b.cfg.streamLen())
	})
	return &mixedWorker{eng: b.eng, m: b.model, n: uint32(b.n), parity: uint32(g), s: s}, nil
}

func (b *mixedScan) counters() counters {
	return counters{eng: b.db.Metrics()}
}

func (b *mixedScan) primary() opClass { return classScan }

func (b *mixedScan) settle() { b.db.WaitIdle() }

func (b *mixedScan) finish(res *result) error {
	b.db.WaitIdle()
	var live int64
	var scratch [valueLen]byte
	key := make([]byte, 0, keyLen)
	for i := range b.model.acked {
		s := keyState(b.model.acked[i].Load())
		if s.live() {
			live += keyLen + valueLen
		}
		if i%4 != 0 {
			continue
		}
		// The store is quiet, so the model is exact.
		key = appendKey(key[:0], int64(i))
		v, err := b.db.Get(key)
		res.attempted++
		if err != nil && !errors.Is(err, core.ErrNotFound) || !consistent(uint32(i), err == nil, v, s, s, &scratch) {
			res.failed++
		}
	}
	res.writeAmp = writeAmp(b.counters())
	var err error
	res.spaceAmp, err = spaceAmp(b.db, live)
	return err
}

func (b *mixedScan) close() error {
	if b.db == nil {
		return nil
	}
	return b.db.Close()
}

type mixedWorker struct {
	eng      embedded
	m        *versions
	n        uint32
	parity   uint32 // this goroutine writes keys with idx%2 == parity
	s        stream
	pos      int
	key, end []byte
	val      [valueLen]byte
	scratch  [valueLen]byte
	before   [scanLen]keyState
}

func (w *mixedWorker) step(st *stats) int64 {
	idx, kind := w.s.idx[w.pos], workload.OpKind(w.s.kind[w.pos])
	if w.pos++; w.pos == len(w.s.idx) {
		w.pos = 0
	}
	st.ops++
	switch kind {
	case workload.OpPut, workload.OpDelete:
		if idx&1 != w.parity {
			idx ^= 1
		}
		w.key = appendKey(w.key[:0], int64(idx))
		del := kind == workload.OpDelete
		next := mkState(keyState(w.m.acked[idx].Load()).ver()+1, del)
		w.m.pend[idx].Store(uint32(next))
		var err error
		var t0, t1 int64
		if del {
			t0 = nowNs()
			err = w.eng.Delete(w.key)
			t1 = nowNs()
		} else {
			fillValue(w.val[:], idx, next.ver())
			t0 = nowNs()
			err = w.eng.Put(w.key, w.val[:])
			t1 = nowNs()
		}
		w.m.acked[idx].Store(uint32(next))
		st.lat[classPut].record(t1 - t0)
		if err != nil {
			st.failed++
		}
		return t1

	case workload.OpGet:
		w.key = appendKey(w.key[:0], int64(idx))
		before := keyState(w.m.acked[idx].Load())
		t0 := nowNs()
		v, err := w.eng.Get(w.key)
		t1 := nowNs()
		after := keyState(w.m.pend[idx].Load())
		st.lat[classGet].record(t1 - t0)
		if err != nil && !errors.Is(err, core.ErrNotFound) || !consistent(idx, err == nil, v, before, after, &w.scratch) {
			st.failed++
		}
		return t1

	default: // scan of [idx, idx+scanLen)
		end := idx + scanLen
		if end > w.n {
			end = w.n
		}
		w.key = appendKey(w.key[:0], int64(idx))
		w.end = appendKey(w.end[:0], int64(end))
		for j := idx; j < end; j++ {
			w.before[j-idx] = keyState(w.m.acked[j].Load())
		}
		t0 := nowNs()
		kvs, err := w.eng.Scan(w.key, w.end, scanLen)
		t1 := nowNs()
		st.lat[classScan].record(t1 - t0)
		if err != nil || !w.checkScan(kvs, idx, end) {
			st.failed++
		}
		return t1
	}
}

// checkScan verifies order, bounds and length of a scan of [lo, hi),
// each returned value, and that every key left out could be absent.
func (w *mixedWorker) checkScan(kvs []core.KV, lo, hi uint32) bool {
	if len(kvs) > scanLen {
		return false
	}
	j := lo // next index not yet accounted for
	for _, e := range kvs {
		k64, ok := parseKey(e.Key)
		k := uint32(k64)
		if !ok || len(e.Key) != keyLen || k < j || k >= hi {
			return false
		}
		for ; j < k; j++ {
			if !consistent(j, false, nil, w.before[j-lo], keyState(w.m.pend[j].Load()), &w.scratch) {
				return false
			}
		}
		if !consistent(k, true, e.Value, w.before[k-lo], keyState(w.m.pend[k].Load()), &w.scratch) {
			return false
		}
		j = k + 1
	}
	for ; j < hi; j++ {
		if !consistent(j, false, nil, w.before[j-lo], keyState(w.m.pend[j].Load()), &w.scratch) {
			return false
		}
	}
	return true
}

func (w *mixedWorker) close() {}
