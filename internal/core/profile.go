package core

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"lsmlab/internal/admission"
	"lsmlab/internal/metrics"
	"lsmlab/internal/sketch"
)

// This file is the engine's self-dissection layer (tutorial Module III,
// ROADMAP item 2): a sampling profiler that characterizes the live
// workload — operation mix, hot keys, skew, distinct-key cardinality,
// per-tenant mix — and attributes I/O to the level it touched, from
// which the engine reports its measured RUM point (read, write, and
// space amplification over a decay window). The online tuning loop and
// the observability surfaces (/workload, lsmctl workload, /metrics)
// consume the resulting WorkloadProfile.
//
// Cost discipline: an unsampled get pays the profiler nothing (its
// sampling decision reuses the Gets counter increment); unsampled puts
// and scans pay one striped atomic increment. One op in profSample
// feeds the sketches, all of which update pre-allocated state without
// allocating (TestGetHotZeroAllocs and the profiler-overhead guard in
// bench-smoke enforce this).

const (
	profStripes     = 16 // striped op counters; stripe = keyhash & 15
	profSampleShift = 5
	profSample      = 1 << profSampleShift // observe 1 op in 32
	profTopK        = 16                   // hot keys reported
	profMaxTenants  = 64                   // per-tenant rows tracked, rest fold into "other"
)

// profOp indexes the per-tenant operation-kind counters.
type profOp int

const (
	profGet profOp = iota
	profPut
	profDelete
	profScan
	numProfOps
)

// Compaction write reasons attributed per level. Indices into
// levelIO.writeBytes; names must match compaction.Reason strings.
const (
	reasonFlush = iota
	reasonRunCount
	reasonLevelSize
	reasonTombstoneAge
	reasonManual
	reasonOther
	numReasons
)

var reasonNames = [numReasons]string{
	"flush", "run-count", "level-size", "tombstone-age", "manual", "other",
}

func reasonIndex(r string) int {
	for i, n := range reasonNames {
		if n == r {
			return i
		}
	}
	return reasonOther
}

// stripe is a cache-line-padded operation counter.
type stripe struct {
	n atomic.Uint64
	_ [56]byte
}

// levelIO holds one level's attribution counters, padded so adjacent
// levels do not false-share cache lines under concurrent readers.
type levelIO struct {
	runsProbed       atomic.Int64 // get-path runs consulted at this level
	blockReads       atomic.Int64 // data blocks fetched (get + scan paths)
	blockReadsCached atomic.Int64
	readBytes        atomic.Int64             // uncached data-block bytes read from disk
	compactionIn     atomic.Int64             // bytes read as compaction input from this level
	writeBytes       [numReasons]atomic.Int64 // bytes written into this level, per reason
	_                [16]byte
}

// levelIOSnap is a plain copy of levelIO at one instant.
type levelIOSnap struct {
	runsProbed, blockReads, blockReadsCached, readBytes, compactionIn int64
	writeBytes                                                        [numReasons]int64
}

func (l *levelIO) snap() levelIOSnap {
	s := levelIOSnap{
		runsProbed:       l.runsProbed.Load(),
		blockReads:       l.blockReads.Load(),
		blockReadsCached: l.blockReadsCached.Load(),
		readBytes:        l.readBytes.Load(),
		compactionIn:     l.compactionIn.Load(),
	}
	for i := range s.writeBytes {
		s.writeBytes[i] = l.writeBytes[i].Load()
	}
	return s
}

func (s levelIOSnap) sub(o levelIOSnap) levelIOSnap {
	d := levelIOSnap{
		runsProbed:       s.runsProbed - o.runsProbed,
		blockReads:       s.blockReads - o.blockReads,
		blockReadsCached: s.blockReadsCached - o.blockReadsCached,
		readBytes:        s.readBytes - o.readBytes,
		compactionIn:     s.compactionIn - o.compactionIn,
	}
	for i := range d.writeBytes {
		d.writeBytes[i] = s.writeBytes[i] - o.writeBytes[i]
	}
	return d
}

// tenantCounts is one tenant's sampled operation counts (decayed by
// half at every window rotation, like the sketches).
type tenantCounts struct {
	name string
	ops  [numProfOps]uint64
}

func (t *tenantCounts) total() uint64 {
	var s uint64
	for _, v := range t.ops {
		s += v
	}
	return s
}

// tenantTable is a bounded space-saving table of per-tenant mixes: a
// new tenant beyond the cap evicts the lowest-traffic row, folding its
// counts into the "other" bucket, so a hostile flood of distinct key
// prefixes cannot grow profiler memory (satellite of the same
// cardinality bound admission.Controller enforces). Lookups for
// tracked tenants are allocation-free.
type tenantTable struct {
	mu    sync.Mutex
	max   int
	m     map[string]*tenantCounts
	other tenantCounts
}

func newTenantTable(max int) *tenantTable {
	return &tenantTable{max: max, m: make(map[string]*tenantCounts, max)}
}

// observe credits inc sampled ops of kind op to key's tenant prefix.
// The prefix scan mirrors admission.TenantOf without its allocation.
func (t *tenantTable) observe(key []byte, op profOp, inc uint64) {
	tenant := key[:0]
	for i, b := range key {
		if b == '/' {
			tenant = key[:i]
			break
		}
	}
	t.mu.Lock()
	if e := t.m[string(tenant)]; e != nil {
		e.ops[op] += inc
		t.mu.Unlock()
		return
	}
	if len(t.m) < t.max {
		name := string(tenant)
		e := &tenantCounts{name: name}
		e.ops[op] = inc
		t.m[name] = e
		t.mu.Unlock()
		return
	}
	// Evict the minimum-traffic row into "other"; the newcomer gets a
	// fresh row (space-saving: a persistently busy tenant always ends up
	// tracked, one-shot prefixes churn through the last slot).
	var min *tenantCounts
	for _, e := range t.m {
		if min == nil || e.total() < min.total() {
			min = e
		}
	}
	delete(t.m, min.name)
	for i, v := range min.ops {
		t.other.ops[i] += v
	}
	name := string(tenant)
	e := &tenantCounts{name: name}
	e.ops[op] = inc
	t.m[name] = e
	t.mu.Unlock()
}

// halve decays every row (rotation-time exponential decay).
func (t *tenantTable) halve() {
	t.mu.Lock()
	for name, e := range t.m {
		var total uint64
		for i := range e.ops {
			e.ops[i] /= 2
			total += e.ops[i]
		}
		if total == 0 {
			delete(t.m, name)
		}
	}
	for i := range t.other.ops {
		t.other.ops[i] /= 2
	}
	t.mu.Unlock()
}

// rows returns the tracked tenants sorted by descending traffic, with
// the "other" bucket appended when non-empty.
func (t *tenantTable) rows() []TenantWorkload {
	t.mu.Lock()
	out := make([]TenantWorkload, 0, len(t.m)+1)
	for _, e := range t.m {
		out = append(out, tenantRow(e))
	}
	var other *TenantWorkload
	if t.other.total() > 0 {
		r := tenantRow(&t.other)
		r.Tenant = "other"
		other = &r
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Ops != out[j].Ops {
			return out[i].Ops > out[j].Ops
		}
		return out[i].Tenant < out[j].Tenant
	})
	if other != nil {
		out = append(out, *other)
	}
	return out
}

func tenantRow(e *tenantCounts) TenantWorkload {
	name := e.name
	if name == admission.DefaultTenant {
		name = "(default)" // matches the tenant rows of Stats.Text
	}
	return TenantWorkload{
		Tenant:  name,
		Gets:    int64(e.ops[profGet]),
		Puts:    int64(e.ops[profPut]),
		Deletes: int64(e.ops[profDelete]),
		Scans:   int64(e.ops[profScan]),
		Ops:     int64(e.total()),
	}
}

// profSnap pairs a metrics snapshot with the per-level counters at one
// window rotation.
type profSnap struct {
	m      metrics.Snapshot
	levels []levelIOSnap
}

// profiler is the engine's live workload characterizer.
type profiler struct {
	m       *metrics.Metrics
	stripes [profStripes]stripe
	win     *sketch.Window
	levels  []levelIO
	tenants *tenantTable

	// snapMu guards the rotation snapshots: snaps[0] was taken at the
	// most recent rotation, snaps[1] one rotation earlier. Windowed
	// values are current − snaps[1], covering one to two half-lives —
	// the same horizon the sketch generations cover.
	snapMu sync.Mutex
	snaps  [2]profSnap
}

func newProfiler(m *metrics.Metrics, numLevels, windowOps int) *profiler {
	p := &profiler{
		m:       m,
		levels:  make([]levelIO, numLevels),
		tenants: newTenantTable(profMaxTenants),
		win: sketch.NewWindow(sketch.WindowConfig{
			HalfLifeOps: uint64(windowOps),
			K:           2 * profTopK, // track extra so the merged report stays full
		}),
	}
	p.win.OnRotate = func(uint64) {
		p.snapMu.Lock()
		p.snaps[1] = p.snaps[0]
		p.snaps[0] = p.snapNow()
		p.snapMu.Unlock()
		p.tenants.halve()
	}
	return p
}

func (p *profiler) snapNow() profSnap {
	s := profSnap{m: p.m.Snapshot(), levels: make([]levelIOSnap, len(p.levels))}
	for i := range p.levels {
		s.levels[i] = p.levels[i].snap()
	}
	return s
}

// profSampled reports whether the n-th tick of an op clock is sampled.
// Multiplicative (Weyl) hashing of the counter selects an aperiodic
// 1-in-profSample subset: a plain n%profSample==0 rule lets any
// workload whose key pattern repeats with a period dividing profSample
// (alternating benchmark loops, round-robin writers) systematically
// dodge or monopolize the sampler.
func profSampled(n uint64) bool {
	return (n*0x9e3779b97f4a7c15)>>(64-profSampleShift) == 0
}

// tick advances the put/scan-path op clock and reports whether this
// operation is sampled; the get path derives its sampling decision
// from the Gets counter it already increments, so its unsampled path
// pays the profiler no atomics at all (the bench-smoke overhead
// budget).
func (p *profiler) tick(h uint64) bool {
	return profSampled(p.stripes[h&(profStripes-1)].n.Add(1))
}

// observe feeds one sampled operation to the sketches and the tenant
// table, weighted by the sampling factor. Call only when tick returned
// true. Allocation-free in steady state.
func (p *profiler) observe(op profOp, h uint64, key []byte) {
	p.win.Observe(h, key, profSample)
	p.tenants.observe(key, op, profSample)
}

// recordWrite attributes bytes written into level for the given
// compaction reason ("flush" for memtable flushes).
func (p *profiler) recordWrite(level int, reason string, bytes int64) {
	if level >= 0 && level < len(p.levels) {
		p.levels[level].writeBytes[reasonIndex(reason)].Add(bytes)
	}
}

// recordCompactionIn attributes bytes read as compaction input from
// level.
func (p *profiler) recordCompactionIn(level int, bytes int64) {
	if level >= 0 && level < len(p.levels) {
		p.levels[level].compactionIn.Add(bytes)
	}
}

// baseline returns the snapshot two rotations back (the start of the
// decay window); before the first rotation it is the zero snapshot.
func (p *profiler) baseline() profSnap {
	p.snapMu.Lock()
	defer p.snapMu.Unlock()
	return p.snaps[1]
}

// ---- Reported profile ----

// TenantWorkload is one tenant's sampled recent operation mix.
// Counts are sampling-scaled estimates decayed across window
// rotations, not exact totals.
type TenantWorkload struct {
	Tenant  string `json:"tenant"`
	Gets    int64  `json:"gets"`
	Puts    int64  `json:"puts"`
	Deletes int64  `json:"deletes"`
	Scans   int64  `json:"scans"`
	Ops     int64  `json:"ops"`
}

// LevelProfile is one level's I/O attribution over the decay window.
type LevelProfile struct {
	Level            int   `json:"level"`
	LiveRuns         int   `json:"live_runs"`
	RunsProbed       int64 `json:"runs_probed"`
	BlockReads       int64 `json:"block_reads"`
	BlockReadsCached int64 `json:"block_reads_cached"`
	BytesRead        int64 `json:"bytes_read"`
	// ReadAmp is this level's contribution to read amplification: runs
	// probed here per point lookup, over the window.
	ReadAmp float64 `json:"read_amp"`
	// BytesWritten is the total written into this level over the
	// window; WriteByReason splits it by trigger (flush, run-count,
	// level-size, tombstone-age, manual).
	BytesWritten      int64            `json:"bytes_written"`
	WriteByReason     map[string]int64 `json:"write_by_reason,omitempty"`
	CompactionBytesIn int64            `json:"compaction_bytes_in"`
}

// WorkloadProfile is the engine's measured view of its recent workload
// and cost: the input the paper's workload-aware tuning (Monkey,
// Endure) assumes, produced live. All windowed fields cover the last
// one to two profile half-lives (Options.ProfileWindowOps).
type WorkloadProfile struct {
	Enabled   bool   `json:"enabled"`
	WindowOps int64  `json:"window_ops"` // sampled-weight ops in the window
	Rotations uint64 `json:"rotations"`

	// Operation mix over the window (exact counts from engine metrics).
	Gets    int64 `json:"gets"`
	Puts    int64 `json:"puts"`
	Deletes int64 `json:"deletes"`
	Scans   int64 `json:"scans"`
	// ScanEntries and MeanScanLen describe range-scan shape.
	ScanEntries int64   `json:"scan_entries"`
	MeanScanLen float64 `json:"mean_scan_len"`
	// IngestedBytes is user key+value bytes accepted over the window.
	IngestedBytes int64 `json:"ingested_bytes"`

	// Key-distribution estimates from the sketches.
	DistinctKeys int64            `json:"distinct_keys"`
	TopKeys      []sketch.HotKey  `json:"top_keys,omitempty"`
	TopShare     float64          `json:"top_share"` // share of traffic on TopKeys
	ZipfS        float64          `json:"zipf_s"`    // fitted zipf exponent (0 ≈ uniform)
	Tenants      []TenantWorkload `json:"tenants,omitempty"`

	// The measured RUM point over the window.
	ReadAmp  float64 `json:"read_amp"`  // runs probed per point lookup
	WriteAmp float64 `json:"write_amp"` // (flush+compaction bytes) / ingested bytes
	SpaceAmp float64 `json:"space_amp"` // total tree bytes / deepest-level bytes (gauge)
	// SpaceBytesTotal/Deepest are SpaceAmp's terms, kept so sharded
	// aggregation can recompute the ratio exactly.
	SpaceBytesTotal   int64 `json:"space_bytes_total"`
	SpaceBytesDeepest int64 `json:"space_bytes_deepest"`

	Levels []LevelProfile `json:"levels,omitempty"`
}

// WorkloadProfile reports the live workload characterization and
// per-level RUM attribution. With the profiler disabled it returns a
// zero profile with Enabled=false.
func (db *DB) WorkloadProfile() WorkloadProfile {
	p := db.prof
	if p == nil {
		return WorkloadProfile{}
	}
	base := p.baseline()
	cur := p.snapNow()
	w := cur.m.Sub(base.m)

	wp := WorkloadProfile{
		Enabled:       true,
		WindowOps:     int64(p.win.Total()),
		Rotations:     p.win.Rotations(),
		Gets:          w.Gets,
		Puts:          w.Puts,
		Deletes:       w.Deletes,
		Scans:         w.Scans,
		ScanEntries:   w.ScanEntries,
		IngestedBytes: w.BytesIngested,
		DistinctKeys:  int64(p.win.Distinct()),
		TopKeys:       p.win.Top(profTopK),
		Tenants:       p.tenants.rows(),
	}
	if wp.Scans > 0 {
		wp.MeanScanLen = float64(wp.ScanEntries) / float64(wp.Scans)
	}
	if total := p.win.Total(); total > 0 {
		var mass uint64
		for _, hk := range wp.TopKeys {
			mass += hk.Count
		}
		wp.TopShare = float64(mass) / float64(total)
	}
	wp.ZipfS = fitZipf(wp.TopKeys)

	wp.ReadAmp = w.ReadAmplification()
	wp.WriteAmp = w.WriteAmplification()

	ts := db.TreeStats()
	total, deepest := ts.spaceTerms()
	wp.SpaceBytesTotal, wp.SpaceBytesDeepest = int64(total), int64(deepest)
	if deepest > 0 {
		wp.SpaceAmp = float64(total) / float64(deepest)
	}

	wp.Levels = make([]LevelProfile, len(cur.levels))
	for i := range cur.levels {
		var baseL levelIOSnap
		if i < len(base.levels) {
			baseL = base.levels[i]
		}
		d := cur.levels[i].sub(baseL)
		lp := LevelProfile{
			Level:             i,
			RunsProbed:        d.runsProbed,
			BlockReads:        d.blockReads,
			BlockReadsCached:  d.blockReadsCached,
			BytesRead:         d.readBytes,
			CompactionBytesIn: d.compactionIn,
		}
		if i < len(ts.Levels) {
			lp.LiveRuns = ts.Levels[i].Runs
		}
		if wp.Gets > 0 {
			lp.ReadAmp = float64(d.runsProbed) / float64(wp.Gets)
		}
		for r, b := range d.writeBytes {
			lp.BytesWritten += b
			if b > 0 {
				if lp.WriteByReason == nil {
					lp.WriteByReason = make(map[string]int64)
				}
				lp.WriteByReason[reasonNames[r]] += b
			}
		}
		wp.Levels[i] = lp
	}
	return wp
}

// fitZipf least-squares fits log(count) = -s*log(rank) + c over the
// top-K and returns s: ~0 for uniform traffic, ~1 for a classic
// zipfian head. Needs at least three ranks to be meaningful.
func fitZipf(top []sketch.HotKey) float64 {
	n := 0
	var sx, sy, sxx, sxy float64
	for i, hk := range top {
		if hk.Count == 0 {
			break
		}
		x := math.Log(float64(i + 1))
		y := math.Log(float64(hk.Count))
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
		n++
	}
	if n < 3 {
		return 0
	}
	den := float64(n)*sxx - sx*sx
	if den == 0 {
		return 0
	}
	s := -(float64(n)*sxy - sx*sy) / den
	if s < 0 {
		s = 0
	}
	return s
}

// MergeProfiles aggregates per-shard profiles into one partition-level
// view: counts and level attribution sum; distinct keys sum (shards
// hash-partition the key space, so shard key sets are disjoint); top
// keys merge by summed count; the RUM ratios are recomputed from the
// summed terms.
func MergeProfiles(ps []WorkloadProfile) WorkloadProfile {
	var out WorkloadProfile
	topByKey := map[string]sketch.HotKey{}
	tenByName := map[string]*TenantWorkload{}
	var runsProbed, flushPlusCompaction int64
	var topMassDen int64
	for _, p := range ps {
		if !p.Enabled {
			continue
		}
		out.Enabled = true
		out.WindowOps += p.WindowOps
		if p.Rotations > out.Rotations {
			out.Rotations = p.Rotations
		}
		out.Gets += p.Gets
		out.Puts += p.Puts
		out.Deletes += p.Deletes
		out.Scans += p.Scans
		out.ScanEntries += p.ScanEntries
		out.IngestedBytes += p.IngestedBytes
		out.DistinctKeys += p.DistinctKeys
		out.SpaceBytesTotal += p.SpaceBytesTotal
		out.SpaceBytesDeepest += p.SpaceBytesDeepest
		topMassDen += p.WindowOps
		for _, hk := range p.TopKeys {
			have := topByKey[hk.Key]
			have.Key = hk.Key
			have.Count += hk.Count
			have.Err += hk.Err
			topByKey[hk.Key] = have
		}
		for _, t := range p.Tenants {
			if have := tenByName[t.Tenant]; have != nil {
				have.Gets += t.Gets
				have.Puts += t.Puts
				have.Deletes += t.Deletes
				have.Scans += t.Scans
				have.Ops += t.Ops
			} else {
				tc := t
				tenByName[t.Tenant] = &tc
			}
		}
		for _, lp := range p.Levels {
			for len(out.Levels) <= lp.Level {
				out.Levels = append(out.Levels, LevelProfile{Level: len(out.Levels)})
			}
			o := &out.Levels[lp.Level]
			o.LiveRuns += lp.LiveRuns
			o.RunsProbed += lp.RunsProbed
			o.BlockReads += lp.BlockReads
			o.BlockReadsCached += lp.BlockReadsCached
			o.BytesRead += lp.BytesRead
			o.BytesWritten += lp.BytesWritten
			o.CompactionBytesIn += lp.CompactionBytesIn
			for r, b := range lp.WriteByReason {
				if o.WriteByReason == nil {
					o.WriteByReason = make(map[string]int64)
				}
				o.WriteByReason[r] += b
			}
			runsProbed += lp.RunsProbed
			flushPlusCompaction += lp.BytesWritten
		}
	}
	if !out.Enabled {
		return out
	}
	if out.Scans > 0 {
		out.MeanScanLen = float64(out.ScanEntries) / float64(out.Scans)
	}
	out.TopKeys = make([]sketch.HotKey, 0, len(topByKey))
	for _, hk := range topByKey {
		out.TopKeys = append(out.TopKeys, hk)
	}
	sort.Slice(out.TopKeys, func(i, j int) bool {
		if out.TopKeys[i].Count != out.TopKeys[j].Count {
			return out.TopKeys[i].Count > out.TopKeys[j].Count
		}
		return out.TopKeys[i].Key < out.TopKeys[j].Key
	})
	if len(out.TopKeys) > profTopK {
		out.TopKeys = out.TopKeys[:profTopK]
	}
	if topMassDen > 0 {
		var mass uint64
		for _, hk := range out.TopKeys {
			mass += hk.Count
		}
		out.TopShare = float64(mass) / float64(topMassDen)
	}
	out.ZipfS = fitZipf(out.TopKeys)
	out.Tenants = make([]TenantWorkload, 0, len(tenByName))
	for _, t := range tenByName {
		out.Tenants = append(out.Tenants, *t)
	}
	sort.Slice(out.Tenants, func(i, j int) bool {
		if out.Tenants[i].Ops != out.Tenants[j].Ops {
			return out.Tenants[i].Ops > out.Tenants[j].Ops
		}
		return out.Tenants[i].Tenant < out.Tenants[j].Tenant
	})
	for i := range out.Levels {
		if out.Gets > 0 {
			out.Levels[i].ReadAmp = float64(out.Levels[i].RunsProbed) / float64(out.Gets)
		}
	}
	if out.Gets > 0 {
		out.ReadAmp = float64(runsProbed) / float64(out.Gets)
	}
	if out.IngestedBytes > 0 {
		out.WriteAmp = float64(flushPlusCompaction) / float64(out.IngestedBytes)
	}
	if out.SpaceBytesDeepest > 0 {
		out.SpaceAmp = float64(out.SpaceBytesTotal) / float64(out.SpaceBytesDeepest)
	}
	return out
}
