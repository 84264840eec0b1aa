package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"lsmlab/internal/admission"
	"lsmlab/internal/bloom"
	"lsmlab/internal/cache"
	"lsmlab/internal/compaction"
	"lsmlab/internal/events"
	"lsmlab/internal/kv"
	"lsmlab/internal/manifest"
	"lsmlab/internal/memtable"
	"lsmlab/internal/metrics"
	"lsmlab/internal/trace"
	"lsmlab/internal/vfs"
	"lsmlab/internal/wal"
	"lsmlab/internal/wisckey"
)

// ErrClosed is returned by operations on a closed DB.
var ErrClosed = errors.New("lsm: database closed")

// ErrNotFound is returned by Get when the key has no live value.
var ErrNotFound = errors.New("lsm: key not found")

// memWrapper pairs a memtable with its key filter, its range
// tombstones and the WAL segment that protects it.
type memWrapper struct {
	mt     memtable.Memtable
	walNum uint64
	// flushFailures counts consecutive failed flush attempts (guarded by
	// db.mu); retries back off so a persistently failing device does not
	// spin a worker at full speed.
	flushFailures int
	// building marks a buffer a worker has claimed for its flush
	// (guarded by db.mu).
	building bool

	// writers counts commit-group members whose memtable inserts are
	// not yet published. A flush waits for it to drain, so a buffer
	// retired while a group is applying is never written to disk (and
	// its WAL segment never deleted) before those inserts land, and no
	// table holds an entry above visibleSeq (DESIGN §2a).
	writers sync.WaitGroup

	// keys filters the user keys of every point entry in mt, so a point
	// read skips a buffer that cannot hold its key (DESIGN §2a).
	keys keyFilter

	// rangeDels is copy-on-write: a published slice is never written,
	// so readers load it without a lock. rdMu serializes the writers.
	rdMu      sync.Mutex
	rangeDels atomic.Pointer[[]kv.RangeTombstone]
}

func newMemWrapper(opts *Options) *memWrapper {
	return &memWrapper{mt: memtable.New(opts.MemtableKind), keys: newKeyFilter(opts.BufferBytes)}
}

// add inserts one point entry. The key's filter bits are set before
// mt.Add and therefore before the commit pipeline publishes seq, so a
// reader that can see the entry also sees its bits.
func (m *memWrapper) add(seq kv.SeqNum, kind kv.Kind, ukey, value []byte) {
	m.keys.add(bufferKeyHash(bloom.Hash64(ukey)))
	m.mt.Add(seq, kind, ukey, value)
}

// addRangeDel publishes the tombstone list extended by t. append writes
// only past the published length, or into a fresh array, so no element
// a reader may hold is ever written.
func (m *memWrapper) addRangeDel(t kv.RangeTombstone) {
	m.rdMu.Lock()
	var cur []kv.RangeTombstone
	if p := m.rangeDels.Load(); p != nil {
		cur = *p
	}
	next := append(cur, t)
	m.rangeDels.Store(&next)
	m.rdMu.Unlock()
}

// rangeTombstones returns the published tombstones without a lock or a
// copy. The slice is read-only; its capacity is clipped to its length,
// so a caller's append copies rather than writing into shared memory.
func (m *memWrapper) rangeTombstones() []kv.RangeTombstone {
	p := m.rangeDels.Load()
	if p == nil {
		return nil
	}
	return (*p)[:len(*p):len(*p)]
}

// DB is an LSM-tree key-value store.
type DB struct {
	opts Options
	fs   vfs.FS
	dir  string

	// editMu serializes version edits (install, readstate.go) and
	// guards store, which Close nils. Lock order: editMu → mu → walMu →
	// commit.mu/commit.pubMu; nothing waits on cond under editMu.
	editMu sync.Mutex
	store  *manifest.Store

	mu   sync.Mutex
	cond *sync.Cond // broadcast when stalls may clear or work completes
	// mem, imm, version and closed are the writer-side truth, guarded by
	// mu; version changes only in install, which also holds editMu, so
	// install reads it under editMu alone. Readers never look at them:
	// each change is frozen into state (readstate.go) by publishLocked,
	// and readers pin that. mem is nil once Close has retired it: the
	// store is closing.
	mem       *memWrapper
	imm       []*memWrapper // oldest first
	version   *manifest.Version
	state     atomic.Pointer[readState]
	nextFile  atomic.Uint64 // next table or WAL file number
	walFile   vfs.File
	wal       *wal.Writer
	snapshots map[kv.SeqNum]int
	busyLevel map[int]bool // levels a claimed compaction works on
	running   int          // claimed jobs in flight
	closed    bool
	bgErr     error  // first background error; surfaced in Health/stats and on Close
	bgErrOp   string // operation ("flush", "compaction") that produced bgErr
	lastBgErr error  // most recent background error; what Flush reports

	// compactFailures counts consecutive failed compaction attempts
	// (guarded by db.mu), driving retry backoff and the degradation
	// policy symmetrically with memWrapper.flushFailures.
	compactFailures int

	// degraded, once set, is the sticky read-only mode (health.go):
	// writes fail fast with this error, reads keep serving, background
	// work stops. degradedFlag mirrors it for lock-free fast paths.
	degraded      *DegradedError
	degradedSince int64
	degradedFlag  atomic.Bool

	// walMu serializes WAL appends against WAL rotation. The commit
	// leader acquires it (under db.mu) before pinning db.wal and holds
	// it through the group's buffered append and sync; rotation takes it
	// (also under db.mu) for the file swap. Lock order: mu → walMu.
	walMu sync.Mutex

	// commit is the group-commit pipeline (commit.go): concurrent Apply
	// calls form write groups with one WAL write and one sync per group.
	commit commitPipeline

	// lastSeq is the sequence allocation cursor (highest assigned);
	// visibleSeq is the highest sequence published in commit order.
	// Readers and snapshots use visibleSeq so a batch whose group
	// predecessors are still applying is never observed early — and no
	// sequence hole ever is.
	lastSeq    atomic.Uint64
	visibleSeq atomic.Uint64

	// beforePublish, set only by tests before any write, runs in
	// commitOps between a request's memtable insert and its publish.
	beforePublish func(userOps []wal.Op)

	bg     sync.WaitGroup
	picker atomic.Pointer[compaction.Picker] // replaced whole by SetShape, under mu
	bcache *cache.Cache
	vlog   *wisckey.Log

	m metrics.Metrics

	// prof is the live workload profiler (profile.go); nil when
	// Options.DisableProfiler is set.
	prof *profiler

	// iterStacks pools the bodies of closed iterators (iterator.go), so
	// a scan reuses its cursors, merge heap and buffers.
	iterStacks sync.Pool

	// listener receives lifecycle events (nil = disabled); jobIDs pairs
	// the begin/end events of flush, compaction, and checkpoint jobs.
	listener events.Listener
	jobIDs   atomic.Uint64

	// tracer, when non-nil, mints per-operation spans (trace.go methods
	// GetTraced/ApplyTraced carry wire-propagated ids into them). The
	// nil fast path is one pointer compare per operation.
	tracer *trace.Tracer

	// timeOps gates the per-operation latency histograms (Get, Put,
	// Scan-next). Clock reads cost ~100ns per op — real money against a
	// memtable hit — so they run only when observability is on: a
	// listener attached or Options.RecordLatencies set. Background-job
	// histograms (flush, compaction) are always on; their once-per-job
	// cost is noise.
	timeOps bool
}

// emit delivers one event to the configured listener, stamping the
// engine clock. With no listener the cost is a single nil check, so the
// hot paths pay nothing when observability is off.
func (db *DB) emit(e events.Event) {
	if db.listener == nil {
		return
	}
	e.TimeNs = db.opts.NowNs()
	db.listener.Notify(e)
}

// nextJobID allocates an ID shared by one job's begin and end events.
func (db *DB) nextJobID() uint64 { return db.jobIDs.Add(1) }

// startSpan starts the span of one get, scan or apply, tagged with the
// tenant of key. A non-zero traceID was propagated over the wire, and
// the tracer keeps such a span whatever its sampling says. It returns
// nil without a tracer or when head sampling declined the operation;
// callers defer db.tracer.Finish, which ignores a nil span.
func (db *DB) startSpan(op string, traceID uint64, key []byte) *trace.Span {
	sp := db.tracer.StartID(op, traceID)
	if sp != nil {
		sp.SetTenant(admission.TenantOf(key))
	}
	return sp
}

// spanNow reads the engine clock for a stage boundary of a traced
// operation; an untraced one (sp nil) reads no clock and gets 0.
func (db *DB) spanNow(sp *trace.Span) int64 {
	if sp == nil {
		return 0
	}
	return db.opts.NowNs()
}

// Tracer returns the tracer this DB was opened with (nil when tracing
// is disabled). The serving layer uses it to span wire requests whose
// engine entry points it drives directly.
func (db *DB) Tracer() *trace.Tracer { return db.tracer }

// Open opens (creating if necessary) a database at opts.Path and
// recovers any committed state and WAL tail.
func Open(opts Options) (*DB, error) {
	opts = opts.withDefaults()
	if opts.FS == nil {
		return nil, errors.New("lsm: Options.FS is required")
	}
	if err := opts.FS.MkdirAll(opts.Path); err != nil {
		return nil, err
	}
	db := &DB{
		opts:      opts,
		fs:        opts.FS,
		dir:       opts.Path,
		snapshots: make(map[kv.SeqNum]int),
		busyLevel: make(map[int]bool),
		listener:  opts.EventListener,
		tracer:    opts.Tracer,
		timeOps:   opts.EventListener != nil || opts.RecordLatencies,
	}
	db.cond = sync.NewCond(&db.mu)
	if !opts.DisableProfiler {
		db.prof = newProfiler(&db.m, opts.NumLevels, opts.ProfileWindowOps)
	}
	if opts.CacheBytes > 0 {
		db.bcache = cache.New(opts.CacheBytes)
		db.bcache.SetStats(&db.m)
	}
	db.picker.Store(compaction.NewPicker(compaction.Options{
		NumLevels:               opts.NumLevels,
		SizeRatio:               opts.SizeRatio,
		BaseLevelBytes:          opts.BaseLevelBytes,
		Layout:                  opts.Layout,
		Granularity:             opts.Granularity,
		MovePolicy:              opts.MovePolicy,
		TombstoneAgeThresholdNs: int64(opts.TombstoneAgeThreshold),
		NowNs:                   opts.NowNs,
	}))

	// Recover the manifest.
	store, state, err := manifest.OpenStore(db.fs, vfs.Join(db.dir, "MANIFEST"))
	if err != nil {
		return nil, err
	}
	db.store = store
	if state != nil {
		db.version = state.Version
		// Tolerate a NumLevels increase across restarts.
		for len(db.version.Levels) < opts.NumLevels {
			db.version.Levels = append(db.version.Levels, &manifest.Level{})
		}
		db.nextFile.Store(state.NextFileNum)
		db.lastSeq.Store(uint64(state.LastSeq))
	} else {
		db.version = manifest.NewVersion(opts.NumLevels)
		db.nextFile.Store(1)
	}

	if opts.ValueSeparationThreshold > 0 {
		vl, err := wisckey.Open(db.fs, db.dir)
		if err != nil {
			return nil, err
		}
		db.vlog = vl
	}

	// Delete orphaned table files (outputs of a crashed compaction).
	db.removeOrphans()

	// Replay WAL segments in order, then start a fresh segment. Their
	// flushes size filters from the published version.
	db.mu.Lock()
	db.publishLocked()
	db.mu.Unlock()
	if err := db.recoverWALs(); err != nil {
		return nil, err
	}
	// A fresh store starts its sequence space at 1, never 0: sequence 0
	// is the "read at latest" sentinel throughout the read path, so a
	// snapshot of an empty store (visibleSeq 0) would silently degrade
	// into a live view — which breaks the cross-shard snapshot vector,
	// whose consistency depends on every captured watermark staying
	// fixed.
	db.lastSeq.CompareAndSwap(0, 1)
	db.visibleSeq.Store(db.lastSeq.Load())
	db.mu.Lock()
	err = db.newMemtableLocked()
	db.publishLocked().unpin()
	db.mu.Unlock()
	if err != nil {
		return nil, err
	}

	for i := 0; i < opts.Workers; i++ {
		// With two or more workers, the first is dedicated to flushes
		// (RocksDB's separate flush pool): ingestion never queues behind
		// a long compaction (§2.2.5, and SILK's flush-priority insight).
		flushOnly := i == 0 && opts.Workers > 1
		db.bg.Add(1)
		go db.worker(flushOnly)
	}
	db.cond.Broadcast()
	return db, nil
}

// removeOrphans deletes .sst files not referenced by the recovered
// version.
func (db *DB) removeOrphans() {
	live := db.version.LiveFileNums()
	nums, err := manifest.ListNums(db.fs, db.dir, manifest.TableExt)
	if err != nil {
		return
	}
	for _, num := range nums {
		if !live[num] {
			db.removeTable(num)
		}
	}
}

// recoverWALs replays every WAL segment into memtables and flushes them
// synchronously, so recovery leaves no volatile state.
func (db *DB) recoverWALs() error {
	nums, err := manifest.ListNums(db.fs, db.dir, manifest.WALExt)
	if err != nil {
		return err
	}
	for _, num := range nums {
		f, err := db.fs.Open(vfs.Join(db.dir, manifest.WALName(num)))
		if err != nil {
			return err
		}
		mw := newMemWrapper(&db.opts)
		err = wal.Replay(f, func(b wal.Batch) error {
			seq := b.Seq
			for _, op := range b.Ops {
				switch op.Kind {
				case kv.KindRangeDelete:
					mw.addRangeDel(kv.RangeTombstone{Start: op.Key, End: op.Value, Seq: seq})
				default:
					mw.add(seq, op.Kind, op.Key, op.Value)
				}
				seq++
			}
			if uint64(seq-1) > db.lastSeq.Load() {
				db.lastSeq.Store(uint64(seq - 1))
			}
			return nil
		})
		f.Close()
		if err != nil {
			return err
		}
		if mw.mt.Len() > 0 || len(mw.rangeTombstones()) > 0 {
			if err := db.runJob(mw, nil); err != nil {
				return err
			}
		}
		db.fs.Remove(vfs.Join(db.dir, manifest.WALName(num)))
	}
	return nil
}

// newMemtableLocked installs a fresh mutable buffer and its WAL segment.
func (db *DB) newMemtableLocked() error {
	mw := newMemWrapper(&db.opts)
	if !db.opts.DisableWAL {
		num := db.nextFile.Add(1) - 1
		f, err := db.fs.Create(vfs.Join(db.dir, manifest.WALName(num)))
		if err != nil {
			return err
		}
		db.walFile = f
		db.wal = wal.NewWriter(f)
		mw.walNum = num
		db.emit(events.Event{Type: events.WALRotated, Path: manifest.WALName(num)})
	}
	db.mem = mw
	return nil
}

// filterBitsForRun computes the bits-per-key for a new run landing at
// level, holding approximately newEntries entries.
//
// Monkey mode allocates the budget against the tree's *configured*
// shape — the expected entry capacity of every run at every level —
// rather than the transient current contents, exactly as Monkey sizes
// filters from the design (T, layout, buffer size). This keeps the
// per-level assignment stable across flushes and the total spend within
// budget once the tree fills.
func (db *DB) filterBitsForRun(level int) float64 {
	switch db.opts.FilterMode {
	case FilterNone:
		return 0
	case FilterUniform:
		return db.opts.BitsPerKey
	}
	// Average entry size from the published tree (fallback for an empty
	// one).
	v, avg := db.state.Load().version, int64(80)
	if files, bytes := int64(v.TotalFiles()), int64(v.TotalSize()); files > 0 && bytes > 0 {
		var entries int64
		for _, l := range v.Levels {
			for _, r := range l.Runs {
				entries += int64(r.NumEntries())
			}
		}
		if entries > 0 {
			avg = bytes / entries
			if avg < 16 {
				avg = 16
			}
		}
	}
	popts := db.picker.Load().Options()
	var counts []int64
	runIdxForLevel := make([]int, db.opts.NumLevels)
	for lvl := 0; lvl < db.opts.NumLevels; lvl++ {
		runIdxForLevel[lvl] = len(counts)
		runCap := popts.Layout.RunCapacity(lvl, db.opts.NumLevels)
		var perRun int64
		if lvl == 0 {
			perRun = int64(db.opts.BufferBytes) / avg
		} else {
			perRun = int64(popts.LevelCapacityBytes(lvl)) / avg / int64(runCap)
		}
		if perRun < 1 {
			perRun = 1
		}
		for r := 0; r < runCap; r++ {
			counts = append(counts, perRun)
		}
	}
	bits := bloom.Allocate(counts, db.opts.FilterBudgetBits)
	return bits[runIdxForLevel[level]]
}

// worker executes flushes (priority) and compactions until close.
// flushOnly workers never start compactions, so a flush slot is always
// available when Workers > 1 (a dedicated flush pool).
func (db *DB) worker(flushOnly bool) {
	defer db.bg.Done()
	db.mu.Lock()
	defer db.mu.Unlock()
	for !db.closed {
		// A degraded engine initiates no background work: the device is
		// suspect and writes are already refused, so workers park until
		// close.
		if db.degraded == nil {
			if mw, c := db.nextJobLocked(flushOnly); mw != nil || c != nil {
				db.runClaimedLocked(mw, c)
				continue
			}
		}
		db.cond.Wait()
	}
}

// nextJobLocked returns the next job a worker should claim: the oldest
// unclaimed immutable buffer, or else, unless flushOnly, a compaction
// that touches no busy level. Flushes come first because they unblock
// writers. Multiple workers may build flushes concurrently; doFlush
// installs them in queue order so level-0 run recency stays correct.
// Callers hold db.mu.
func (db *DB) nextJobLocked(flushOnly bool) (*memWrapper, *compaction.Job) {
	for _, mw := range db.imm {
		if !mw.building {
			return mw, nil
		}
	}
	if flushOnly {
		return nil, nil
	}
	return nil, db.pickUnlockedJob()
}

// runClaimedLocked is the one bracket of every flush (mw) and
// compaction (c), background or manual: claim the job's buffer or
// levels, back off after consecutive failures, run it without db.mu,
// release the claim, and apply the retry/degrade policy to its outcome.
// Callers hold db.mu, which is released while the job runs.
func (db *DB) runClaimedLocked(mw *memWrapper, c *compaction.Job) error {
	op, failures := "compaction", &db.compactFailures
	if mw != nil {
		op, failures = "flush", &mw.flushFailures
	}
	db.claimLocked(mw, c, true)
	db.running++
	backoff := retryBackoff(*failures)
	db.mu.Unlock()
	if backoff > 0 {
		time.Sleep(backoff)
	}
	err := db.runJob(mw, c)
	db.mu.Lock()
	db.claimLocked(mw, c, false)
	db.running--
	if err != nil {
		*failures++
		db.noteBackgroundFailure(op, *failures, err)
	} else {
		*failures = 0
	}
	db.cond.Broadcast()
	return err
}

// claimLocked marks (on) or releases what a job works on, its buffer
// or its compaction's levels, so concurrent workers take disjoint work.
// Callers hold db.mu.
func (db *DB) claimLocked(mw *memWrapper, c *compaction.Job, on bool) {
	if mw != nil {
		mw.building = on
		return
	}
	for lvl := range c.Inputs {
		db.busyLevel[lvl] = on
	}
	db.busyLevel[c.ToLevel] = on
}

// retryBackoff is the capped exponential backoff between retries of a
// failing background job: 10ms doubling per consecutive failure, at
// most one second, so a flapping device is retried politely and a dead
// one cannot spin a worker at full speed before degradation kicks in.
func retryBackoff(failures int) time.Duration {
	if failures <= 0 {
		return 0
	}
	if failures > 7 { // 10ms << 7 > 1s; avoid shift overflow
		return time.Second
	}
	d := 10 * time.Millisecond << (failures - 1)
	if d > time.Second {
		d = time.Second
	}
	return d
}

// pickUnlockedJob returns the highest-priority compaction job that does
// not touch a busy level, so concurrent workers take disjoint work.
// Callers hold db.mu.
func (db *DB) pickUnlockedJob() *compaction.Job {
	return db.picker.Load().PickExcluding(db.version, func(level int) bool {
		return db.busyLevel[level]
	})
}

// waitIdle blocks until no background work is pending. Used by tests
// and experiments for deterministic measurement.
func (db *DB) waitIdle() {
	db.mu.Lock()
	for {
		idle := db.running == 0 && len(db.imm) == 0 && db.pickUnlockedJob() == nil
		// A degraded engine counts as idle: workers are parked and the
		// pending queue will never drain, so waiting would hang forever.
		if idle || db.closed || db.degraded != nil {
			db.mu.Unlock()
			return
		}
		db.cond.Broadcast()
		db.cond.Wait()
	}
}

// WaitIdle flushes nothing but blocks until queued background work has
// drained. Deterministic experiments call it before measuring.
func (db *DB) WaitIdle() { db.waitIdle() }

// Metrics returns a snapshot of the engine counters.
func (db *DB) Metrics() metrics.Snapshot { return db.m.Snapshot() }

// Latencies returns a snapshot of the per-operation latency histograms
// (Get, Put, Scan-next, flush, compaction).
func (db *DB) Latencies() metrics.LatencySnapshot { return db.m.Latencies() }

// DiskUsageBytes reports the live table bytes (the numerator of space
// amplification).
func (db *DB) DiskUsageBytes() uint64 {
	total := db.Version().TotalSize()
	if db.vlog != nil {
		total += uint64(db.vlog.DiskBytes())
	}
	return total
}

// Version returns the current tree structure (immutable; safe to read).
func (db *DB) Version() *manifest.Version { return db.state.Load().version }

// Flush forces the mutable memtable to disk and waits for it. It
// reports the latest background failure only if one happened while it
// waited; one a retry got past earlier is left to Health.
func (db *DB) Flush() error {
	db.mu.Lock()
	if db.closed || db.mem == nil {
		db.mu.Unlock()
		return ErrClosed
	}
	if err := db.degradedErrLocked(); err != nil {
		// Read-only: flushing would write; fail fast with the cause.
		db.mu.Unlock()
		return err
	}
	if db.mem.mt.Len() > 0 || len(db.mem.rangeTombstones()) > 0 {
		if err := db.rotateMemtableLocked(true); err != nil {
			db.mu.Unlock()
			return err
		}
	}
	retries := db.m.BgRetries.Load()
	db.mu.Unlock()
	db.waitIdle()
	db.mu.Lock()
	err := db.degradedErrLocked()
	if err == nil && db.m.BgRetries.Load() != retries {
		err = db.lastBgErr
	}
	db.mu.Unlock()
	return err
}

// Compact runs a full manual compaction into the last level, through
// the same bracket, and so the same retry/degrade policy, as a
// background one.
func (db *DB) Compact() error {
	if err := db.Flush(); err != nil {
		return err
	}
	db.mu.Lock()
	// Pick only once background work has drained: the wait releases
	// db.mu, and a job picked before it could name inputs that a
	// background compaction has since replaced.
	for db.running > 0 {
		db.cond.Wait()
	}
	var err error
	if job := db.picker.Load().ManualJob(db.version); job != nil {
		err = db.runClaimedLocked(nil, job)
	}
	db.mu.Unlock()
	db.waitIdle()
	return err
}

// Close is a rotation without a replacement: the mutable buffer joins
// the immutable queue and db.mem stays nil, so later writes fail with
// ErrClosed while reads keep serving. The workers flush and drain as
// after any rotation; then Close commits the manifest and releases
// every resource. A WAL segment is deleted only by its buffer's flush,
// so a degraded store keeps every acknowledged write for the next
// Open. The degradation cause, else the first background error, is
// returned.
func (db *DB) Close() error {
	db.mu.Lock()
	if db.closed || db.mem == nil {
		db.mu.Unlock()
		return nil
	}
	// Queue the buffer even when it looks empty: a commit group that
	// registered before the retire may not have applied yet, and only
	// the flush's wait on its writers knows.
	rotErr := db.rotateMemtableLocked(false)
	db.mu.Unlock()
	db.waitIdle()

	db.mu.Lock()
	db.closed = true
	db.cond.Broadcast()
	db.mu.Unlock()
	db.bg.Wait()

	// The final commit records the sequence and file-number cursors;
	// with the store closed, install refuses.
	prev, commitErr := db.install(func(v *manifest.Version) *manifest.Version { return v }, nil)
	prev.unpin()
	db.editMu.Lock()
	storeErr := db.store.Close()
	db.store = nil
	db.editMu.Unlock()

	db.mu.Lock()
	defer db.mu.Unlock()
	var firstErr error
	keep := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	keep(rotErr)
	keep(db.degradedErrLocked())
	keep(db.bgErr)
	keep(commitErr)
	keep(storeErr)
	if db.walFile != nil { // a failed rotation left it open; Open replays it
		keep(db.walFile.Close())
	}
	if db.vlog != nil {
		keep(db.vlog.Close())
	}
	// Publish the closed marker last, with the workers gone and the
	// version final: readers now get ErrClosed, and releasing the last
	// open state closes every reader no iterator still pins.
	db.publishLocked().unpin()
	return firstErr
}
