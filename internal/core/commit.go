package core

import (
	"sync"
	"time"

	"lsmlab/internal/events"
	"lsmlab/internal/kv"
	"lsmlab/internal/wal"
)

// This file implements the leader-based group-commit pipeline (the
// RocksDB write-group / Pebble commit-pipeline design, §2.1.1 A).
// Concurrent Apply callers enqueue commit requests; one caller — the
// leader — claims the whole queue as a group, assigns the group a
// contiguous sequence-number range, writes every batch's WAL frame in
// one buffered append, and issues a single Sync for the group. The
// members then insert into the memtable concurrently (the memtables
// carry their own locks), and a publish stage advances the visibleSeq
// watermark in commit order so readers and snapshots never observe a
// sequence-number hole.
//
// Before it claims, a leader may linger (commitPipeline.linger): the
// writers the previous group just acknowledged are one caller round
// trip away, and a leader that syncs without them locks a closed-loop
// pair into alternating groups of one — every commit waits out the
// other's sync and then pays its own.
//
// Lock order: db.mu → db.walMu → commit.mu / commit.pubMu (the two
// pipeline mutexes are leaves and never held together with each other).

// commitRequest is one Apply call's journey through the pipeline.
type commitRequest struct {
	userOps []wal.Op // the caller's original ops (user-size accounting)
	ops     []wal.Op // after value-log diversion (== userOps otherwise)

	// Filled by the leader while holding db.mu:
	mem        *memWrapper // the buffer this batch applies to
	base, last kv.SeqNum   // the batch's assigned sequence range
	registered bool        // sequence assigned; must flow through publish
	groupN     int32       // size of the commit group this batch joined
	stallNs    int64       // leader stall time spent on the group's behalf
	lingerNs   int64       // how long this request, as leader, lingered

	err error // commit failure, delivered to the caller

	// wake is closed to release a waiting follower, either because its
	// group's WAL stage finished or because it was promoted to leader
	// (isLeader). Allocated lazily: a request that leads from the start
	// never waits.
	wake     chan struct{}
	isLeader bool

	// donePub is closed by whichever publisher sweeps this request past
	// the watermark. A targeted close wakes exactly one waiter — a shared
	// condition variable here would stampede the whole group on every
	// advance. Allocated lazily under pubMu: a request that sweeps itself
	// never waits.
	donePub chan struct{}

	// Publish state, guarded by commitPipeline.pubMu.
	applied   bool // memtable insert done (or skipped on error)
	published bool // visibleSeq has advanced past last
}

// commitPipeline serializes group formation and ordered publication.
type commitPipeline struct {
	mu     sync.Mutex
	queue  []*commitRequest // waiting to be claimed by a leader
	spare  []*commitRequest // a finished group's emptied backing array
	active bool             // a leader currently owns the pipeline

	// The linger's two inputs, both measured (Postgres commit_siblings
	// and commit_delay, observed instead of configured). expect is the
	// number of writers the last hand-off saw — its group plus those
	// already queued behind it. syncNs is an EWMA of WAL sync latency; it
	// stays zero, and nobody ever waits, on a store whose commits do not
	// sync (SyncWAL off, DisableWAL).
	expect int
	syncNs int64
	joined chan struct{} // non-nil while a leader lingers; closed by enqueue

	// The estimate's correction. A peer that is merely slower than half
	// a sync — not gone — is queued again at every hand-off, so expect
	// alone would have every leader wait for it in vain, and a wait that
	// times out costs more than was asked for: the Go runtime rounds a
	// sub-millisecond timer on an idle process up to about 1 ms. misses
	// counts consecutive lingers that timed out; after one, the next
	// 2^misses (at most 256) leaders that would have lingered commit at
	// once. A slow peer so costs a few microseconds per commit, and a
	// pair that falls back into step is found again within 256 commits.
	misses, pass int

	// WAL framing scratch, guarded by db.walMu.
	walBatches []wal.Batch
	walPtrs    []*wal.Batch

	pubMu   sync.Mutex
	pending []*commitRequest // registered requests in sequence order
}

// wakeupNs is, generously, what parking a goroutine on a timer and
// getting it back costs. A linger shorter than that cannot pay for
// itself, which keeps a free or nearly free sync (MemFS, tmpfs, a
// write-back cache) from ever waiting.
const wakeupNs = 20_000

// enqueue adds req to the queue and reports whether the caller must
// lead. Leadership is granted to the first writer to arrive while the
// pipeline is idle; everyone else waits to be woken. The arrival that
// completes a lingering leader's expected group releases it.
func (c *commitPipeline) enqueue(req *commitRequest) (lead bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.queue = append(c.queue, req)
	if !c.active {
		c.active = true
		return true
	}
	req.wake = make(chan struct{})
	if c.joined != nil && len(c.queue) >= c.expect {
		close(c.joined)
		c.joined = nil
		c.misses = 0
	}
	return false
}

// linger holds the leader back, before it takes db.mu, while fewer
// writers have queued than shared the last sync, for at most half a
// measured sync. It returns how long it waited; zero means it did not.
// A wait that ends by timeout means the estimate was wrong and the
// group commits short. If the peer left, the hand-off after it lowers
// expect and the departure has cost this one wait; if it is only slow,
// the leaders after this one pass up their lingers (see misses).
func (c *commitPipeline) linger(db *DB) int64 {
	c.mu.Lock()
	limit := c.syncNs / 2
	if len(c.queue) >= c.expect || limit < wakeupNs {
		c.mu.Unlock()
		return 0
	}
	if c.pass > 0 {
		c.pass--
		c.mu.Unlock()
		return 0
	}
	joined := make(chan struct{})
	c.joined = joined
	c.mu.Unlock()

	start := db.opts.NowNs()
	timer := time.NewTimer(time.Duration(limit))
	select {
	case <-joined:
		timer.Stop()
	case <-timer.C:
		c.mu.Lock()
		if c.joined == joined { // else the last peer arrived just now
			c.joined = nil
			c.misses = min(c.misses+1, 8)
			c.pass = 1 << c.misses
			db.m.CommitLingerTimeouts.Add(1)
		}
		c.mu.Unlock()
	}
	waited := db.opts.NowNs() - start
	db.m.CommitLingerNs.Add(waited)
	return waited
}

// claim takes the entire queue as the leader's commit group. The
// leader's own request is always queue[0]. The queue restarts in the
// array the last finished group gave back, if there is one.
func (c *commitPipeline) claim() []*commitRequest {
	c.mu.Lock()
	defer c.mu.Unlock()
	g := c.queue
	c.queue, c.spare = c.spare, nil
	return g
}

// handoff ends the leadership that committed (or failed) group, whose
// sync took syncNs (zero: none measured). It records what the next
// leader's linger needs, promotes the head of the queue to lead the
// next group — or idles the pipeline — and only then wakes the group's
// other members, so the next group forms while this one applies. The
// group's array is emptied and kept for the queue to reuse.
func (c *commitPipeline) handoff(group []*commitRequest, self *commitRequest, syncNs int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expect = len(group) + len(c.queue)
	if syncNs > 0 {
		// A sample counts for no more than twice the estimate plus a
		// wake-up: one sync preempted between its two clock reads must not
		// start lingers on a store whose syncs are free.
		c.syncNs += (min(syncNs, 2*c.syncNs+wakeupNs) - c.syncNs) / 4
	}
	if len(c.queue) > 0 {
		next := c.queue[0]
		next.isLeader = true
		close(next.wake)
	} else {
		c.active = false
	}
	for _, r := range group {
		if r != self {
			close(r.wake)
		}
	}
	clear(group)
	c.spare = group[:0]
}

// register appends the group to the publish queue in sequence order.
// Called by the leader with db.mu held, which orders groups globally.
func (c *commitPipeline) register(group []*commitRequest) {
	c.pubMu.Lock()
	for _, r := range group {
		r.registered = true
		c.pending = append(c.pending, r)
	}
	c.pubMu.Unlock()
}

// publish marks req applied, advances visibleSeq over the contiguous
// prefix of applied requests (commit order — never past a hole), and
// blocks until req itself is published. Every registered request must
// pass through here exactly once, errors included, or the watermark
// would stall.
func (c *commitPipeline) publish(db *DB, req *commitRequest) {
	c.pubMu.Lock()
	req.applied = true
	for len(c.pending) > 0 && c.pending[0].applied {
		r := c.pending[0]
		// The backing array outlives the reslice: drop its reference to
		// the request, and through it to the caller's batch.
		c.pending[0] = nil
		c.pending = c.pending[1:]
		db.visibleSeq.Store(uint64(r.last))
		r.published = true
		if r.donePub != nil {
			close(r.donePub)
		}
	}
	if req.published {
		c.pubMu.Unlock()
		return
	}
	// A later publisher sweeps this request once the requests ahead of
	// it have applied.
	req.donePub = make(chan struct{})
	c.pubMu.Unlock()
	<-req.donePub
}

// commitJoin takes req through group formation and the WAL stage, as
// the group's leader or as a member woken by it.
func (db *DB) commitJoin(req *commitRequest) {
	if db.commit.enqueue(req) {
		db.commitLead(req)
		return
	}
	<-req.wake
	if req.isLeader {
		db.commitLead(req)
	}
}

// commitLead runs the leader stages for the group containing self:
//
//  1. Holding no lock: linger while writers that shared the last sync
//     are still on their way back (commitPipeline.linger).
//  2. Under db.mu: wait for room (write stalls), surface background
//     errors, claim the group, assign its sequence range, pin the
//     target memtable, and register the group for ordered publish.
//  3. Under db.walMu (acquired before db.mu is released, so a WAL
//     rotation can never slip between capture and append): write every
//     batch's frame in one buffered append and issue one Sync.
//  4. Hand leadership to the next queued writer, then wake the group;
//     each member applies its own batch to the memtable concurrently.
func (db *DB) commitLead(self *commitRequest) {
	lingerNs := db.commit.linger(db)
	db.mu.Lock()
	stallNs, err := db.makeRoomLocked()
	// Only a degraded engine refuses writes. A transient background
	// error (bgErr set, degraded not) is being retried with backoff and
	// must not poison the write path — that was the old behavior this
	// degradation story replaces.
	if err == nil {
		err = db.degradedErrLocked()
	}
	// Claim after the stall clears: batches that queued while the leader
	// was blocked join this group, so a stall drains in one commit.
	group := db.commit.claim()
	self.lingerNs = lingerNs
	for _, r := range group {
		r.stallNs = stallNs
	}
	if err != nil {
		// The group never reached sequence assignment (stall abort or
		// degraded engine): nothing to apply or publish.
		db.mu.Unlock()
		for _, r := range group {
			r.err = err
		}
		db.commit.handoff(group, self, 0)
		return
	}
	db.walMu.Lock()
	mem := db.mem
	w := db.wal
	var total uint64
	for _, r := range group {
		total += uint64(len(r.ops))
	}
	last := db.lastSeq.Add(total)
	base := kv.SeqNum(last - total + 1)
	for _, r := range group {
		r.mem = mem
		r.base = base
		r.last = base + kv.SeqNum(len(r.ops)) - 1
		base = r.last + 1
		r.groupN = int32(len(group))
	}
	// Pin the buffer against flushing until every member's insert lands
	// (doFlush waits on this group).
	mem.writers.Add(len(group))
	db.commit.register(group)
	db.mu.Unlock()

	var werr error
	var syncNs int64
	if !db.opts.DisableWAL {
		c := &db.commit
		c.walBatches, c.walPtrs = c.walBatches[:0], c.walPtrs[:0]
		for _, r := range group {
			c.walBatches = append(c.walBatches, wal.Batch{Seq: r.base, Ops: r.ops})
		}
		for i := range c.walBatches {
			c.walPtrs = append(c.walPtrs, &c.walBatches[i])
		}
		n, err := w.AppendGroup(c.walPtrs)
		clear(c.walBatches) // the scratch must not pin the callers' batches
		db.m.WALBytes.Add(int64(n))
		werr = err
		if werr == nil && db.opts.SyncWAL {
			t0 := db.opts.NowNs()
			werr = w.Sync()
			if werr == nil {
				syncNs = db.opts.NowNs() - t0
				db.m.WALSyncs.Add(1)
				db.m.WALSyncsSaved.Add(int64(len(group) - 1))
			}
		}
	}
	db.walMu.Unlock()

	db.m.CommitGroups.Add(1)
	db.m.CommitBatches.Add(int64(len(group)))
	db.m.CommitGroupSize.RecordNs(int64(len(group)))
	if len(group) > 1 {
		db.emit(events.Event{Type: events.GroupCommit, Batches: len(group),
			OutputBytes: int64(total)})
	}
	if werr != nil {
		// The sequence range was claimed and registered: the members skip
		// their memtable inserts but still publish, so visibleSeq advances
		// over the hole instead of wedging every later commit.
		for _, r := range group {
			r.err = werr
		}
	}
	db.commit.handoff(group, self, syncNs)
}

// applyToMem inserts one request's operations into its pinned memtable.
// Runs concurrently across group members; the memtables are internally
// synchronized, and entries stay invisible until publish advances
// visibleSeq past them.
func (db *DB) applyToMem(req *commitRequest) {
	seq := req.base
	var puts, deletes, bytes int64
	for i := range req.ops {
		op := req.ops[i]
		switch op.Kind {
		case kv.KindRangeDelete:
			// Copied out of the batch: the tombstone outlives Apply while
			// the batch's arena may be reset and reused by the caller.
			req.mem.addRangeDel(kv.RangeTombstone{Start: cp(op.Key), End: cp(op.Value), Seq: seq})
			deletes++
		case kv.KindDelete, kv.KindSingleDelete:
			req.mem.add(seq, op.Kind, op.Key, op.Value)
			deletes++
		default:
			req.mem.add(seq, op.Kind, op.Key, op.Value)
			puts++
		}
		// Ingested bytes are accounted at user-visible size: for
		// separated values, the value bytes count here (they were
		// ingested) even though the tree only carries a pointer.
		bytes += int64(len(req.userOps[i].Key) + len(req.userOps[i].Value))
		seq++
	}
	// One atomic add per counter per batch: per-op adds ping-pong the
	// counter cache lines across concurrently applying members.
	if puts > 0 {
		db.m.Puts.Add(puts)
	}
	if deletes > 0 {
		db.m.Deletes.Add(deletes)
	}
	db.m.BytesIngested.Add(bytes)
}
