package replica

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"lsmlab/internal/core"
	"lsmlab/internal/kv"
	"lsmlab/internal/record"
	"lsmlab/internal/vfs"
	"lsmlab/internal/wal"
	"lsmlab/internal/wire"
)

// errGap marks a stream session that ended because the contiguous WAL
// feed broke — a gap frame from the leader, a hole in the shipped
// sequence numbers, or a frame that failed its checksum. The shard loop
// answers every one of these the same way: Merkle repair, then
// resubscribe from the adopted watermark.
var errGap = errors.New("replica: replication stream gap")

// ReceiverOptions configures a Receiver.
type ReceiverOptions struct {
	// Leader is the leader server's address.
	Leader string
	// ID identifies this follower in acks and leader status. Defaults
	// to Dir.
	ID string
	// FS and Dir locate the replication state file (REPL), kept next to
	// the follower's store.
	FS  vfs.FS
	Dir string
	// Shards are the follower's shard stores in shard order, each opened
	// with core.Options.Replica. The count must match the leader's.
	Shards []*core.DB
	// Ranges is the Merkle fan-out; must match nothing (trees carry
	// their own width) but defaults to DefaultRanges like the leader.
	Ranges int
	// AckInterval paces the durability cycle: WAL sync, state-file
	// persist, ack to the leader. Default 50ms.
	AckInterval time.Duration
	// SessionLength bounds one subscription session; when it elapses the
	// shard runs its periodic anti-entropy check (the only detector for
	// silent local bit rot) and resubscribes. Default 30s.
	SessionLength time.Duration
	// StreamTimeout is how long a subscription tolerates silence before
	// declaring the leader dead; must comfortably exceed the leader's
	// heartbeat cadence. Default 2s.
	StreamTimeout time.Duration
	// RPCTimeout bounds one repair round trip (the leader may scan a
	// full shard to answer). Default 30s.
	RPCTimeout time.Duration
	// Backoff is the pause before redialing after a failure. Default
	// 100ms.
	Backoff time.Duration
	// MaxFrame caps response frames. Default wire.DefaultMaxFrame.
	MaxFrame int
	// Dial opens connections to the leader; default net.Dial("tcp", …).
	Dial func(addr string) (net.Conn, error)
	// Logf receives diagnostic messages; default discards.
	Logf func(format string, args ...any)
}

func (o ReceiverOptions) withDefaults() ReceiverOptions {
	if o.ID == "" {
		o.ID = o.Dir
	}
	if o.Ranges <= 0 {
		o.Ranges = DefaultRanges
	}
	if o.AckInterval <= 0 {
		o.AckInterval = 50 * time.Millisecond
	}
	if o.SessionLength <= 0 {
		o.SessionLength = 30 * time.Second
	}
	if o.StreamTimeout <= 0 {
		o.StreamTimeout = 2 * time.Second
	}
	if o.RPCTimeout <= 0 {
		o.RPCTimeout = 30 * time.Second
	}
	if o.Backoff <= 0 {
		o.Backoff = 100 * time.Millisecond
	}
	if o.MaxFrame <= 0 {
		o.MaxFrame = wire.DefaultMaxFrame
	}
	if o.Dial == nil {
		o.Dial = func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, 5*time.Second)
		}
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// Receiver is the follower half of replication: per shard, it
// subscribes to the leader's WAL stream and applies batches in shipped
// order through the store's replica path, falling back to Merkle
// anti-entropy whenever the contiguous feed breaks — and proactively at
// every session boundary, which is what heals silent local bit rot. A
// durability cycle (WAL sync → state-file persist → ack) runs on
// AckInterval, so the persisted applied-through watermark never claims
// more than the local log durably holds.
type Receiver struct {
	opts ReceiverOptions

	// applied[i] is shard i's applied-through *leader* sequence number:
	// the replication watermark that follower-side read-your-writes
	// tokens are checked against (the follower's own sequence space is
	// private to it). Starts at the sentinel 1.
	applied []atomic.Uint64
	// leaderSeen[i] is the latest leader visibility watermark observed
	// on shard i's stream — the lag denominator.
	leaderSeen []atomic.Uint64

	batches       atomic.Uint64
	gaps          atomic.Uint64
	corruptFrames atomic.Uint64
	repairRounds  atomic.Uint64
	repairOps     atomic.Uint64
	acks          atomic.Uint64

	stopc   chan struct{}
	stopped atomic.Bool
	wg      sync.WaitGroup

	mu    sync.Mutex
	conns map[net.Conn]struct{}

	stateMu sync.Mutex
}

// NewReceiver validates the options, loads the persisted replication
// state (absent or damaged state degrades safely to "nothing applied" —
// the first session repairs), and returns a Receiver ready to Start.
func NewReceiver(opts ReceiverOptions) (*Receiver, error) {
	opts = opts.withDefaults()
	if len(opts.Shards) == 0 {
		return nil, errors.New("replica: no shards")
	}
	for i, db := range opts.Shards {
		if !db.IsReplica() {
			return nil, fmt.Errorf("replica: shard %d not opened with Options.Replica", i)
		}
	}
	r := &Receiver{
		opts:       opts,
		applied:    make([]atomic.Uint64, len(opts.Shards)),
		leaderSeen: make([]atomic.Uint64, len(opts.Shards)),
		stopc:      make(chan struct{}),
		conns:      make(map[net.Conn]struct{}),
	}
	vec := loadState(opts.FS, opts.Dir, len(opts.Shards))
	for i, s := range vec {
		r.applied[i].Store(s)
	}
	return r, nil
}

// Start launches the per-shard replication loops and the durability/ack
// loop.
func (r *Receiver) Start() {
	for i := range r.opts.Shards {
		r.wg.Add(1)
		go func(shard int) {
			defer r.wg.Done()
			r.shardLoop(shard)
		}(i)
	}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		r.ackLoop()
	}()
}

// Stop halts every loop, severs leader connections, runs one final
// durability cycle, and waits for the goroutines to exit.
func (r *Receiver) Stop() {
	if r.stopped.Swap(true) {
		return
	}
	close(r.stopc)
	r.mu.Lock()
	for nc := range r.conns {
		nc.Close()
	}
	r.mu.Unlock()
	r.wg.Wait()
	r.persist(r.AppliedVector())
}

// AppliedVector returns the per-shard applied-through leader sequence
// numbers — the follower's watermark in the leader's denomination. A
// follower server reports this as its SeqVector, which is what makes
// read-your-writes tokens (minted on the leader) checkable here.
func (r *Receiver) AppliedVector() []uint64 {
	vec := make([]uint64, len(r.applied))
	for i := range r.applied {
		vec[i] = r.applied[i].Load()
	}
	return vec
}

// SeqVector is AppliedVector under the name the server's Engine
// interface uses, so a follower engine wrapper can delegate to it.
func (r *Receiver) SeqVector() []uint64 { return r.AppliedVector() }

// LeaderVector returns the latest leader visibility watermarks observed
// per shard.
func (r *Receiver) LeaderVector() []uint64 {
	vec := make([]uint64, len(r.leaderSeen))
	for i := range r.leaderSeen {
		vec[i] = r.leaderSeen[i].Load()
	}
	return vec
}

// Stats is a snapshot of the receiver's counters.
type Stats struct {
	// Batches counts shipped WAL batches applied.
	Batches uint64
	// Gaps counts stream sessions that ended in a gap (leader-signaled,
	// sequence hole, or corrupt frame).
	Gaps uint64
	// CorruptFrames counts shipped frames that failed their checksum.
	CorruptFrames uint64
	// RepairRounds counts Merkle repair passes that re-shipped data;
	// RepairOps counts the puts and deletes they applied.
	RepairRounds uint64
	RepairOps    uint64
	// Acks counts durability cycles acknowledged to the leader.
	Acks uint64
}

// Stats returns the receiver's counters.
func (r *Receiver) Stats() Stats {
	return Stats{
		Batches:       r.batches.Load(),
		Gaps:          r.gaps.Load(),
		CorruptFrames: r.corruptFrames.Load(),
		RepairRounds:  r.repairRounds.Load(),
		RepairOps:     r.repairOps.Load(),
		Acks:          r.acks.Load(),
	}
}

func (r *Receiver) isStopped() bool { return r.stopped.Load() }

// sleep pauses for d, returning false if the receiver stopped first.
func (r *Receiver) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-r.stopc:
		return false
	case <-t.C:
		return true
	}
}

// dial opens and registers one leader connection; Stop closes every
// registered connection to unblock reads.
func (r *Receiver) dial() (net.Conn, error) {
	nc, err := r.opts.Dial(r.opts.Leader)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	if r.stopped.Load() {
		r.mu.Unlock()
		nc.Close()
		return nil, errors.New("replica: stopped")
	}
	r.conns[nc] = struct{}{}
	r.mu.Unlock()
	return nc, nil
}

func (r *Receiver) release(nc net.Conn) {
	r.mu.Lock()
	delete(r.conns, nc)
	r.mu.Unlock()
	nc.Close()
}

// shardLoop alternates subscription sessions with anti-entropy passes
// until the receiver stops. Every session boundary — gap, error, or the
// periodic session length — funnels into the same repair step, which is
// a cheap tree exchange when nothing diverged.
func (r *Receiver) shardLoop(shard int) {
	for !r.isStopped() {
		err := r.streamOnce(shard)
		if r.isStopped() {
			return
		}
		if err != nil && !errors.Is(err, errGap) {
			r.opts.Logf("replica: shard %d: stream: %v", shard, err)
		}
		if err := r.repairShard(shard); err != nil {
			if !r.isStopped() {
				r.opts.Logf("replica: shard %d: repair: %v", shard, err)
				r.sleep(r.opts.Backoff)
			}
		}
	}
}

// streamOnce runs one subscription session: dial, subscribe after the
// current applied watermark, verify and apply shipped batches in order.
// It returns nil when the session length elapsed (periodic anti-entropy
// is due), errGap when the contiguous feed broke, and the underlying
// error otherwise.
func (r *Receiver) streamOnce(shard int) error {
	db := r.opts.Shards[shard]
	applied := r.applied[shard].Load()
	nc, err := r.dial()
	if err != nil {
		return err
	}
	defer r.release(nc)
	nc.SetWriteDeadline(time.Now().Add(r.opts.StreamTimeout))
	sub := AppendSubscribe(nil, r.opts.ID, shard, applied)
	if _, err := nc.Write(wire.AppendFrame(nil, wire.OpReplSubscribe, sub)); err != nil {
		return err
	}
	br := bufio.NewReaderSize(nc, 64<<10)
	sessionEnd := time.Now().Add(r.opts.SessionLength)
	var scratch []byte
	for {
		if r.isStopped() {
			return nil
		}
		dl := time.Now().Add(r.opts.StreamTimeout)
		if dl.After(sessionEnd) {
			dl = sessionEnd
		}
		nc.SetReadDeadline(dl)
		op, payload, buf, err := wire.ReadFrame(br, r.opts.MaxFrame, scratch)
		scratch = buf
		if err != nil {
			var nerr net.Error
			if errors.As(err, &nerr) && nerr.Timeout() && !time.Now().Before(sessionEnd) {
				return nil // session over: run the periodic anti-entropy check
			}
			return err
		}
		if op != wire.StatusOK {
			return fmt.Errorf("replica: subscribe answered %s: %s", wire.OpName(op), payload)
		}
		kind, w, raw, err := ParseStreamFrame(payload)
		if err != nil {
			return err
		}
		if w > r.leaderSeen[shard].Load() {
			r.leaderSeen[shard].Store(w)
		}
		switch kind {
		case wire.ReplFrameHeartbeat:
			continue
		case wire.ReplFrameGap:
			r.gaps.Add(1)
			return errGap
		case wire.ReplFrameData:
			b, err := wal.DecodeFrame(raw)
			if err != nil {
				// Damaged in flight (or at the leader): the frame carries the
				// leader's original checksum, so never apply it — repair
				// re-bases this shard instead.
				r.corruptFrames.Add(1)
				r.gaps.Add(1)
				return errGap
			}
			last := uint64(b.LastSeq())
			if last <= applied {
				continue // duplicate from the segment's already-applied prefix
			}
			if uint64(b.Seq) != applied+1 {
				r.gaps.Add(1)
				return errGap
			}
			for _, op := range b.Ops {
				if op.Kind == kv.KindValuePointer {
					return errors.New("replica: leader ships value-log pointers; " +
						"key–value separation is not replicable (run the leader without it)")
				}
			}
			if err := db.ReplicaApply(b.Ops); err != nil {
				return err
			}
			applied = last
			r.applied[shard].Store(applied)
			r.batches.Add(1)
		default:
			return fmt.Errorf("replica: unknown stream frame kind 0x%02x", kind)
		}
	}
}

// adopt raises shard's applied watermark to w (never lowers it). Repair
// calls it with the watermark of the tree it converged against: every
// leader write at or below w is now reflected locally, and replaying
// the suffix after w in order reconverges everything newer.
func (r *Receiver) adopt(shard int, w uint64) {
	for {
		cur := r.applied[shard].Load()
		if w <= cur || r.applied[shard].CompareAndSwap(cur, w) {
			return
		}
	}
}

// repairShard runs Merkle anti-entropy for one shard: exchange trees,
// re-ship divergent ranges, repeat until the trees agree (or a bounded
// number of rounds under live load — the resumed stream closes the
// remaining distance). A clean shard costs one tree exchange.
func (r *Receiver) repairShard(shard int) error {
	db := r.opts.Shards[shard]
	rc, err := r.dialRPC()
	if err != nil {
		return err
	}
	defer r.release(rc.nc)
	const maxRounds = 4
	for round := 0; ; round++ {
		if r.isStopped() {
			return nil
		}
		resp, err := rc.call(wire.OpReplTree, wire.AppendUvarint(nil, uint64(shard)))
		if err != nil {
			return err
		}
		lt, err := ParseTree(resp)
		if err != nil {
			return err
		}
		local, err := r.buildLocalTree(db)
		if err != nil {
			return err
		}
		div := local.DivergentRanges(lt)
		if len(div) == 0 {
			r.adopt(shard, lt.Watermark)
			return nil
		}
		if round >= maxRounds {
			// Divergence that persists across rounds under live leader load
			// is expected — the trees chase a moving target. The adopted
			// watermarks make the resumed stream close the distance.
			r.opts.Logf("replica: shard %d: %d ranges still divergent after %d repair rounds; resuming stream",
				shard, len(div), round)
			return nil
		}
		r.repairRounds.Add(1)
		if err := r.repairRanges(db, rc, shard, div); err != nil {
			return err
		}
		r.adopt(shard, lt.Watermark)
	}
}

// buildLocalTree builds this follower's tree, scrubbing and retrying
// once if the scan surfaces corruption (the scrub quarantines damaged
// tables, so the retry sees a clean — if smaller — store whose missing
// entries the repair pass then restores).
func (r *Receiver) buildLocalTree(db *core.DB) (*Tree, error) {
	t, err := BuildTree(db, r.opts.Ranges)
	if err == nil {
		return t, nil
	}
	r.opts.Logf("replica: local tree scan: %v; scrubbing", err)
	if _, serr := db.Scrub(); serr != nil {
		return nil, serr
	}
	return BuildTree(db, r.opts.Ranges)
}

// repairRanges re-ships the divergent ranges: it pages the leader's
// live entries for those ranges (key-ordered) while walking a local
// snapshot of the same ranges, and applies the difference — changed or
// missing entries as puts, local-only keys as deletes — through the
// replica repair path in bounded batches.
func (r *Receiver) repairRanges(db *core.DB, rc *rpcConn, shard int, div []int) error {
	inDiv := make([]bool, r.opts.Ranges)
	for _, d := range div {
		inDiv[d] = true
	}
	it, err := db.NewRangeIter(nil, nil)
	if err != nil {
		return err
	}
	defer it.Close()
	// The iterator is a snapshot: the repair writes below stay invisible
	// to it, so the walk is stable.
	lok := it.First()
	localNext := func() bool {
		for {
			if !lok {
				return false
			}
			if inDiv[RangeOf(it.Key(), r.opts.Ranges)] {
				return true
			}
			lok = it.Next()
		}
	}
	batch := new(core.Batch)
	ops := 0
	flush := func(force bool) error {
		if batch.Len() == 0 || (!force && batch.Len() < 256) {
			return nil
		}
		ops += batch.Len()
		err := db.ReplicaRepair(batch)
		batch.Reset()
		return err
	}

	var resume []byte
	for {
		resp, err := rc.call(wire.OpReplRepair, AppendRepairReq(nil, shard, div, resume))
		if err != nil {
			return err
		}
		pg, err := ParseRepairPage(resp)
		if err != nil {
			return err
		}
		for i := range pg.Keys {
			k, v := pg.Keys[i], pg.Values[i]
			for localNext() && bytes.Compare(it.Key(), k) < 0 {
				batch.Delete(it.Key())
				lok = it.Next()
				if err := flush(false); err != nil {
					return err
				}
			}
			if localNext() && bytes.Equal(it.Key(), k) {
				if !bytes.Equal(it.Value(), v) {
					batch.Put(k, v)
				}
				lok = it.Next()
			} else {
				batch.Put(k, v)
			}
			if err := flush(false); err != nil {
				return err
			}
		}
		if !pg.More || len(pg.Keys) == 0 {
			break
		}
		resume = append(resume[:0], pg.Keys[len(pg.Keys)-1]...)
	}
	// Leader exhausted: every remaining local key in the divergent
	// ranges has no leader counterpart.
	for localNext() {
		batch.Delete(it.Key())
		lok = it.Next()
		if err := flush(false); err != nil {
			return err
		}
	}
	if err := it.Err(); err != nil {
		return err
	}
	if err := flush(true); err != nil {
		return err
	}
	r.repairOps.Add(uint64(ops))
	return nil
}

// ackLoop is the durability cycle: every AckInterval, sync each shard's
// WAL, persist the applied vector, then ack it to the leader — in that
// order, so neither the state file nor the leader ever believes more
// than the local log durably holds.
func (r *Receiver) ackLoop() {
	var rc *rpcConn
	defer func() {
		if rc != nil {
			r.release(rc.nc)
		}
	}()
	for r.sleep(r.opts.AckInterval) {
		vec := r.AppliedVector()
		synced := true
		for _, db := range r.opts.Shards {
			if err := db.SyncWAL(); err != nil {
				r.opts.Logf("replica: wal sync: %v", err)
				synced = false
				break
			}
		}
		if !synced {
			continue
		}
		if err := r.persist(vec); err != nil {
			r.opts.Logf("replica: persist state: %v", err)
			continue
		}
		if rc == nil {
			var err error
			if rc, err = r.dialRPC(); err != nil {
				continue // leader down; acks resume with it
			}
		}
		for shard, seq := range vec {
			if _, err := rc.call(wire.OpReplAck, AppendAck(nil, r.opts.ID, shard, seq)); err != nil {
				r.release(rc.nc)
				rc = nil
				break
			}
		}
		if rc != nil {
			r.acks.Add(1)
		}
	}
}

// ---------------------------------------------------------------------
// Replication state file

// stateName is the follower's replication state file: the applied
// leader-sequence vector as one sealed record,
//
//	magic "LSMREPL1" | count uvarint | count × seq uvarint | CRC-32C u32 LE
//
// It lives in the store directory; the engine's directory scans are
// suffix-filtered, so it is invisible to them. A missing or damaged file
// degrades to "nothing applied", which is safe: the next session starts
// with repair.
const stateName = "REPL"

const stateMagic = "LSMREPL1"

func encodeState(vec []uint64) []byte {
	buf := binary.AppendUvarint([]byte(stateMagic), uint64(len(vec)))
	for _, s := range vec {
		buf = binary.AppendUvarint(buf, s)
	}
	return record.Seal(buf)
}

// decodeState returns the vector of n sequences sealed encodes, with
// each entry at least the sentinel 1; ok is false for any other bytes.
func decodeState(sealed []byte, n int) (vec []uint64, ok bool) {
	payload, ok := record.Unseal(sealed)
	if !ok || !bytes.HasPrefix(payload, []byte(stateMagic)) {
		return nil, false
	}
	d := record.NewDecoder(payload[len(stateMagic):])
	if d.Count(1) != n {
		return nil, false
	}
	vec = make([]uint64, n)
	for i := range vec {
		vec[i] = max(d.Uvarint(), 1)
	}
	return vec, !d.Corrupt()
}

// persist writes the applied vector durably and atomically.
func (r *Receiver) persist(vec []uint64) error {
	r.stateMu.Lock()
	defer r.stateMu.Unlock()
	return vfs.WriteFileAtomic(r.opts.FS, vfs.Join(r.opts.Dir, stateName), encodeState(vec))
}

// loadState reads the persisted applied vector, returning sentinel 1s
// (nothing applied) for a missing, damaged, or mis-sized file.
func loadState(fs vfs.FS, dir string, n int) []uint64 {
	if f, err := fs.Open(vfs.Join(dir, stateName)); err == nil {
		defer f.Close()
		if size, err := f.Size(); err == nil && size <= 1<<20 {
			buf := make([]byte, size)
			if _, err := f.ReadAt(buf, 0); err == nil {
				if vec, ok := decodeState(buf, n); ok {
					return vec
				}
			}
		}
	}
	vec := make([]uint64, n)
	for i := range vec {
		vec[i] = 1
	}
	return vec
}

// ---------------------------------------------------------------------
// Request/response connection to the leader

// rpcConn is a plain request/response connection for the ack and repair
// verbs (the subscription stream runs on its own connection). Calls are
// sequential; responses alias an internal buffer valid until the next
// call.
type rpcConn struct {
	nc      net.Conn
	br      *bufio.Reader
	scratch []byte
	timeout time.Duration
	max     int
}

func (r *Receiver) dialRPC() (*rpcConn, error) {
	nc, err := r.dial()
	if err != nil {
		return nil, err
	}
	return &rpcConn{nc: nc, br: bufio.NewReaderSize(nc, 64<<10),
		timeout: r.opts.RPCTimeout, max: r.opts.MaxFrame}, nil
}

func (c *rpcConn) call(op byte, payload []byte) ([]byte, error) {
	c.nc.SetDeadline(time.Now().Add(c.timeout))
	if _, err := c.nc.Write(wire.AppendFrame(nil, op, payload)); err != nil {
		return nil, err
	}
	status, resp, buf, err := wire.ReadFrame(c.br, c.max, c.scratch)
	c.scratch = buf
	if err != nil {
		return nil, err
	}
	if status != wire.StatusOK {
		return nil, fmt.Errorf("replica: %s answered %s: %s",
			wire.OpName(op), wire.OpName(status), resp)
	}
	return resp, nil
}
