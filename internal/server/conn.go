package server

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"net"
	"slices"
	"time"

	"lsmlab/internal/admission"
	"lsmlab/internal/core"
	"lsmlab/internal/events"
	"lsmlab/internal/trace"
	"lsmlab/internal/wire"
)

// connBufSize sizes the per-connection read and write buffers. The
// read buffer is also the coalescing window: only fully buffered
// pipelined writes fold into one Apply.
const connBufSize = 64 << 10

// conn is one served connection, run by one goroutine: readLoop
// decodes each request, executes it and writes its response into bw,
// in arrival order (which is what makes per-connection
// read-your-writes trivial). bw is flushed before any read that could
// block — when the read buffer holds no complete frame — so a
// pipelined burst is answered with one write, and a client that stops
// reading is cut off by the WriteTimeout deadline every socket write
// carries.
type conn struct {
	s        *Server
	nc       net.Conn
	id       uint64
	remote   string
	openedNs int64

	br *bufio.Reader
	bw *bufio.Writer

	// handleWrites' per-fold scratch, one entry per folded frame; made
	// on the connection's first write, MaxBatchOps long.
	reqs    []request
	tenants []string
}

func newConn(s *Server, nc net.Conn) *conn {
	c := &conn{
		s:        s,
		nc:       nc,
		id:       s.connIDs.Add(1),
		remote:   nc.RemoteAddr().String(),
		openedNs: s.opts.NowNs(),
		br:       bufio.NewReaderSize(nc, connBufSize),
	}
	c.bw = bufio.NewWriterSize(c, connBufSize)
	return c
}

// Write is bw's socket side: every write to the peer is bounded by
// the slow-client timeout.
func (c *conn) Write(p []byte) (int, error) {
	c.nc.SetWriteDeadline(time.Now().Add(c.s.opts.WriteTimeout))
	return c.nc.Write(p)
}

// respond writes one frame into the connection's buffer — the only
// place a frame is written — counting error statuses. It returns false
// once the peer is gone or too slow, and the connection must close.
func (c *conn) respond(status byte, payload []byte) bool {
	if status >= wire.StatusBadRequest {
		c.s.m.NetRequestErrors.Add(1)
	}
	frame := wire.AppendFrame(c.bw.AvailableBuffer(), status, payload)
	if _, err := c.bw.Write(frame); err != nil {
		return false
	}
	c.s.m.NetBytesWritten.Add(int64(len(frame)))
	return true
}

// readLoop decodes and executes requests until the peer closes, an
// unrecoverable protocol error occurs, a write fails, or the server
// drains; then it flushes what is left and tears the connection down.
func (c *conn) readLoop() {
	defer func() {
		c.bw.Flush()
		c.nc.Close()
		c.s.removeConn(c)
		c.s.wg.Done()
	}()
	var scratch []byte
	batch := new(core.Batch)
	for {
		// Flush before any read that could block: no response waits on
		// a request the client has not sent yet.
		if c.bufferedFrame() == 0 && c.bw.Flush() != nil {
			return
		}
		if idle := c.s.opts.IdleTimeout; idle > 0 {
			c.nc.SetReadDeadline(time.Now().Add(idle))
		}
		// Drain check after arming the deadline: Shutdown stores the
		// flag and then kicks the read deadline, so either this load
		// observes it or the pending read aborts.
		if c.s.drain.Load() {
			return
		}
		op, payload, buf, err := wire.ReadFrame(c.br, c.s.opts.MaxRequestBytes, scratch)
		scratch = buf
		if err != nil {
			// Frame-level violations get a structured answer before the
			// connection closes; stream-level errors (EOF, reset, the
			// drain kick) just end the connection.
			switch {
			case errors.Is(err, wire.ErrTooLarge):
				c.respond(wire.StatusTooLarge, []byte(err.Error()))
			case errors.Is(err, wire.ErrMalformed):
				c.respond(wire.StatusBadRequest, []byte(err.Error()))
			}
			return
		}
		c.s.m.NetBytesRead.Add(int64(4 + 1 + len(payload)))
		if !c.handle(op, payload, batch) {
			return
		}
	}
}

// request is one request's accounting stamp, taken when it is read.
type request struct {
	op      byte
	id      uint64 // RequestBegin/RequestEnd JobID
	startNs int64
	traceID uint64 // wire trace id of a traced data verb, else 0
}

// begin stamps one request and announces it.
func (c *conn) begin(op byte, traceID uint64) request {
	c.s.m.NetRequests.Add(1)
	r := request{op: op, id: c.s.reqIDs.Add(1), startNs: c.s.opts.NowNs(), traceID: traceID}
	c.s.emit(events.Event{Type: events.RequestBegin, JobID: r.id, Reason: wire.OpName(op)})
	return r
}

// reply completes one request — its latency, its RequestEnd event,
// its throttle count — and writes its response: an error status
// carries err's text unless the handler supplied a payload (a
// throttle's retry hint, an unknown opcode's name); a traced data
// verb's success carries the trace echo (flagged status, id,
// server-observed nanoseconds). Status 0 writes nothing: a replication
// stream answered in its own frames. It returns false when the
// connection must close.
func (c *conn) reply(r request, status byte, payload []byte, err error) bool {
	now := c.s.opts.NowNs()
	c.s.m.RequestNs.RecordSince(r.startNs, now)
	if status == wire.StatusNotFound {
		err = nil // an answer, not a failure
	}
	c.s.emit(events.Event{Type: events.RequestEnd, JobID: r.id,
		Reason: wire.OpName(r.op), DurationNs: now - r.startNs, Err: err})
	switch {
	case status == 0:
		return true
	case status == wire.StatusThrottled:
		c.s.m.NetThrottled.Add(1)
	case status >= wire.StatusBadRequest:
		if payload == nil {
			payload = []byte(err.Error())
		}
	case r.traceID != 0:
		echo := wire.AppendTraceEcho(make([]byte, 0, 16+len(payload)), r.traceID, now-r.startNs)
		status, payload = status|wire.TraceFlag, append(echo, payload...)
	}
	return c.respond(status, payload)
}

// statusOf maps a request's outcome to its wire status: the one place
// engine and replicator errors become statuses.
func statusOf(err error) byte {
	switch {
	case err == nil:
		return wire.StatusOK
	case errors.Is(err, core.ErrNotFound):
		return wire.StatusNotFound
	case errors.Is(err, wire.ErrMalformed):
		// The replicator judged the request (bad shard, undecodable
		// repair range): the client's fault.
		return wire.StatusBadRequest
	case errors.Is(err, core.ErrClosed):
		return wire.StatusShuttingDown
	case errors.Is(err, core.ErrDegraded):
		// Read-only mode: the refusal is sticky, so the status is the
		// non-retryable kind — clients surface it instead of looping.
		return wire.StatusUnavailable
	case errors.Is(err, core.ErrReplica):
		// A replication follower: nothing is wrong, writes just belong
		// on the leader.
		return wire.StatusReadOnly
	default:
		return wire.StatusInternal
	}
}

// result answers an engine or replicator call: resp on success, the
// error's status otherwise.
func result(resp []byte, err error) (byte, []byte, error) {
	if err != nil {
		return statusOf(err), nil, err
	}
	return wire.StatusOK, resp, nil
}

// handle executes one request frame (plus, for writes, any pipelined
// write frames already buffered behind it) and writes the responses.
// It returns false when the connection must close.
func (c *conn) handle(op byte, payload []byte, batch *core.Batch) bool {
	var traceID uint64
	if wire.IsTracedOp(op) {
		id, rest, err := wire.ReadTraceID(payload)
		if err != nil {
			return c.reply(c.begin(op, 0), wire.StatusBadRequest, nil, err)
		}
		op, payload = wire.BaseOp(op), rest
		// Only the data verbs carry a span and echo; any other verb is
		// answered as if untraced.
		switch op {
		case wire.OpGet, wire.OpPut, wire.OpDelete, wire.OpScan, wire.OpBatch:
			// A flagged frame with no id still wants an echo; mint one so
			// the span and the response carry something findable.
			if id == 0 {
				if id = c.s.db.Tracer().NewID(); id == 0 {
					id = 1
				}
			}
			traceID = id
		}
	}
	if op == wire.OpPut || op == wire.OpDelete {
		return c.handleWrites(op, payload, batch, traceID)
	}
	r := c.begin(op, traceID)
	status, resp, err := c.exec(r, payload, batch)
	return c.reply(r, status, resp, err) && op != wire.OpReplSubscribe
}

// exec runs one request other than PUT/DELETE and returns its answer.
// Request-shape failures answer StatusBadRequest directly; engine and
// replicator errors go through statusOf.
func (c *conn) exec(r request, payload []byte, batch *core.Batch) (byte, []byte, error) {
	switch r.op {
	case wire.OpGet:
		key, rest, err := wire.ReadBytes(payload)
		if err != nil || len(rest) != 0 {
			return wire.StatusBadRequest, nil, wire.ErrMalformed
		}
		tenant := admission.TenantOf(key)
		if d := c.admit(tenant, 1, 0); !d.OK {
			return wire.StatusThrottled, throttlePayload(d, "tenant read quota exceeded"), errThrottled
		}
		v, err := c.s.db.GetTraced(key, r.traceID)
		if err == nil {
			// Response bytes could not be known at admit time; charge
			// them now (the byte bucket absorbs the debt).
			c.s.opts.Admission.Charge(tenant, int64(len(v)))
		}
		return result(v, err)
	case wire.OpScan:
		return c.scan(r, payload)
	case wire.OpBatch:
		batch.Reset()
		costs, err := decodeBatch(payload, batch)
		if err != nil {
			return wire.StatusBadRequest, nil, err
		}
		for _, bc := range costs {
			// Tokens already taken for earlier tenants in a (rare)
			// cross-tenant batch stay spent; refill self-corrects.
			if d := c.admit(bc.tenant, bc.ops, bc.bytes); !d.OK {
				return wire.StatusThrottled, throttlePayload(d, "tenant write quota exceeded"), errThrottled
			}
		}
		err = c.s.db.ApplyTraced(batch, r.traceID)
		if errors.Is(err, core.ErrBackpressure) {
			retry := backpressureRetry(err)
			primary := admission.DefaultTenant
			if len(costs) > 0 {
				primary = costs[0].tenant
			}
			for _, bc := range costs {
				c.s.opts.Admission.Penalize(bc.tenant, retry)
			}
			return c.shed(primary, retry, err)
		}
		return result(nil, err)
	case wire.OpStats:
		verbose := len(payload) > 0 && payload[0] != 0
		return wire.StatusOK, []byte(c.s.Stats().Text(verbose)), nil
	case wire.OpWorkload:
		return result(json.Marshal(c.s.db.Stats().Workload))
	case wire.OpCompact:
		return result(nil, c.s.db.Compact())
	case wire.OpPing:
		return wire.StatusOK, nil, nil
	case wire.OpWatermark:
		vec := c.s.db.SeqVector()
		resp := wire.AppendUvarint(make([]byte, 0, 8+10*len(vec)), uint64(len(vec)))
		for _, seq := range vec {
			resp = wire.AppendUvarint(resp, seq)
		}
		return wire.StatusOK, resp, nil
	case wire.OpHealth:
		h := c.s.db.Stats().Health
		resp := make([]byte, 1, 64)
		if h.Degraded {
			resp[0] = 1
		}
		resp = wire.AppendBytes(resp, []byte(h.Cause))
		resp = wire.AppendBytes(resp, []byte(h.Op))
		resp = wire.AppendBytes(resp, []byte(h.Kind))
		return wire.StatusOK, resp, nil
	case wire.OpReplSubscribe, wire.OpReplAck, wire.OpReplTree, wire.OpReplRepair, wire.OpReplStatus:
		return c.replicate(r.op, payload)
	default:
		// Framing was intact, so the stream is still in sync: answer
		// with a structured error and keep the connection.
		return wire.StatusUnknownOp, []byte(wire.OpName(r.op)), wire.ErrMalformed
	}
}

var errReplDisabled = errors.New("replication not enabled on this server")

// replicate forwards one replication verb to the Replicator.
func (c *conn) replicate(op byte, payload []byte) (byte, []byte, error) {
	repl := c.s.opts.Repl
	if repl == nil {
		return wire.StatusBadRequest, nil, errReplDisabled
	}
	switch op {
	case wire.OpReplSubscribe:
		return c.subscribe(repl, payload)
	case wire.OpReplAck:
		id, rest, err := wire.ReadBytes(payload)
		var shard, seq uint64
		if err == nil {
			shard, rest, err = wire.ReadUvarint(rest)
		}
		if err == nil {
			seq, rest, err = wire.ReadUvarint(rest)
		}
		if err != nil || len(rest) != 0 {
			return wire.StatusBadRequest, nil, wire.ErrMalformed
		}
		err = repl.Ack(string(id), int(shard), seq)
		if err == nil {
			c.s.m.ReplAcks.Add(1)
		}
		return result(nil, err)
	case wire.OpReplTree:
		shard, rest, err := wire.ReadUvarint(payload)
		if err != nil || len(rest) != 0 {
			return wire.StatusBadRequest, nil, wire.ErrMalformed
		}
		return result(repl.Tree(int(shard)))
	case wire.OpReplRepair:
		resp, err := repl.Repair(payload, c.s.opts.MaxRequestBytes-64)
		if err == nil {
			c.s.m.ReplRepairPages.Add(1)
		}
		return result(resp, err)
	default: // OpReplStatus
		return wire.StatusOK, repl.Status(), nil
	}
}

// subscribe converts the connection into a one-way replication
// stream: each payload the Replicator hands to send becomes one
// StatusOK frame, flushed at once (the follower waits on each) under
// the same write deadline as any response, so a slow follower is cut
// off like any slow client. The stream ends the connection — which is
// what tells the follower to resubscribe or repair — and a clean end
// adds no frame of its own.
func (c *conn) subscribe(repl Replicator, payload []byte) (byte, []byte, error) {
	// The follower id matters on acks; the stream itself is anonymous.
	_, rest, err := wire.ReadBytes(payload)
	var shard, after uint64
	if err == nil {
		shard, rest, err = wire.ReadUvarint(rest)
	}
	if err == nil {
		after, rest, err = wire.ReadUvarint(rest)
	}
	if err != nil || len(rest) != 0 || int(shard) >= repl.NumShards() {
		return wire.StatusBadRequest, nil, wire.ErrMalformed
	}
	c.s.m.ReplSubscribes.Add(1)
	send := func(p []byte) bool {
		if len(p) > 0 {
			switch p[0] {
			case wire.ReplFrameData:
				c.s.m.ReplFramesShipped.Add(1)
			case wire.ReplFrameGap:
				c.s.m.ReplGapsSignaled.Add(1)
			}
		}
		return c.respond(wire.StatusOK, p) && c.bw.Flush() == nil
	}
	stopped := func() bool { return c.s.drain.Load() }
	if err := repl.Subscribe(int(shard), after, send, stopped); err != nil {
		return statusOf(err), nil, err
	}
	return 0, nil, nil
}

// handleWrites folds the first write plus any pipelined PUT/DELETE
// frames already sitting in the read buffer into one core.Batch and
// applies it once. Each folded frame remains its own request on the
// wire — its own response, metrics, and events — but the engine sees a
// single Apply, whose commit the leader-based pipeline then coalesces
// with other connections' groups.
func (c *conn) handleWrites(op byte, payload []byte, batch *core.Batch, traceID uint64) bool {
	batch.Reset()
	first := c.begin(op, traceID)
	tenant := writeTenant(payload)
	if d := c.admit(tenant, 1, int64(len(payload))); !d.OK {
		return c.reply(first, wire.StatusThrottled, throttlePayload(d, "tenant write quota exceeded"), errThrottled)
	}
	if err := addWrite(batch, op, payload); err != nil {
		// The first frame was malformed; nothing batched, stream still
		// framed — answer and keep the connection.
		return c.reply(first, wire.StatusBadRequest, nil, err)
	}
	if c.reqs == nil {
		c.reqs = make([]request, 0, c.s.opts.MaxBatchOps)
		c.tenants = make([]string, 0, c.s.opts.MaxBatchOps)
	}
	reqs := append(c.reqs[:0], first)
	tenants := append(c.tenants[:0], tenant)
	// A traced write is never folded with its neighbors: its span (and
	// echoed duration) must describe exactly the one request the client
	// asked about. Group commit still coalesces the WAL writes below.
	if traceID == 0 {
		for len(reqs) < c.s.opts.MaxBatchOps {
			op2, payload2, size, ok := c.peekBufferedWrite()
			if !ok {
				break
			}
			// An over-quota frame stops the fold but stays in the read
			// buffer: the main loop picks it up as its own request and
			// answers it with StatusThrottled, keeping responses FIFO.
			t2 := writeTenant(payload2)
			if d2 := c.admit(t2, 1, int64(len(payload2))); !d2.OK {
				break
			}
			// Validate before consuming: a malformed frame stays in the read
			// buffer, so the main read loop answers it only after this
			// batch's responses are written — responses stay FIFO with
			// requests, which is how the client matches them.
			if err := addWrite(batch, op2, payload2); err != nil {
				break
			}
			reqs = append(reqs, c.begin(op2, 0))
			tenants = append(tenants, t2)
			c.br.Discard(size)
			c.s.m.NetBytesRead.Add(int64(size))
		}
	}
	err := c.s.db.ApplyTraced(batch, traceID)
	shed := errors.Is(err, core.ErrBackpressure)
	var retry time.Duration
	if shed {
		// Scope the shed to the tenants that drove the overload: their
		// buckets are drained by the retry hint, so admission keeps
		// rejecting them for that long while other tenants flow.
		retry = backpressureRetry(err)
		for i, t := range tenants {
			if !slices.Contains(tenants[:i], t) {
				c.s.opts.Admission.Penalize(t, retry)
			}
		}
	}
	alive := true
	for i, r := range reqs {
		status, resp, e := result(nil, err)
		if shed {
			status, resp, e = c.shed(tenants[i], retry, err)
		}
		alive = c.reply(r, status, resp, e) && alive
	}
	return alive
}

// writeTenant extracts the tenant of one PUT/DELETE payload without
// consuming it (malformed payloads land in the default tenant; the
// write itself is then answered as a bad request).
func writeTenant(payload []byte) string {
	key, _, err := wire.ReadBytes(payload)
	if err != nil {
		return admission.DefaultTenant
	}
	return admission.TenantOf(key)
}

// errThrottled annotates RequestEnd events for admission rejections.
var errThrottled = errors.New("throttled: tenant over quota")

// admit meters one data-plane request against its tenant, turning a
// throttle-episode transition into its event.
func (c *conn) admit(tenant string, ops int, bytes int64) admission.Decision {
	d := c.s.opts.Admission.Admit(tenant, ops, bytes)
	c.s.noteThrottle(tenant, d)
	return d
}

// throttlePayload is a StatusThrottled response's body: the
// retry-after hint, then msg.
func throttlePayload(d admission.Decision, msg string) []byte {
	return wire.AppendThrottle(make([]byte, 0, 8+len(msg)), admission.RetryAfterMillis(d.RetryAfter), msg)
}

// shed answers a write aborted by engine backpressure
// (Options.StallTimeout fired under the stalled leader). The abort is
// transient and pre-WAL — nothing was committed — so the answer is the
// retryable StatusThrottled, and the rejection opens the tenant's
// throttle episode like an admission rejection would.
func (c *conn) shed(tenant string, retry time.Duration, err error) (byte, []byte, error) {
	d := admission.Decision{RetryAfter: retry, Entered: c.s.opts.Admission.Shed(tenant)}
	c.s.noteThrottle(tenant, d)
	return wire.StatusThrottled, throttlePayload(d, err.Error()), err
}

// backpressureRetry derives the retry hint for a shed write from how
// long the engine held the writer before aborting — waiting that long
// again is the best single guess for when room appears. Clamped to
// [10ms, 1s].
func backpressureRetry(err error) time.Duration {
	retry := 50 * time.Millisecond
	var be *core.BackpressureError
	if errors.As(err, &be) && be.WaitedNs > 0 {
		retry = time.Duration(be.WaitedNs)
	}
	if retry < 10*time.Millisecond {
		retry = 10 * time.Millisecond
	}
	if retry > time.Second {
		retry = time.Second
	}
	return retry
}

// bufferedFrame returns the size of the next frame when it is already
// fully buffered — reading it cannot block — and 0 otherwise,
// including for a length the frame cap rejects.
func (c *conn) bufferedFrame() int {
	buffered := c.br.Buffered()
	if buffered < 5 {
		return 0
	}
	hdr, _ := c.br.Peek(4) // buffered: cannot block or fail
	n := binary.BigEndian.Uint32(hdr)
	if n == 0 || uint64(n) > uint64(c.s.opts.MaxRequestBytes) || 4+int(n) > buffered {
		return 0
	}
	return 4 + int(n)
}

// peekBufferedWrite returns the next frame without consuming it, but
// only if it is fully buffered (never blocking the coalescing loop)
// and is a PUT or DELETE. Anything else — partial frames, other
// opcodes, malformed lengths — is left for the main read loop.
func (c *conn) peekBufferedWrite() (op byte, payload []byte, size int, ok bool) {
	if size = c.bufferedFrame(); size == 0 {
		return 0, nil, 0, false
	}
	full, _ := c.br.Peek(size) // buffered: cannot block or fail
	op = full[4]
	if op != wire.OpPut && op != wire.OpDelete {
		return 0, nil, 0, false
	}
	return op, full[5:size], size, true
}

// addWrite parses one PUT/DELETE payload into the batch (which copies
// the bytes into its arena, so peeked views are safe to pass).
func addWrite(batch *core.Batch, op byte, payload []byte) error {
	key, rest, err := wire.ReadBytes(payload)
	if err != nil {
		return err
	}
	if op == wire.OpDelete {
		if len(rest) != 0 {
			return wire.ErrMalformed
		}
		batch.Delete(key)
		return nil
	}
	value, rest, err := wire.ReadBytes(rest)
	if err != nil || len(rest) != 0 {
		return wire.ErrMalformed
	}
	batch.Put(key, value)
	return nil
}

// batchCost aggregates one tenant's share of an OpBatch payload, for
// admission: ops entries and their key+value bytes.
type batchCost struct {
	tenant string
	ops    int
	bytes  int64
}

// decodeBatch parses an OpBatch payload into the batch and returns the
// per-tenant admission costs in order of first appearance (almost
// always a single entry; the linear search is cheaper than a map).
func decodeBatch(payload []byte, batch *core.Batch) ([]batchCost, error) {
	count, rest, err := wire.ReadUvarint(payload)
	if err != nil {
		return nil, err
	}
	var costs []batchCost
	charge := func(tenant string, bytes int64) {
		for i := range costs {
			if costs[i].tenant == tenant {
				costs[i].ops++
				costs[i].bytes += bytes
				return
			}
		}
		costs = append(costs, batchCost{tenant: tenant, ops: 1, bytes: bytes})
	}
	for i := uint64(0); i < count; i++ {
		if len(rest) == 0 {
			return nil, wire.ErrTruncated
		}
		kind := rest[0]
		rest = rest[1:]
		var key, value []byte
		key, rest, err = wire.ReadBytes(rest)
		if err != nil {
			return nil, err
		}
		switch kind {
		case wire.BatchPut:
			value, rest, err = wire.ReadBytes(rest)
			if err != nil {
				return nil, err
			}
			batch.Put(key, value)
			charge(admission.TenantOf(key), int64(len(key)+len(value)))
		case wire.BatchDelete:
			batch.Delete(key)
			charge(admission.TenantOf(key), int64(len(key)))
		default:
			return nil, wire.ErrMalformed
		}
	}
	if len(rest) != 0 {
		return nil, wire.ErrMalformed
	}
	return costs, nil
}

// scan answers one prefix scan, capped by MaxScanLimit, by response
// size (so the frame never exceeds what a peer with the same frame cap
// will accept), and by the per-request deadline (checked while
// iterating, so a pathological range cannot pin the connection past
// its budget).
func (c *conn) scan(r request, payload []byte) (status byte, resp []byte, err error) {
	// The server-side scan drives its own iterator (size and deadline
	// caps), so it spans itself rather than going through core.Scan.
	var sp *trace.Span
	if r.traceID != 0 {
		if tr := c.s.db.Tracer(); tr != nil {
			sp = tr.StartID(trace.OpScan, r.traceID)
			sp.Retain()
			defer tr.Finish(sp)
		}
	}
	defer func() { sp.SetErr(err) }()
	prefix, rest, err := wire.ReadBytes(payload)
	if err != nil {
		return wire.StatusBadRequest, nil, err
	}
	limit64, rest, err := wire.ReadUvarint(rest)
	if err != nil || len(rest) != 0 {
		return wire.StatusBadRequest, nil, wire.ErrMalformed
	}
	limit := int(limit64)
	if limit <= 0 || limit > c.s.opts.MaxScanLimit {
		limit = c.s.opts.MaxScanLimit
	}
	tenant := admission.TenantOf(prefix)
	if d := c.admit(tenant, 1, 0); !d.OK {
		return wire.StatusThrottled, throttlePayload(d, "tenant scan quota exceeded"), errThrottled
	}
	var deadlineNs int64
	if c.s.opts.RequestTimeout > 0 {
		deadlineNs = c.s.opts.NowNs() + int64(c.s.opts.RequestTimeout)
	}

	it, err := c.s.db.NewRangeIter(prefix, prefixEnd(prefix))
	if err != nil {
		return result(nil, err)
	}
	defer it.Close()
	// Stop before the response frame outgrows MaxRequestBytes: a client
	// enforcing the same cap on responses would otherwise reject the
	// frame and poison its connection. 32 bytes of headroom covers the
	// count uvarint and the frame's own op byte.
	maxBody := c.s.opts.MaxRequestBytes - 32
	body := make([]byte, 0, 512)
	count := 0
	scanned := 0
	iterStart := r.startNs
	for ok := it.First(); ok && count < limit; ok = it.Next() {
		// The deadline ticks on keys visited, not keys returned: a scan
		// skipping past a foreign namespace must still stay in budget.
		scanned++
		if deadlineNs != 0 && scanned%64 == 0 && c.s.opts.NowNs() > deadlineNs {
			return wire.StatusDeadline, nil, errors.New("scan exceeded request deadline")
		}
		// Namespace clamp: tenants interleave lexicographically (the
		// default namespace's separator-free keys sort among everyone
		// else's prefixes), so a scan whose prefix spans a boundary —
		// "", or a partial prefix like "acm" — is filtered to the
		// caller's own tenant key by key.
		if admission.TenantOf(it.Key()) != tenant {
			continue
		}
		if len(body)+len(it.Key())+len(it.Value())+2*binary.MaxVarintLen32 > maxBody {
			break
		}
		body = wire.AppendBytes(body, it.Key())
		body = wire.AppendBytes(body, it.Value())
		count++
	}
	if err := it.Err(); err != nil {
		return result(nil, err)
	}
	if sp != nil {
		sp.StageSince("iterate", iterStart, c.s.opts.NowNs())
		sp.AddEntries(count)
		sp.AddBytes(int64(len(body)))
	}
	resp = wire.AppendUvarint(make([]byte, 0, len(body)+4), uint64(count))
	resp = append(resp, body...)
	c.s.opts.Admission.Charge(tenant, int64(len(resp)))
	return wire.StatusOK, resp, nil
}

// prefixEnd returns the smallest key greater than every key with the
// given prefix, or nil when no upper bound exists (empty or all-0xFF
// prefixes scan to the end).
func prefixEnd(prefix []byte) []byte {
	for i := len(prefix) - 1; i >= 0; i-- {
		if prefix[i] != 0xFF {
			end := append([]byte(nil), prefix[:i+1]...)
			end[i]++
			return end
		}
	}
	return nil
}
