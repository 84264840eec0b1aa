package server

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"net"
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

// conn is one served connection. The read goroutine decodes and
// executes requests in arrival order (which is what makes per-
// connection read-your-writes trivial); encoded responses flow through
// out to the write goroutine, so reading request N+1 overlaps with
// writing response N.
type conn struct {
	s        *Server
	nc       net.Conn
	id       uint64
	remote   string
	openedNs int64

	br *bufio.Reader

	// out carries encoded response frames in request order. The reader
	// blocks here when the writer backs up — natural backpressure from
	// a slow client to its own pipeline.
	out chan []byte

	// wdead is closed when the write goroutine dies early (write
	// timeout or error), unblocking a reader mid-send.
	wdead chan struct{}

	// handleWrites' per-fold scratch, one entry per folded frame; made
	// on the connection's first write, MaxBatchOps long.
	dones   []func(error)
	tenants []string
}

func newConn(s *Server, nc net.Conn) *conn {
	return &conn{
		s:        s,
		nc:       nc,
		id:       s.connIDs.Add(1),
		remote:   nc.RemoteAddr().String(),
		openedNs: s.opts.NowNs(),
		br:       bufio.NewReaderSize(nc, connBufSize),
		out:      make(chan []byte, 128),
		wdead:    make(chan struct{}),
	}
}

// send queues one encoded response frame, failing if the writer died.
func (c *conn) send(frame []byte) bool {
	select {
	case c.out <- frame:
		return true
	case <-c.wdead:
		return false
	}
}

// respond encodes and queues one response. Error statuses are counted.
func (c *conn) respond(status byte, payload []byte) bool {
	if status >= wire.StatusBadRequest {
		c.s.m.NetRequestErrors.Add(1)
	}
	return c.send(wire.AppendFrame(nil, status, payload))
}

func (c *conn) respondErr(status byte, err error) bool {
	return c.respond(status, []byte(err.Error()))
}

// readLoop decodes and executes requests until the peer closes, an
// unrecoverable protocol error occurs, or the server drains. It owns
// the out channel: closing it tells the writer to flush and tear the
// connection down.
func (c *conn) readLoop() {
	defer c.s.wg.Done()
	defer close(c.out)
	var scratch []byte
	batch := new(core.Batch)
	for {
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
				c.respondErr(wire.StatusTooLarge, err)
			case errors.Is(err, wire.ErrMalformed):
				c.respondErr(wire.StatusBadRequest, err)
			}
			return
		}
		c.s.m.NetBytesRead.Add(int64(4 + 1 + len(payload)))
		if !c.handle(op, payload, batch) {
			return
		}
	}
}

// writeLoop writes queued responses, flushing whenever the queue goes
// idle, each write bounded by the slow-client timeout. It performs the
// connection's final teardown.
func (c *conn) writeLoop() {
	defer c.s.wg.Done()
	defer c.s.removeConn(c)
	defer c.nc.Close()
	bw := bufio.NewWriterSize(c.nc, connBufSize)
	fail := func() {
		close(c.wdead)
		c.nc.Close() // unblocks the reader too
		for range c.out {
		} // discard queued responses so the reader never wedges
	}
	for frame := range c.out {
		c.nc.SetWriteDeadline(time.Now().Add(c.s.opts.WriteTimeout))
		if _, err := bw.Write(frame); err != nil {
			fail()
			return
		}
		c.s.m.NetBytesWritten.Add(int64(len(frame)))
		if len(c.out) == 0 {
			if err := bw.Flush(); err != nil {
				fail()
				return
			}
		}
	}
	c.nc.SetWriteDeadline(time.Now().Add(c.s.opts.WriteTimeout))
	bw.Flush()
}

// beginRequest stamps one request's accounting; the returned func
// completes it.
func (c *conn) beginRequest(op byte) func(err error) {
	c.s.m.NetRequests.Add(1)
	reqID := c.s.reqIDs.Add(1)
	start := c.s.opts.NowNs()
	c.s.emit(events.Event{Type: events.RequestBegin, JobID: reqID, Reason: wire.OpName(op)})
	return func(err error) {
		now := c.s.opts.NowNs()
		c.s.m.RequestNs.RecordSince(start, now)
		c.s.emit(events.Event{Type: events.RequestEnd, JobID: reqID,
			Reason: wire.OpName(op), DurationNs: now - start, Err: err})
	}
}

// traceCtx carries one traced request's wire id and arrival time so
// the response can be flagged and stamped with the server-observed
// duration. The zero value means untraced.
type traceCtx struct {
	id      uint64
	startNs int64
}

// respondTraced answers a request, adding the trace echo — flagged
// status, id, server-observed nanoseconds — when the request was
// traced and the status is a success (error statuses are never
// flagged; every client understands them as-is).
func (c *conn) respondTraced(tc traceCtx, status byte, payload []byte) bool {
	if tc.id == 0 || (status != wire.StatusOK && status != wire.StatusNotFound) {
		return c.respond(status, payload)
	}
	echo := wire.AppendTraceEcho(make([]byte, 0, 16+len(payload)), tc.id,
		c.s.opts.NowNs()-tc.startNs)
	return c.respond(status|wire.TraceFlag, append(echo, payload...))
}

// handle executes one request frame (plus, for writes, any pipelined
// write frames already buffered behind it) and queues the responses.
// It returns false when the connection must close.
func (c *conn) handle(op byte, payload []byte, batch *core.Batch) bool {
	var tc traceCtx
	if wire.IsTracedOp(op) {
		id, rest, err := wire.ReadTraceID(payload)
		if err != nil {
			done := c.beginRequest(op)
			done(err)
			return c.respondErr(wire.StatusBadRequest, err)
		}
		if id == 0 {
			// A flagged frame with no id still wants an echo; mint one so
			// the span and the response carry something findable.
			if id = c.s.db.Tracer().NewID(); id == 0 {
				id = 1
			}
		}
		tc = traceCtx{id: id, startNs: c.s.opts.NowNs()}
		op, payload = wire.BaseOp(op), rest
	}
	switch op {
	case wire.OpPut, wire.OpDelete:
		return c.handleWrites(op, payload, batch, tc)
	case wire.OpGet:
		done := c.beginRequest(op)
		key, rest, err := wire.ReadBytes(payload)
		if err != nil || len(rest) != 0 {
			done(wire.ErrMalformed)
			return c.respondErr(wire.StatusBadRequest, wire.ErrMalformed)
		}
		tenant := admission.TenantOf(key)
		if d := c.s.opts.Admission.Admit(tenant, 1, 0); !d.OK {
			done(errThrottled)
			return c.respondThrottled(tenant, d, "tenant read quota exceeded")
		} else {
			c.s.noteThrottle(tenant, d)
		}
		v, err := c.s.db.GetTraced(key, tc.id)
		switch {
		case errors.Is(err, core.ErrNotFound):
			done(nil)
			return c.respondTraced(tc, wire.StatusNotFound, nil)
		case errors.Is(err, core.ErrClosed):
			done(err)
			return c.respondErr(wire.StatusShuttingDown, err)
		case err != nil:
			done(err)
			return c.respondErr(wire.StatusInternal, err)
		}
		// Response bytes could not be known at admit time; charge them
		// now (the byte bucket absorbs the debt).
		c.s.opts.Admission.Charge(tenant, int64(len(v)))
		done(nil)
		return c.respondTraced(tc, wire.StatusOK, v)
	case wire.OpScan:
		return c.handleScan(payload, tc)
	case wire.OpBatch:
		done := c.beginRequest(op)
		batch.Reset()
		costs, err := decodeBatch(payload, batch)
		if err != nil {
			done(err)
			return c.respondErr(wire.StatusBadRequest, err)
		}
		for _, bc := range costs {
			d := c.s.opts.Admission.Admit(bc.tenant, bc.ops, bc.bytes)
			if !d.OK {
				// Tokens already taken for earlier tenants in a (rare)
				// cross-tenant batch stay spent; refill self-corrects.
				done(errThrottled)
				return c.respondThrottled(bc.tenant, d, "tenant write quota exceeded")
			}
			c.s.noteThrottle(bc.tenant, d)
		}
		err = c.s.db.ApplyTraced(batch, tc.id)
		if errors.Is(err, core.ErrBackpressure) {
			retry := backpressureRetry(err)
			for _, bc := range costs[1:] {
				c.s.opts.Admission.Penalize(bc.tenant, retry)
			}
			primary := admission.DefaultTenant
			if len(costs) > 0 {
				primary = costs[0].tenant
			}
			return c.shedWrites(err, []func(error){done}, []string{primary})
		}
		done(err)
		return c.respondApplyTraced(tc, err)
	case wire.OpStats:
		done := c.beginRequest(op)
		verbose := len(payload) > 0 && payload[0] != 0
		text := c.s.Stats().Text(verbose)
		done(nil)
		return c.respond(wire.StatusOK, []byte(text))
	case wire.OpWorkload:
		done := c.beginRequest(op)
		body, err := json.Marshal(c.s.db.Stats().Workload)
		done(err)
		if err != nil {
			return c.respondErr(wire.StatusInternal, err)
		}
		return c.respond(wire.StatusOK, body)
	case wire.OpCompact:
		done := c.beginRequest(op)
		err := c.s.db.Compact()
		done(err)
		return c.respondApply(err)
	case wire.OpPing:
		done := c.beginRequest(op)
		done(nil)
		return c.respond(wire.StatusOK, nil)
	case wire.OpWatermark:
		done := c.beginRequest(op)
		vec := c.s.db.SeqVector()
		resp := wire.AppendUvarint(make([]byte, 0, 8+10*len(vec)), uint64(len(vec)))
		for _, seq := range vec {
			resp = wire.AppendUvarint(resp, seq)
		}
		done(nil)
		return c.respond(wire.StatusOK, resp)
	case wire.OpHealth:
		done := c.beginRequest(op)
		h := c.s.db.Stats().Health
		resp := make([]byte, 1, 64)
		if h.Degraded {
			resp[0] = 1
		}
		resp = wire.AppendBytes(resp, []byte(h.Cause))
		resp = wire.AppendBytes(resp, []byte(h.Op))
		resp = wire.AppendBytes(resp, []byte(h.Kind))
		done(nil)
		return c.respond(wire.StatusOK, resp)
	case wire.OpReplSubscribe:
		return c.handleReplSubscribe(payload)
	case wire.OpReplAck:
		done := c.beginRequest(op)
		repl := c.s.opts.Repl
		if repl == nil {
			done(errReplDisabled)
			return c.respondErr(wire.StatusBadRequest, errReplDisabled)
		}
		id, rest, err := wire.ReadBytes(payload)
		var shard, seq uint64
		if err == nil {
			shard, rest, err = wire.ReadUvarint(rest)
		}
		if err == nil {
			seq, rest, err = wire.ReadUvarint(rest)
		}
		if err != nil || len(rest) != 0 {
			done(wire.ErrMalformed)
			return c.respondErr(wire.StatusBadRequest, wire.ErrMalformed)
		}
		err = repl.Ack(string(id), int(shard), seq)
		if err == nil {
			c.s.m.ReplAcks.Add(1)
		}
		done(err)
		return c.respondRepl(err, nil)
	case wire.OpReplTree:
		done := c.beginRequest(op)
		repl := c.s.opts.Repl
		if repl == nil {
			done(errReplDisabled)
			return c.respondErr(wire.StatusBadRequest, errReplDisabled)
		}
		shard, rest, err := wire.ReadUvarint(payload)
		if err != nil || len(rest) != 0 {
			done(wire.ErrMalformed)
			return c.respondErr(wire.StatusBadRequest, wire.ErrMalformed)
		}
		resp, err := repl.Tree(int(shard))
		done(err)
		return c.respondRepl(err, resp)
	case wire.OpReplRepair:
		done := c.beginRequest(op)
		repl := c.s.opts.Repl
		if repl == nil {
			done(errReplDisabled)
			return c.respondErr(wire.StatusBadRequest, errReplDisabled)
		}
		resp, err := repl.Repair(payload, c.s.opts.MaxRequestBytes-64)
		if err == nil {
			c.s.m.ReplRepairPages.Add(1)
		}
		done(err)
		return c.respondRepl(err, resp)
	case wire.OpReplStatus:
		done := c.beginRequest(op)
		repl := c.s.opts.Repl
		if repl == nil {
			done(errReplDisabled)
			return c.respondErr(wire.StatusBadRequest, errReplDisabled)
		}
		done(nil)
		return c.respond(wire.StatusOK, repl.Status())
	default:
		// Framing was intact, so the stream is still in sync: answer
		// with a structured error and keep the connection.
		done := c.beginRequest(op)
		done(wire.ErrMalformed)
		return c.respond(wire.StatusUnknownOp, []byte(wire.OpName(op)))
	}
}

var errReplDisabled = errors.New("replication not enabled on this server")

// respondRepl maps a Replicator error to a response status: malformed
// requests (bad shard, undecodable payload) are the client's fault,
// everything else is internal.
func (c *conn) respondRepl(err error, resp []byte) bool {
	switch {
	case err == nil:
		return c.respond(wire.StatusOK, resp)
	case errors.Is(err, wire.ErrMalformed):
		return c.respondErr(wire.StatusBadRequest, err)
	default:
		return c.respondErr(wire.StatusInternal, err)
	}
}

// handleReplSubscribe converts the connection into a one-way
// replication stream: the Replicator's send callback queues StatusOK
// frames through the ordinary write goroutine (so slow-follower
// backpressure and write timeouts apply unchanged), and the read loop
// stays parked in the stream until it ends — at which point the
// connection closes, which is what tells the follower to resubscribe
// or repair.
func (c *conn) handleReplSubscribe(payload []byte) bool {
	done := c.beginRequest(wire.OpReplSubscribe)
	repl := c.s.opts.Repl
	if repl == nil {
		done(errReplDisabled)
		c.respondErr(wire.StatusBadRequest, errReplDisabled)
		return false
	}
	id, rest, err := wire.ReadBytes(payload)
	var shard, after uint64
	if err == nil {
		shard, rest, err = wire.ReadUvarint(rest)
	}
	if err == nil {
		after, rest, err = wire.ReadUvarint(rest)
	}
	if err != nil || len(rest) != 0 || int(shard) >= repl.NumShards() {
		done(wire.ErrMalformed)
		c.respondErr(wire.StatusBadRequest, wire.ErrMalformed)
		return false
	}
	_ = id // identity matters on acks; the stream itself is anonymous
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
		return c.respond(wire.StatusOK, p)
	}
	stopped := func() bool { return c.s.drain.Load() }
	err = repl.Subscribe(int(shard), after, send, stopped)
	done(err)
	if err != nil {
		c.respondErr(wire.StatusBadRequest, err)
	}
	return false
}

// respondApply maps an Apply/Compact error to a response status.
func (c *conn) respondApply(err error) bool {
	return c.respondApplyTraced(traceCtx{}, err)
}

// respondApplyTraced is respondApply with the request's trace echo on
// the success path.
func (c *conn) respondApplyTraced(tc traceCtx, err error) bool {
	switch {
	case err == nil:
		return c.respondTraced(tc, wire.StatusOK, nil)
	case errors.Is(err, core.ErrClosed):
		return c.respondErr(wire.StatusShuttingDown, err)
	case errors.Is(err, core.ErrDegraded):
		// Read-only mode: the refusal is sticky, so the status is the
		// non-retryable kind — clients surface it instead of looping.
		return c.respondErr(wire.StatusUnavailable, err)
	case errors.Is(err, core.ErrReplica):
		// A replication follower: nothing is wrong, writes just belong
		// on the leader.
		return c.respondErr(wire.StatusReadOnly, err)
	default:
		return c.respondErr(wire.StatusInternal, err)
	}
}

// handleWrites folds the first write plus any pipelined PUT/DELETE
// frames already sitting in the read buffer into one core.Batch and
// applies it once. Each folded frame remains its own request on the
// wire — its own response, metrics, and events — but the engine sees a
// single Apply, whose commit the leader-based pipeline then coalesces
// with other connections' groups.
func (c *conn) handleWrites(op byte, payload []byte, batch *core.Batch, tc traceCtx) bool {
	batch.Reset()
	done := c.beginRequest(op)
	adm := c.s.opts.Admission
	tenant := writeTenant(payload)
	if d := adm.Admit(tenant, 1, int64(len(payload))); !d.OK {
		done(errThrottled)
		return c.respondThrottled(tenant, d, "tenant write quota exceeded")
	} else {
		c.s.noteThrottle(tenant, d)
	}
	if err := addWrite(batch, op, payload); err != nil {
		// The first frame was malformed; nothing batched, stream still
		// framed — answer and keep the connection.
		done(err)
		return c.respondErr(wire.StatusBadRequest, err)
	}
	if c.dones == nil {
		c.dones = make([]func(error), 0, c.s.opts.MaxBatchOps)
		c.tenants = make([]string, 0, c.s.opts.MaxBatchOps)
	}
	dones := append(c.dones[:0], done)
	tenants := append(c.tenants[:0], tenant)
	// A traced write is never folded with its neighbors: its span (and
	// echoed duration) must describe exactly the one request the client
	// asked about. Group commit still coalesces the WAL writes below.
	if tc.id == 0 {
		for len(dones) < c.s.opts.MaxBatchOps {
			op2, payload2, size, ok := c.peekBufferedWrite()
			if !ok {
				break
			}
			// An over-quota frame stops the fold but stays in the read
			// buffer: the main loop picks it up as its own request and
			// answers it with StatusThrottled, keeping responses FIFO.
			t2 := writeTenant(payload2)
			d2 := adm.Admit(t2, 1, int64(len(payload2)))
			if !d2.OK {
				break
			}
			c.s.noteThrottle(t2, d2)
			// Validate before consuming: a malformed frame stays in the read
			// buffer, so the main read loop answers it only after this
			// batch's responses are queued — responses stay FIFO with
			// requests, which is how the client matches them.
			if err := addWrite(batch, op2, payload2); err != nil {
				break
			}
			dones = append(dones, c.beginRequest(op2))
			tenants = append(tenants, t2)
			c.br.Discard(size)
			c.s.m.NetBytesRead.Add(int64(size))
		}
	}
	err := c.s.db.ApplyTraced(batch, tc.id)
	if errors.Is(err, core.ErrBackpressure) {
		return c.shedWrites(err, dones, tenants)
	}
	alive := true
	for i, d := range dones {
		d(err)
		ok := false
		if i == 0 {
			ok = c.respondApplyTraced(tc, err)
		} else {
			ok = c.respondApply(err)
		}
		if !ok {
			alive = false
		}
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

// respondThrottled answers one request with StatusThrottled carrying
// the retry-after hint, counting it and opening a throttle episode
// when this rejection is the transition into one.
func (c *conn) respondThrottled(tenant string, d admission.Decision, msg string) bool {
	c.s.m.NetThrottled.Add(1)
	c.s.noteThrottle(tenant, d)
	payload := wire.AppendThrottle(make([]byte, 0, 8+len(msg)),
		admission.RetryAfterMillis(d.RetryAfter), msg)
	return c.respond(wire.StatusThrottled, payload)
}

// shedWrites answers writes aborted by engine backpressure
// (Options.StallTimeout fired under the stalled leader). The abort is
// transient and pre-WAL — nothing was committed — so the response is
// the retryable StatusThrottled, scoped to the tenants that drove the
// overload: their buckets are drained by the retry hint, so admission
// keeps rejecting them for that long while other tenants' requests
// flow untouched.
func (c *conn) shedWrites(err error, dones []func(error), tenants []string) bool {
	retry := backpressureRetry(err)
	adm := c.s.opts.Admission
	seen := make(map[string]bool, 2)
	for _, t := range tenants {
		if !seen[t] {
			seen[t] = true
			adm.Penalize(t, retry)
		}
	}
	msg := err.Error()
	alive := true
	for i, done := range dones {
		done(err)
		d := admission.Decision{RetryAfter: retry, Entered: adm.Shed(tenants[i])}
		if !c.respondThrottled(tenants[i], d, msg) {
			alive = false
		}
	}
	return alive
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

// peekBufferedWrite returns the next frame without consuming it, but
// only if it is fully buffered (never blocking the coalescing loop)
// and is a PUT or DELETE. Anything else — partial frames, other
// opcodes, malformed lengths — is left for the main read loop.
func (c *conn) peekBufferedWrite() (op byte, payload []byte, size int, ok bool) {
	buffered := c.br.Buffered()
	if buffered < 5 {
		return 0, nil, 0, false
	}
	hdr, err := c.br.Peek(4)
	if err != nil {
		return 0, nil, 0, false
	}
	n := binary.BigEndian.Uint32(hdr)
	if n == 0 || uint64(n) > uint64(c.s.opts.MaxRequestBytes) {
		return 0, nil, 0, false
	}
	size = 4 + int(n)
	if size > buffered {
		return 0, nil, 0, false
	}
	full, err := c.br.Peek(size)
	if err != nil {
		return 0, nil, 0, false
	}
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

// handleScan answers one prefix scan, capped by MaxScanLimit, by
// response size (so the frame never exceeds what a peer with the same
// frame cap will accept), and by the per-request deadline (checked
// while iterating, so a pathological range cannot pin the connection
// past its budget).
func (c *conn) handleScan(payload []byte, tc traceCtx) bool {
	done := c.beginRequest(wire.OpScan)
	// The server-side scan drives its own iterator (size and deadline
	// caps), so it spans itself rather than going through core.Scan.
	var sp *trace.Span
	if tc.id != 0 {
		if tr := c.s.db.Tracer(); tr != nil {
			sp = tr.StartID(trace.OpScan, tc.id)
			sp.Retain()
			defer tr.Finish(sp)
		}
	}
	prefix, rest, err := wire.ReadBytes(payload)
	if err != nil {
		done(err)
		sp.SetErr(err)
		return c.respondErr(wire.StatusBadRequest, err)
	}
	limit64, rest, err := wire.ReadUvarint(rest)
	if err != nil || len(rest) != 0 {
		done(wire.ErrMalformed)
		sp.SetErr(wire.ErrMalformed)
		return c.respondErr(wire.StatusBadRequest, wire.ErrMalformed)
	}
	limit := int(limit64)
	if limit <= 0 || limit > c.s.opts.MaxScanLimit {
		limit = c.s.opts.MaxScanLimit
	}
	tenant := admission.TenantOf(prefix)
	if d := c.s.opts.Admission.Admit(tenant, 1, 0); !d.OK {
		done(errThrottled)
		sp.SetErr(errThrottled)
		return c.respondThrottled(tenant, d, "tenant scan quota exceeded")
	} else {
		c.s.noteThrottle(tenant, d)
	}
	var deadlineNs int64
	if c.s.opts.RequestTimeout > 0 {
		deadlineNs = c.s.opts.NowNs() + int64(c.s.opts.RequestTimeout)
	}

	it, err := c.s.db.NewRangeIter(prefix, prefixEnd(prefix))
	if err != nil {
		done(err)
		sp.SetErr(err)
		if errors.Is(err, core.ErrClosed) {
			return c.respondErr(wire.StatusShuttingDown, err)
		}
		return c.respondErr(wire.StatusInternal, err)
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
	iterStart := tc.startNs
	for ok := it.First(); ok && count < limit; ok = it.Next() {
		// The deadline ticks on keys visited, not keys returned: a scan
		// skipping past a foreign namespace must still stay in budget.
		scanned++
		if deadlineNs != 0 && scanned%64 == 0 && c.s.opts.NowNs() > deadlineNs {
			err := errors.New("scan exceeded request deadline")
			done(err)
			sp.SetErr(err)
			return c.respondErr(wire.StatusDeadline, err)
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
		done(err)
		sp.SetErr(err)
		return c.respondErr(wire.StatusInternal, err)
	}
	if sp != nil {
		sp.StageSince("iterate", iterStart, c.s.opts.NowNs())
		sp.AddEntries(count)
		sp.AddBytes(int64(len(body)))
	}
	resp := wire.AppendUvarint(make([]byte, 0, len(body)+4), uint64(count))
	resp = append(resp, body...)
	c.s.opts.Admission.Charge(tenant, int64(len(resp)))
	done(nil)
	return c.respondTraced(tc, wire.StatusOK, resp)
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
