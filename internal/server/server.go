// Package server exposes a storage engine — a flat core.DB or a
// sharded partition.Store, via the Engine interface — over TCP with
// the length-prefixed binary protocol of internal/wire. Connections
// are pipelined: a client may have many requests in flight; the
// server answers in arrival order. Each connection is served by one
// goroutine that decodes a request, executes it and writes its
// response into a buffer, flushing only before a read that could
// block, so a pipelined burst is answered with one write.
//
// The write path is the point: pipelined PUT/DELETE frames that are
// already buffered on a connection are folded into a single core.Batch
// and applied once, and concurrent connections issue concurrent Apply
// calls — which the engine's leader-based commit pipeline coalesces
// into commit groups with one WAL write (and one sync) each. Network
// concurrency becomes commit-group coalescing with no extra machinery.
//
// Robustness is part of the contract, not an extra: connection and
// frame-size limits, per-request deadlines, slow-client write
// timeouts, structured error statuses on the wire, and a graceful
// drain that finishes in-flight requests while refusing new ones.
package server

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"lsmlab/internal/admission"
	"lsmlab/internal/core"
	"lsmlab/internal/events"
	"lsmlab/internal/metrics"
	"lsmlab/internal/trace"
	"lsmlab/internal/wire"
)

// ErrShutdown is returned by Serve when the server was drained.
var ErrShutdown = errors.New("server: shutting down")

// Engine is the store surface the server serves: the data verbs, one
// monitoring view, and the watermark. lsmserved serves a
// *partition.Store of any shard count; a bare *core.DB (embedders, the
// benchmark) and replica.Engine satisfy it too, and no handler knows
// which it has.
type Engine interface {
	GetTraced(key []byte, traceID uint64) ([]byte, error)
	ApplyTraced(b *core.Batch, traceID uint64) error
	NewRangeIter(lower, upper []byte) (core.RangeIter, error)
	Compact() error
	Tracer() *trace.Tracer
	// Stats is the store's monitoring view (merged across shards for a
	// partitioned store): counters, histograms, health, tree shape and
	// workload profile. Every read-only surface — STATS, HEALTH,
	// WORKLOAD, /metrics, /healthz, /workload — is a projection of it.
	Stats() core.Stats
	// SeqVector is the store's visibility watermark as a per-shard
	// vector (length 1 for a single tree) — the WATERMARK verb's
	// payload, generalizing the read-your-writes token across shards.
	SeqVector() []uint64
}

// Replicator is the replication hook the leader-side serving layer
// forwards the wire replication verbs to (internal/replica.Leader
// implements it). The server stays protocol-agnostic: subscribe, ack,
// and tree requests are parsed here because their payloads are plain
// wire primitives, while repair requests and the status block pass
// through opaquely — their layout belongs to the replica package on
// both ends.
type Replicator interface {
	// NumShards is the shard count subscriptions are validated against.
	NumShards() int
	// Subscribe streams shard's WAL after afterSeq: each payload handed
	// to send becomes one StatusOK frame on the subscriber's connection.
	// It blocks until send fails (dead peer), stopped returns true
	// (server drain), or the stream ends with a gap frame.
	Subscribe(shard int, afterSeq uint64, send func(payload []byte) bool, stopped func() bool) error
	// Ack records a follower's applied-through watermark for one shard.
	Ack(follower string, shard int, appliedSeq uint64) error
	// Tree returns shard's encoded Merkle tree (OpReplTree response).
	Tree(shard int) ([]byte, error)
	// Repair answers one opaque repair-range request, bounding the
	// response to maxBytes.
	Repair(req []byte, maxBytes int) ([]byte, error)
	// Status returns the encoded replication status block.
	Status() []byte
}

// Options configures a Server. The zero value is usable; unset fields
// take the defaults documented per field.
type Options struct {
	// MaxConns caps concurrently served connections; further accepts
	// receive a StatusBusy frame and are closed. Default 256.
	MaxConns int
	// MaxRequestBytes caps a request frame's length field. Oversized
	// frames receive StatusTooLarge and the connection is closed (the
	// unread body makes resynchronization impossible). Responses are
	// bounded by the same cap (scans truncate to fit), so clients
	// should keep their MaxFrameBytes at least this large. Default
	// wire.DefaultMaxFrame.
	MaxRequestBytes int
	// MaxBatchOps caps how many already-buffered pipelined PUT/DELETE
	// frames one connection folds into a single Apply. Default 128.
	MaxBatchOps int
	// MaxScanLimit caps (and defaults) the entry count of one SCAN
	// response. Default 10000.
	MaxScanLimit int
	// WriteTimeout bounds each response write to a slow client; a
	// connection that cannot absorb its responses in time is closed.
	// Default 10s.
	WriteTimeout time.Duration
	// IdleTimeout closes connections with no request for this long.
	// 0 (the default) disables.
	IdleTimeout time.Duration
	// RequestTimeout is the execution deadline for SCAN, the one verb
	// whose cost scales with a client-chosen range: a scan that exceeds
	// it is answered with StatusDeadline (checked while iterating, so a
	// pathological range cannot pin a connection). Point ops complete in
	// bounded time and COMPACT runs to completion, so neither enforces
	// it. 0 (the default) disables.
	RequestTimeout time.Duration
	// Admission meters every data-plane request (GET/SCAN/PUT/DELETE/
	// BATCH) against its tenant — the key prefix before the first '/' —
	// and a global quota. Over-quota requests are answered with
	// StatusThrottled and a retry-after hint instead of being executed.
	// Nil gets a no-quota controller that still counts per-tenant
	// traffic, so /metrics and STATS report tenants even without
	// enforcement. Admin verbs (STATS, COMPACT, PING, HEALTH,
	// WATERMARK) and replication are control plane and never metered.
	Admission *admission.Controller
	// Repl, when non-nil, makes this server a replication leader: the
	// wire replication verbs (subscribe/ack/tree/repair/status) are
	// served through it. Nil (the default) answers those verbs with
	// StatusBadRequest.
	Repl Replicator
	// EventListener receives ConnOpen/ConnClose/RequestBegin/RequestEnd
	// lifecycle events. Same contract as core.Options.EventListener:
	// fast, non-blocking, no calls back into the server.
	EventListener events.Listener
	// NowNs supplies time (injected for deterministic tests).
	NowNs func() int64
}

func (o Options) withDefaults() Options {
	if o.MaxConns <= 0 {
		o.MaxConns = 256
	}
	if o.MaxRequestBytes <= 0 {
		o.MaxRequestBytes = wire.DefaultMaxFrame
	}
	if o.MaxBatchOps <= 0 {
		o.MaxBatchOps = 128
	}
	if o.MaxScanLimit <= 0 {
		o.MaxScanLimit = 10000
	}
	if o.WriteTimeout <= 0 {
		o.WriteTimeout = 10 * time.Second
	}
	if o.NowNs == nil {
		o.NowNs = func() int64 { return time.Now().UnixNano() }
	}
	if o.Admission == nil {
		o.Admission = admission.NewController(admission.Config{NowNs: o.NowNs})
	}
	return o
}

// Server serves one Engine over any net.Listener.
type Server struct {
	db   Engine
	opts Options

	m metrics.Metrics

	mu       sync.Mutex
	ln       net.Listener
	conns    map[*conn]struct{}
	draining bool

	drain   atomic.Bool // mirrors draining for lock-free reads
	connIDs atomic.Uint64
	reqIDs  atomic.Uint64

	// throttleStart records when each tenant's current throttle episode
	// began, so ThrottleEnd can carry the episode duration.
	throttleMu    sync.Mutex
	throttleStart map[string]int64

	wg sync.WaitGroup // one unit per connection
}

// New returns a server for db — a *core.DB, a *partition.Store, or any
// other Engine. The engine stays owned by the caller: the server never
// closes it, so an embedded store can outlive its listener.
func New(db Engine, opts Options) *Server {
	return &Server{db: db, opts: opts.withDefaults(), conns: make(map[*conn]struct{}),
		throttleStart: make(map[string]int64)}
}

// Admission exposes the server's admission controller (never nil after
// New), for stats surfaces and tests.
func (s *Server) Admission() *admission.Controller { return s.opts.Admission }

// noteThrottle turns admission episode transitions into events:
// ThrottleBegin when Decision.Entered, ThrottleEnd (with the episode's
// duration) when Decision.Exited. Reason carries the tenant name.
func (s *Server) noteThrottle(tenant string, d admission.Decision) {
	if d.Entered {
		s.throttleMu.Lock()
		s.throttleStart[tenant] = s.opts.NowNs()
		s.throttleMu.Unlock()
		s.emit(events.Event{Type: events.ThrottleBegin, Reason: tenant})
	}
	if d.Exited {
		s.throttleMu.Lock()
		start, ok := s.throttleStart[tenant]
		delete(s.throttleStart, tenant)
		s.throttleMu.Unlock()
		e := events.Event{Type: events.ThrottleEnd, Reason: tenant}
		if ok {
			e.DurationNs = s.opts.NowNs() - start
		}
		s.emit(e)
	}
}

// emit delivers one lifecycle event, stamping the server clock.
func (s *Server) emit(e events.Event) {
	if s.opts.EventListener == nil {
		return
	}
	e.TimeNs = s.opts.NowNs()
	s.opts.EventListener.Notify(e)
}

// Serve accepts connections on ln until ln fails or the server drains.
// It returns nil after a Shutdown, the accept error otherwise.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		ln.Close()
		return ErrShutdown
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		nc, err := ln.Accept()
		if err != nil {
			if s.drain.Load() {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			nc.Close()
			continue
		}
		if len(s.conns) >= s.opts.MaxConns {
			s.m.ConnsRejected.Add(1)
			s.mu.Unlock()
			go s.refuse(nc, wire.StatusBusy, "connection limit reached")
			continue
		}
		c := newConn(s, nc)
		s.conns[c] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		s.m.ConnsOpened.Add(1)
		s.emit(events.Event{Type: events.ConnOpen, JobID: c.id, Path: nc.RemoteAddr().String()})
		go c.readLoop()
	}
}

// refuse writes one error frame and closes the connection, bounded by
// the write timeout so a dead peer cannot pin the goroutine.
func (s *Server) refuse(nc net.Conn, status byte, msg string) {
	defer nc.Close()
	nc.SetWriteDeadline(time.Now().Add(s.opts.WriteTimeout))
	frame := wire.AppendFrame(nil, status, []byte(msg))
	if n, err := nc.Write(frame); err == nil {
		s.m.NetBytesWritten.Add(int64(n))
	}
}

// removeConn finalizes one connection's accounting.
func (s *Server) removeConn(c *conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	s.m.ConnsClosed.Add(1)
	s.emit(events.Event{Type: events.ConnClose, JobID: c.id,
		Path: c.remote, DurationNs: s.opts.NowNs() - c.openedNs})
}

// ConnCount returns the number of connections currently being served.
func (s *Server) ConnCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// Metrics returns a snapshot of the server's network counters (the
// engine's counters live on the DB).
func (s *Server) Metrics() metrics.Snapshot { return s.m.Snapshot() }

// Stats returns the engine's view with the serving layer's section
// added: its counters and request histogram merge into the engine's by
// the descriptor tables' rules (an embedded engine leaves the network
// and leader-side replication rows zero, so summing is exact), and
// Server carries the rows only a server has.
func (s *Server) Stats() core.Stats {
	v := s.db.Stats()
	v.Counters = v.Counters.Add(s.m.Snapshot())
	v.Latency = v.Latency.Merge(s.m.Latencies())
	sv := &core.ServerStats{Tenants: s.opts.Admission.Stats(), Leader: s.opts.Repl != nil}
	if tr := s.db.Tracer(); tr != nil {
		sv.Traced, sv.SpansStarted, sv.SpansRetained = true, tr.Started(), tr.Retained()
	}
	v.Server = sv
	return v
}

// Shutdown gracefully drains the server: stop accepting, let every
// in-flight request finish and its response flush, then close all
// connections. Requests not yet read when the drain begins are
// refused by connection close. If the drain outlives grace, remaining
// connections are severed. The DB is left open for the caller (which
// typically checkpoints and closes it next).
func (s *Server) Shutdown(grace time.Duration) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	s.drain.Store(true)
	ln := s.ln
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if already {
		return nil
	}
	if ln != nil {
		ln.Close()
	}
	// Kick readers out of blocking reads; in-flight handlers still
	// complete and flush their responses before each connection closes.
	for _, c := range conns {
		c.nc.SetReadDeadline(time.Now())
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var timeout <-chan time.Time
	if grace > 0 {
		t := time.NewTimer(grace)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case <-done:
		return nil
	case <-timeout:
		s.mu.Lock()
		for c := range s.conns {
			c.nc.Close()
		}
		s.mu.Unlock()
		<-done
		return fmt.Errorf("server: drain exceeded %v; connections severed", grace)
	}
}
