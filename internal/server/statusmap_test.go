package server_test

import (
	"fmt"
	"net"
	"testing"

	"lsmlab/internal/admission"
	"lsmlab/internal/core"
	"lsmlab/internal/server"
	"lsmlab/internal/vfs"
	"lsmlab/internal/wire"
)

// faultEngine serves a real store but answers the data verbs with err
// when it is set: the engine-closed, degraded and follower columns of
// the status map, without having to drive a store into each state.
type faultEngine struct {
	*core.DB
	err error
}

func (e faultEngine) GetTraced(key []byte, id uint64) ([]byte, error) {
	if e.err != nil {
		return nil, e.err
	}
	return e.DB.GetTraced(key, id)
}

func (e faultEngine) ApplyTraced(b *core.Batch, id uint64) error {
	if e.err != nil {
		return e.err
	}
	return e.DB.ApplyTraced(b, id)
}

func (e faultEngine) NewRangeIter(lower, upper []byte) (core.RangeIter, error) {
	if e.err != nil {
		return nil, e.err
	}
	return e.DB.NewRangeIter(lower, upper)
}

func (e faultEngine) Compact() error {
	if e.err != nil {
		return e.err
	}
	return e.DB.Compact()
}

// stubRepl is a Replicator whose verbs succeed with fixed payloads, or
// all fail with err.
type stubRepl struct{ err error }

func (r stubRepl) NumShards() int { return 1 }

func (r stubRepl) Subscribe(shard int, after uint64, send func([]byte) bool, stopped func() bool) error {
	if r.err != nil {
		return r.err
	}
	send([]byte{wire.ReplFrameHeartbeat, 0})
	return nil
}

func (r stubRepl) Ack(string, int, uint64) error      { return r.err }
func (r stubRepl) Tree(int) ([]byte, error)           { return []byte{1}, r.err }
func (r stubRepl) Repair([]byte, int) ([]byte, error) { return []byte{2}, r.err }
func (r stubRepl) Status() []byte                     { return []byte{3} }

// statusCell is one (verb, condition) pair of the status map: the
// status byte the server answers with, and whether the connection
// survives the answer.
type statusCell struct {
	verb, cond string
	op         byte
	payload    []byte
	status     byte
	open       bool
}

// TestStatusMap pins the wire status of every verb under every
// condition that applies to it — ok, not-found, malformed payload,
// throttled, engine closed, degraded, replica follower, replication
// disabled — and whether the connection stays open afterwards. Each
// cell runs on a fresh connection to a server configured for its
// condition, then probes the connection with a PING.
func TestStatusMap(t *testing.T) {
	db, err := core.Open(core.DefaultOptions(vfs.NewMem(), "db"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if err := db.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}

	key := func(k string) []byte { return wire.AppendBytes(nil, []byte(k)) }
	put := wire.AppendBytes(key("k"), []byte("v"))
	scan := wire.AppendUvarint(key("k"), 0)
	batch := append(wire.AppendUvarint(nil, 1), wire.BatchPut)
	batch = wire.AppendBytes(wire.AppendBytes(batch, []byte("k")), []byte("v"))
	ack := wire.AppendUvarint(wire.AppendUvarint(key("f1"), 0), 7)
	sub := wire.AppendUvarint(wire.AppendUvarint(key("f1"), 0), 0)
	bad := []byte{0xFF}

	var cells []statusCell
	add := func(verb, cond string, op byte, payload []byte, status byte, open bool) {
		cells = append(cells, statusCell{verb, cond, op, payload, status, open})
	}
	// Data verbs: the engine's answer, the decoder's, admission's.
	for _, v := range []struct {
		name    string
		op      byte
		payload []byte
		write   bool
	}{
		{"GET", wire.OpGet, key("k"), false},
		{"PUT", wire.OpPut, put, true},
		{"DELETE", wire.OpDelete, key("k"), true},
		{"SCAN", wire.OpScan, scan, false},
		{"BATCH", wire.OpBatch, batch, true},
	} {
		add(v.name, "ok", v.op, v.payload, wire.StatusOK, true)
		add(v.name, "malformed", v.op, bad, wire.StatusBadRequest, true)
		add(v.name, "throttled", v.op, v.payload, wire.StatusThrottled, true)
		add(v.name, "closed", v.op, v.payload, wire.StatusShuttingDown, true)
		if v.write {
			add(v.name, "degraded", v.op, v.payload, wire.StatusUnavailable, true)
			add(v.name, "follower", v.op, v.payload, wire.StatusReadOnly, true)
		}
	}
	add("GET", "not-found", wire.OpGet, key("absent"), wire.StatusNotFound, true)
	// Admin verbs.
	add("STATS", "ok", wire.OpStats, []byte{0}, wire.StatusOK, true)
	add("WORKLOAD", "ok", wire.OpWorkload, nil, wire.StatusOK, true)
	add("COMPACT", "ok", wire.OpCompact, nil, wire.StatusOK, true)
	add("COMPACT", "closed", wire.OpCompact, nil, wire.StatusShuttingDown, true)
	add("COMPACT", "degraded", wire.OpCompact, nil, wire.StatusUnavailable, true)
	add("COMPACT", "follower", wire.OpCompact, nil, wire.StatusReadOnly, true)
	add("PING", "ok", wire.OpPing, nil, wire.StatusOK, true)
	add("WATERMARK", "ok", wire.OpWatermark, nil, wire.StatusOK, true)
	add("HEALTH", "ok", wire.OpHealth, nil, wire.StatusOK, true)
	// Replication verbs: a subscription ends its connection whatever
	// the outcome; the rest keep it.
	for _, v := range []struct {
		name    string
		op      byte
		payload []byte
	}{
		{"REPL_SUBSCRIBE", wire.OpReplSubscribe, sub},
		{"REPL_ACK", wire.OpReplAck, ack},
		{"REPL_TREE", wire.OpReplTree, wire.AppendUvarint(nil, 0)},
		{"REPL_REPAIR", wire.OpReplRepair, []byte{0}},
		{"REPL_STATUS", wire.OpReplStatus, nil},
	} {
		open := v.op != wire.OpReplSubscribe
		add(v.name, "ok", v.op, v.payload, wire.StatusOK, open)
		add(v.name, "disabled", v.op, v.payload, wire.StatusBadRequest, open)
		if v.op != wire.OpReplStatus {
			add(v.name, "malformed", v.op, bad, wire.StatusBadRequest, open)
		}
	}
	add("unknown", "ok", 0x7E, nil, wire.StatusUnknownOp, true)

	for _, cell := range cells {
		t.Run(cell.verb+"/"+cell.cond, func(t *testing.T) {
			eng := faultEngine{DB: db}
			opts := server.Options{Repl: stubRepl{}}
			switch cell.cond {
			case "throttled":
				opts.Admission = admission.NewController(admission.Config{
					Default: admission.Quota{OpsPerSec: 0.001}})
			case "closed":
				eng.err = core.ErrClosed
			case "degraded":
				eng.err = fmt.Errorf("compact: %w", core.ErrDegraded)
			case "follower":
				eng.err = core.ErrReplica
			case "disabled":
				opts.Repl = nil
			case "malformed":
				if cell.op == wire.OpReplRepair {
					// The repair payload is opaque to the server: the
					// replicator judges it.
					opts.Repl = stubRepl{err: fmt.Errorf("%w: range 9 of 4", wire.ErrMalformed)}
				}
			}
			_, addr := serveEngine(t, eng, opts)
			nc := rawConn(t, addr)
			if _, err := nc.Write(wire.AppendFrame(nil, cell.op, cell.payload)); err != nil {
				t.Fatal(err)
			}
			status, payload, err := readResp(t, nc)
			if err != nil || status != cell.status {
				t.Fatalf("status=%#x (%s) payload=%q err=%v, want %#x (%s)",
					status, wire.OpName(status), payload, err, cell.status, wire.OpName(cell.status))
			}
			if open := pingOK(nc); open != cell.open {
				t.Fatalf("connection open after the answer = %v, want %v", open, cell.open)
			}
		})
	}
}

// pingOK reports whether a PING on nc is answered with StatusOK.
func pingOK(nc net.Conn) bool {
	if _, err := nc.Write(wire.AppendFrame(nil, wire.OpPing, nil)); err != nil {
		return false
	}
	status, _, err := readRespE(nc)
	return err == nil && status == wire.StatusOK
}
