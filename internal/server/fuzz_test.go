package server_test

import (
	"net"
	"strings"
	"testing"
	"time"

	"lsmlab/internal/core"
	"lsmlab/internal/server"
	"lsmlab/internal/vfs"
	"lsmlab/internal/wire"
)

// pipeListener hands the server the far ends of net.Pipe connections.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case nc := <-l.conns:
		return nc, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	select {
	case <-l.done:
	default:
		close(l.done)
	}
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// FuzzHandle drives arbitrary intact request frames — each input byte
// string is a sequence of (op, payload length, payload) triples — at a
// server over a MemFS store, followed by a PING. Invariants: no
// panic; exactly one response per request frame, in order (PINGs
// answer StatusOK, unknown opcodes StatusUnknownOp); the connection
// survives every semantic error, so the closing PING is answered —
// except after a subscription, which always ends its connection.
func FuzzHandle(f *testing.F) {
	put := wire.AppendBytes(wire.AppendBytes(nil, []byte("k")), []byte("v"))
	frame := func(op byte, p []byte) []byte { return append([]byte{op, byte(len(p))}, p...) }
	f.Add(frame(wire.OpPut, put))
	f.Add(append(append(frame(wire.OpPut, put), frame(wire.OpPut, []byte{0xFF})...), frame(wire.OpGet, put[:2])...))
	f.Add(frame(wire.OpScan, append(wire.AppendBytes(nil, nil), 0)))
	f.Add(frame(wire.OpBatch, []byte{1, wire.BatchDelete, 1, 'k'}))
	f.Add(frame(wire.OpGet|wire.TraceFlag, []byte{0, 0, 0, 0, 0, 0, 0, 7, 1, 'k'}))
	f.Add(frame(wire.OpReplAck, nil))
	f.Add(frame(wire.OpReplSubscribe, nil))
	f.Add(frame(0x7E, []byte("??")))
	f.Add(frame(wire.OpStats, []byte{1}))

	db, err := core.Open(core.DefaultOptions(vfs.NewMem(), "db"))
	if err != nil {
		f.Fatal(err)
	}
	srv := server.New(db, server.Options{})
	ln := &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
	go srv.Serve(ln)
	f.Cleanup(func() {
		srv.Shutdown(5 * time.Second)
		db.Close()
	})

	f.Fuzz(func(t *testing.T, data []byte) {
		var ops []byte
		var reqs []byte
		last := -1 // index of the first frame that subscribes, if any
		for len(data) >= 2 {
			op, n := data[0], int(data[1])
			data = data[2:]
			if n > len(data) {
				n = len(data)
			}
			// A traced frame too short for its trace id is a plain bad
			// request; any other subscription ends the connection.
			if last < 0 && wire.BaseOp(op) == wire.OpReplSubscribe && (op == wire.OpReplSubscribe || n >= 8) {
				last = len(ops)
			}
			ops = append(ops, op)
			reqs = wire.AppendFrame(reqs, op, data[:n])
			data = data[n:]
		}
		ops = append(ops, wire.OpPing)
		reqs = wire.AppendFrame(reqs, wire.OpPing, nil)

		cli, far := net.Pipe()
		defer cli.Close()
		select {
		case ln.conns <- far:
		case <-time.After(10 * time.Second):
			t.Fatal("server stopped accepting")
		}
		cli.SetDeadline(time.Now().Add(10 * time.Second))
		// net.Pipe is unbuffered: write from a second goroutine while
		// this one reads, or the server's flush and this write wait on
		// each other.
		go cli.Write(reqs)
		for i, op := range ops {
			status, _, _, err := wire.ReadFrame(cli, 0, nil)
			if err != nil {
				t.Fatalf("request %d of %d (op %#x): no response: %v", i, len(ops), op, err)
			}
			if !wire.IsStatus(status) {
				t.Fatalf("request %d (op %#x): response %#x is not a status", i, op, status)
			}
			if op == wire.OpPing && status != wire.StatusOK {
				t.Fatalf("request %d: PING answered %#x", i, status)
			}
			known := !wire.IsStatus(op) && !strings.HasPrefix(wire.OpName(op), "op(")
			if known == (status == wire.StatusUnknownOp) {
				t.Fatalf("request %d: op %#x (%s) answered %#x", i, op, wire.OpName(op), status)
			}
			if i == last {
				// Replication is off, so the answer is StatusBadRequest,
				// and a subscription ends the connection regardless.
				if _, _, _, err := wire.ReadFrame(cli, 0, nil); err == nil {
					t.Fatalf("request %d: connection open after a subscription", i)
				}
				return
			}
		}
	})
}
