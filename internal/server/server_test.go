package server_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"lsmlab/internal/client"
	"lsmlab/internal/core"
	"lsmlab/internal/server"
	"lsmlab/internal/vfs"
	"lsmlab/internal/vfs/faultfs"
	"lsmlab/internal/wire"
)

// testServer starts a server over a fresh in-memory store and returns
// it with its address. Cleanup drains the server and closes the DB.
func testServer(t *testing.T, tweakDB func(*core.Options), tweakSrv func(*server.Options)) (*server.Server, *core.DB, string) {
	t.Helper()
	fs := vfs.NewMem()
	opts := core.DefaultOptions(fs, "db")
	if tweakDB != nil {
		tweakDB(&opts)
	}
	db, err := core.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	sopts := server.Options{}
	if tweakSrv != nil {
		tweakSrv(&sopts)
	}
	srv := server.New(db, sopts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Shutdown(5 * time.Second)
		if err := <-serveDone; err != nil {
			t.Errorf("Serve: %v", err)
		}
		db.Close()
	})
	return srv, db, ln.Addr().String()
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestServerRoundTrip(t *testing.T) {
	srv, _, addr := testServer(t, nil, nil)
	cl, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}

	if err := cl.Put([]byte("alpha"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := cl.Put([]byte("alpha2"), []byte("2")); err != nil {
		t.Fatal(err)
	}
	if err := cl.Put([]byte("beta"), []byte("3")); err != nil {
		t.Fatal(err)
	}
	v, err := cl.Get([]byte("alpha"))
	if err != nil || string(v) != "1" {
		t.Fatalf("get alpha: %q %v", v, err)
	}
	if _, err := cl.Get([]byte("missing")); !errors.Is(err, client.ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
	if err := cl.Delete([]byte("beta")); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Get([]byte("beta")); !errors.Is(err, client.ErrNotFound) {
		t.Fatalf("deleted key: want ErrNotFound, got %v", err)
	}

	// Prefix scan sees only the alpha keys, in order.
	kvs, err := cl.Scan([]byte("alpha"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 2 || string(kvs[0].Key) != "alpha" || string(kvs[1].Key) != "alpha2" {
		t.Fatalf("scan: %+v", kvs)
	}

	// Atomic batch.
	var b client.Batch
	b.Put([]byte("g1"), []byte("x"))
	b.Put([]byte("g2"), []byte("y"))
	b.Delete([]byte("alpha2"))
	if err := cl.Apply(&b); err != nil {
		t.Fatal(err)
	}
	if v, err := cl.Get([]byte("g2")); err != nil || string(v) != "y" {
		t.Fatalf("batch put: %q %v", v, err)
	}
	if _, err := cl.Get([]byte("alpha2")); !errors.Is(err, client.ErrNotFound) {
		t.Fatalf("batch delete: %v", err)
	}

	// Admin verbs.
	stats, err := cl.Stats(true)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stats, "server: conns_open=") || !strings.Contains(stats, "request") {
		t.Fatalf("stats missing server block:\n%s", stats)
	}
	if err := cl.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}

	// Teardown: the connection count must return to zero.
	cl.Close()
	waitFor(t, "connections to drain", func() bool { return srv.ConnCount() == 0 })
	m := srv.Metrics()
	if m.ConnsOpened == 0 || m.ConnsOpened != m.ConnsClosed {
		t.Fatalf("conn accounting: opened=%d closed=%d", m.ConnsOpened, m.ConnsClosed)
	}
	if m.NetRequests == 0 || m.NetBytesRead == 0 || m.NetBytesWritten == 0 {
		t.Fatalf("request accounting: %+v", m)
	}
	if srv.Stats().Latency.Request.N == 0 {
		t.Fatal("request latency histogram is empty")
	}
}

// rawConn dials the server for protocol-level tests.
func rawConn(t *testing.T, addr string) net.Conn {
	t.Helper()
	nc, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	nc.SetDeadline(time.Now().Add(5 * time.Second))
	return nc
}

func readResp(t *testing.T, nc net.Conn) (byte, []byte, error) {
	t.Helper()
	return readRespE(nc)
}

func readRespE(nc net.Conn) (byte, []byte, error) {
	op, payload, _, err := wire.ReadFrame(bufio(nc), 0, nil)
	return op, payload, err
}

// bufio-free single reader: responses are read one frame at a time
// directly off the socket, so closes are observed promptly.
func bufio(nc net.Conn) io.Reader { return nc }

func TestUnknownOpcodeKeepsConnection(t *testing.T) {
	srv, _, addr := testServer(t, nil, nil)
	nc := rawConn(t, addr)
	if _, err := nc.Write(wire.AppendFrame(nil, 0x7E, []byte("??"))); err != nil {
		t.Fatal(err)
	}
	status, payload, err := readResp(t, nc)
	if err != nil || status != wire.StatusUnknownOp {
		t.Fatalf("status=%#x payload=%q err=%v", status, payload, err)
	}
	// The stream is still in sync: a valid request on the same
	// connection succeeds.
	if _, err := nc.Write(wire.AppendFrame(nil, wire.OpPing, nil)); err != nil {
		t.Fatal(err)
	}
	status, _, err = readResp(t, nc)
	if err != nil || status != wire.StatusOK {
		t.Fatalf("ping after unknown op: status=%#x err=%v", status, err)
	}
	if srv.Metrics().NetRequestErrors == 0 {
		t.Fatal("unknown op was not counted as a request error")
	}
}

func TestOversizedFrameStructuredErrorThenClose(t *testing.T) {
	srv, _, addr := testServer(t, nil, func(o *server.Options) { o.MaxRequestBytes = 1 << 10 })
	nc := rawConn(t, addr)
	hdr := binary.BigEndian.AppendUint32(nil, 1<<20)
	if _, err := nc.Write(append(hdr, 0x01)); err != nil {
		t.Fatal(err)
	}
	status, _, err := readResp(t, nc)
	if err != nil || status != wire.StatusTooLarge {
		t.Fatalf("status=%#x err=%v", status, err)
	}
	// The oversized body was never read, so the connection closes.
	if _, _, err := readResp(t, nc); err == nil {
		t.Fatal("connection stayed open after an unsyncable frame")
	}
	waitFor(t, "oversized conn teardown", func() bool { return srv.ConnCount() == 0 })
}

func TestMalformedAndTruncatedFrames(t *testing.T) {
	srv, db, addr := testServer(t, nil, nil)

	// Zero-length frame: structured error, then close.
	nc := rawConn(t, addr)
	if _, err := nc.Write(binary.BigEndian.AppendUint32(nil, 0)); err != nil {
		t.Fatal(err)
	}
	status, _, err := readResp(t, nc)
	if err != nil || status != wire.StatusBadRequest {
		t.Fatalf("zero-length: status=%#x err=%v", status, err)
	}

	// Truncated frame then abrupt close: the server just drops the
	// connection, without panicking or leaking it.
	nc2 := rawConn(t, addr)
	frame := wire.AppendFrame(nil, wire.OpPut, bytes.Repeat([]byte{7}, 64))
	if _, err := nc2.Write(frame[:len(frame)-10]); err != nil {
		t.Fatal(err)
	}
	nc2.Close()

	// Malformed payload of a known opcode: structured error, stream
	// keeps going.
	nc3 := rawConn(t, addr)
	if _, err := nc3.Write(wire.AppendFrame(nil, wire.OpGet, []byte{0xFF})); err != nil {
		t.Fatal(err)
	}
	status, _, err = readResp(t, nc3)
	if err != nil || status != wire.StatusBadRequest {
		t.Fatalf("bad get payload: status=%#x err=%v", status, err)
	}
	if _, err := nc3.Write(wire.AppendFrame(nil, wire.OpPing, nil)); err != nil {
		t.Fatal(err)
	}
	if status, _, err = readResp(t, nc3); err != nil || status != wire.StatusOK {
		t.Fatalf("ping after bad payload: status=%#x err=%v", status, err)
	}
	nc3.Close()

	waitFor(t, "hostile conns to drain", func() bool { return srv.ConnCount() == 0 })
	// The engine survived all of it.
	if err := db.Put([]byte("still"), []byte("alive")); err != nil {
		t.Fatal(err)
	}
}

func TestMaxConnsRefusesWithBusy(t *testing.T) {
	_, _, addr := testServer(t, nil, func(o *server.Options) { o.MaxConns = 1 })
	nc1 := rawConn(t, addr)
	// Make sure the first connection is registered server-side.
	if _, err := nc1.Write(wire.AppendFrame(nil, wire.OpPing, nil)); err != nil {
		t.Fatal(err)
	}
	if status, _, err := readResp(t, nc1); err != nil || status != wire.StatusOK {
		t.Fatalf("ping: %#x %v", status, err)
	}
	nc2 := rawConn(t, addr)
	status, payload, err := readResp(t, nc2)
	if err != nil || status != wire.StatusBusy {
		t.Fatalf("second conn: status=%#x payload=%q err=%v", status, payload, err)
	}
	if _, _, err := readResp(t, nc2); err == nil {
		t.Fatal("refused connection stayed open")
	}
}

func TestServerSideWriteCoalescing(t *testing.T) {
	// A burst of pipelined puts on one connection should fold into few
	// Apply calls (visible as commit batches vs groups is engine-side;
	// here we check the responses all arrive and the data is right).
	_, db, addr := testServer(t, nil, nil)
	cl, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	p, err := cl.Pipeline()
	if err != nil {
		t.Fatal(err)
	}
	const n = 500
	futures := make([]*client.Future, n)
	for i := 0; i < n; i++ {
		futures[i] = p.Put([]byte(fmt.Sprintf("k%04d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	for i, f := range futures {
		if err := f.Err(); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	for _, i := range []int{0, 123, n - 1} {
		v, err := db.Get([]byte(fmt.Sprintf("k%04d", i)))
		if err != nil || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("k%04d: %q %v", i, v, err)
		}
	}
	// Pipelined puts must have folded: far fewer Applies (commit
	// batches) than wire requests would imply if unbatched… the engine
	// counts one commit batch per Apply, so batches < n proves folding.
	m := db.Metrics()
	if m.CommitBatches >= n {
		t.Fatalf("no server-side folding: %d commit batches for %d pipelined puts", m.CommitBatches, n)
	}
}

func TestMalformedPipelinedWriteKeepsFIFOResponses(t *testing.T) {
	// Three PUT frames written in one burst — valid, malformed payload,
	// valid — must be answered strictly in arrival order (OK,
	// BadRequest, OK) whether or not the server folds them: the wire
	// protocol has no request IDs, so clients match responses FIFO.
	_, db, addr := testServer(t, nil, nil)
	nc := rawConn(t, addr)
	putPayload := func(k, v string) []byte {
		p := wire.AppendBytes(nil, []byte(k))
		return wire.AppendBytes(p, []byte(v))
	}
	var burst []byte
	burst = wire.AppendFrame(burst, wire.OpPut, putPayload("f1", "1"))
	burst = wire.AppendFrame(burst, wire.OpPut, []byte{0xFF}) // truncated varint
	burst = wire.AppendFrame(burst, wire.OpPut, putPayload("f3", "3"))
	if _, err := nc.Write(burst); err != nil {
		t.Fatal(err)
	}
	want := []byte{wire.StatusOK, wire.StatusBadRequest, wire.StatusOK}
	for i, w := range want {
		status, _, err := readResp(t, nc)
		if err != nil || status != w {
			t.Fatalf("response %d: status=%#x err=%v, want %#x", i, status, err, w)
		}
	}
	// Both valid writes landed.
	for _, k := range []string{"f1", "f3"} {
		if _, err := db.Get([]byte(k)); err != nil {
			t.Fatalf("get %s: %v", k, err)
		}
	}
}

func TestScanTruncatesToFrameCap(t *testing.T) {
	// A scan over values whose total exceeds the frame cap truncates
	// instead of building a response the peer would reject.
	const frameCap = 4 << 10
	_, db, addr := testServer(t, nil, func(o *server.Options) { o.MaxRequestBytes = frameCap })
	val := bytes.Repeat([]byte("v"), 200)
	for i := 0; i < 100; i++ {
		if err := db.Put([]byte(fmt.Sprintf("t%04d", i)), val); err != nil {
			t.Fatal(err)
		}
	}
	cl, err := client.Dial(addr, client.Options{MaxFrameBytes: frameCap})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	kvs, err := cl.Scan([]byte("t"), 0)
	if err != nil {
		t.Fatalf("scan rejected by frame cap: %v", err)
	}
	if len(kvs) == 0 || len(kvs) >= 100 {
		t.Fatalf("scan returned %d entries, want a truncated non-empty result", len(kvs))
	}
	// The connection is still usable (no ErrTooLarge poisoning).
	if _, err := cl.Get([]byte("t0000")); err != nil {
		t.Fatalf("get after capped scan: %v", err)
	}
}

func TestScanLimitAndDeadline(t *testing.T) {
	_, db, addr := testServer(t, nil, func(o *server.Options) { o.MaxScanLimit = 10 })
	for i := 0; i < 50; i++ {
		if err := db.Put([]byte(fmt.Sprintf("s%04d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	cl, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	kvs, err := cl.Scan([]byte("s"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 10 {
		t.Fatalf("scan cap: got %d entries, want 10", len(kvs))
	}
	kvs, err = cl.Scan([]byte("s"), 3)
	if err != nil || len(kvs) != 3 {
		t.Fatalf("scan limit: %d %v", len(kvs), err)
	}
}

// TestDegradedServerRefusesWritesServesReads drives the engine into
// read-only degradation under a live server: writes must come back as
// StatusUnavailable (surfaced as client.ErrUnavailable, not retried),
// reads and admin verbs must keep working, and the HEALTH verb must
// name the root cause.
func TestDegradedServerRefusesWritesServesReads(t *testing.T) {
	var ffs *faultfs.FS
	_, db, addr := testServer(t, func(o *core.Options) {
		ffs = faultfs.New(o.FS, 1)
		o.FS = ffs
		o.BufferBytes = 4 << 10
		o.MaxBackgroundRetries = -1 // degrade on the first failure
	}, nil)
	cl, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if err := cl.Put([]byte("k0"), []byte("v0")); err != nil {
		t.Fatal(err)
	}
	if h, err := cl.Health(); err != nil || h.Degraded {
		t.Fatalf("healthy server reports %+v, %v", h, err)
	}

	// Kill the device under tables and fill a buffer so the flush fails.
	ffs.AddRule(faultfs.Rule{
		Classes:   faultfs.ClassSST,
		Ops:       faultfs.OpWrite | faultfs.OpCreate,
		Countdown: 1,
		Sticky:    true,
	})
	for i := 0; i < 20; i++ {
		if err := cl.Put([]byte(fmt.Sprintf("k%03d", i)), make([]byte, 100)); err != nil {
			t.Fatalf("pre-degradation put: %v", err)
		}
	}
	if err := db.Flush(); err == nil {
		t.Fatal("flush against dead device must error")
	}
	waitFor(t, "degraded", func() bool { return db.Health().Degraded })

	// Writes: refused, typed, and not retried into the degraded server.
	if err := cl.Put([]byte("doomed"), []byte("v")); !errors.Is(err, client.ErrUnavailable) {
		t.Fatalf("put on degraded server: %v, want ErrUnavailable", err)
	}
	var b client.Batch
	b.Put([]byte("doomed2"), []byte("v"))
	if err := cl.Apply(&b); !errors.Is(err, client.ErrUnavailable) {
		t.Fatalf("apply on degraded server: %v, want ErrUnavailable", err)
	}

	// Reads and admin verbs keep working.
	if v, err := cl.Get([]byte("k0")); err != nil || string(v) != "v0" {
		t.Fatalf("read while degraded: %q %v", v, err)
	}
	stats, err := cl.Stats(false)
	if err != nil || !strings.Contains(stats, "degraded=true") {
		t.Fatalf("stats while degraded (%v):\n%s", err, stats)
	}

	// HEALTH names the cause.
	h, err := cl.Health()
	if err != nil {
		t.Fatal(err)
	}
	if !h.Degraded || h.Op != "flush" || h.Kind != "transient" || h.Cause == "" {
		t.Fatalf("health misses the cause: %+v", h)
	}
}
