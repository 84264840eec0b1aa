package server_test

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"lsmlab/internal/client"
	"lsmlab/internal/core"
	"lsmlab/internal/events"
	"lsmlab/internal/server"
	"lsmlab/internal/vfs"
	"lsmlab/internal/wire"
)

func TestGracefulDrainCompletesInFlight(t *testing.T) {
	fs := vfs.NewMem()
	opts := core.DefaultOptions(fs, "db")
	opts.SyncWAL = true
	fs.SetSyncDelay(200 * time.Microsecond) // make each commit group cost something
	db, err := core.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	srv := server.New(db, server.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()

	cl, err := client.Dial(ln.Addr().String(), client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := cl.Pipeline()
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	futures := make([]*client.Future, n)
	for i := 0; i < n; i++ {
		futures[i] = p.Put([]byte(fmt.Sprintf("drain%04d", i)), []byte("v"))
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	// Let the burst reach the server before draining, so there is
	// genuinely in-flight work for the drain to complete. (Dial's ping
	// already counted one request, hence > 1.)
	waitFor(t, "server to start processing writes", func() bool {
		return srv.Metrics().NetRequests > 1
	})

	// Drain while the burst is in flight. Requests the server already
	// read must complete and be acknowledged before connections close.
	if err := srv.Shutdown(10 * time.Second); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve after drain: %v", err)
	}

	acked := 0
	for _, f := range futures {
		if f.Err() == nil {
			acked++
		}
	}
	if acked == 0 {
		t.Fatal("drain acknowledged none of the in-flight writes")
	}
	// Every acknowledged write is durable in the engine.
	for i := 0; i < acked; i++ {
		if _, err := db.Get([]byte(fmt.Sprintf("drain%04d", i))); err != nil {
			t.Fatalf("acked write drain%04d lost: %v", i, err)
		}
	}
	if got := srv.ConnCount(); got != 0 {
		t.Fatalf("ConnCount after drain = %d", got)
	}

	// New work is refused: the listener is closed and fresh dials fail
	// or are cut immediately.
	cl2 := client.New(client.Options{Addr: ln.Addr().String(), MaxRetries: 1, RetryBackoff: time.Millisecond})
	if err := cl2.Ping(); err == nil {
		t.Fatal("ping succeeded against a drained server")
	}
	cl2.Close()
	cl.Close()

	// A second Shutdown is a no-op, and Serve after Shutdown refuses.
	if err := srv.Shutdown(time.Second); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve(ln2); !errors.Is(err, server.ErrShutdown) {
		t.Fatalf("Serve after Shutdown: %v", err)
	}
}

func TestDrainKicksIdleConnections(t *testing.T) {
	srv, _, addr := testServer(t, nil, nil)
	cl, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	waitFor(t, "conn registration", func() bool { return srv.ConnCount() == 1 })
	start := time.Now()
	if err := srv.Shutdown(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	// The idle connection is kicked via its read deadline, not waited
	// out; drain should be near-instant.
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("drain of an idle connection took %v", d)
	}
	if got := srv.ConnCount(); got != 0 {
		t.Fatalf("ConnCount = %d", got)
	}
}

// TestPipeliningStressReadYourWrites hammers the server with N
// connections of mixed pipelined GET/PUT/DELETE and verifies each
// connection observes its own writes in order. Run with -race.
func TestPipeliningStressReadYourWrites(t *testing.T) {
	srv, _, addr := testServer(t, nil, nil)
	const (
		workers = 8
		ops     = 150
	)
	cl, err := client.Dial(addr, client.Options{PoolSize: workers})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p, err := cl.Pipeline()
			if err != nil {
				errs <- err
				return
			}
			key := []byte(fmt.Sprintf("stress-w%d", w))
			for i := 0; i < ops; i++ {
				val := []byte(fmt.Sprintf("w%d-i%d", w, i))
				put := p.Put(key, val)
				get := p.Get(key) // pipelined behind the put, same conn
				if err := put.Err(); err != nil {
					errs <- fmt.Errorf("w%d put %d: %w", w, i, err)
					return
				}
				got, err := get.Value()
				if err != nil {
					errs <- fmt.Errorf("w%d get %d: %w", w, i, err)
					return
				}
				if string(got) != string(val) {
					errs <- fmt.Errorf("w%d op %d: read-your-writes violated: got %q want %q", w, i, got, val)
					return
				}
				if i%25 == 24 {
					del := p.Delete(key)
					gone := p.Get(key)
					if err := del.Err(); err != nil {
						errs <- fmt.Errorf("w%d del %d: %w", w, i, err)
						return
					}
					if _, err := gone.Value(); !errors.Is(err, client.ErrNotFound) {
						errs <- fmt.Errorf("w%d op %d: get after pipelined delete: %v", w, i, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		return
	}
	m := srv.Metrics()
	if want := int64(workers); m.ConnsOpened < want {
		t.Fatalf("expected >=%d connections, got %d", want, m.ConnsOpened)
	}
}

// TestNetworkWritesFeedCommitGroups is the acceptance e2e: 8 client
// connections issuing synchronous PUTs against a SyncWAL server must
// coalesce into shared commit groups (mean group size > 1) and beat a
// single connection's throughput by at least 2x.
func TestNetworkWritesFeedCommitGroups(t *testing.T) {
	fs := vfs.NewMem()
	opts := core.DefaultOptions(fs, "db")
	opts.SyncWAL = true
	ring := events.NewRing(1 << 14)
	opts.EventListener = ring
	db, err := core.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	// Model a real fsync: without a sync cost, group commit has nothing
	// to amortize and the measurement is pure scheduler noise.
	fs.SetSyncDelay(300 * time.Microsecond)

	srv := server.New(db, server.Options{EventListener: ring})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	defer func() {
		srv.Shutdown(5 * time.Second)
		<-serveDone
	}()

	const perConn = 150

	// run measures synchronous (one-at-a-time per connection) PUT
	// throughput over conns connections, returning ops/sec.
	run := func(conns int, tag string) float64 {
		cl, err := client.Dial(ln.Addr().String(), client.Options{PoolSize: conns})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		var wg sync.WaitGroup
		start := time.Now()
		for c := 0; c < conns; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				p, err := cl.Pipeline()
				if err != nil {
					t.Error(err)
					return
				}
				for i := 0; i < perConn; i++ {
					// Synchronous: wait for each ack before the next put.
					if err := p.Put([]byte(fmt.Sprintf("%s-c%02d-%04d", tag, c, i)), []byte("v")).Err(); err != nil {
						t.Errorf("conn %d put %d: %v", c, i, err)
						return
					}
				}
			}(c)
		}
		wg.Wait()
		return float64(conns*perConn) / time.Since(start).Seconds()
	}

	before := db.Metrics()
	seqRate := run(1, "seq")
	mid := db.Metrics()
	parRate := run(8, "par")
	after := db.Metrics()

	// Sanity: the sequential phase must not itself have coalesced
	// (one conn, synchronous puts → one batch per group).
	seqGroups := mid.CommitGroups - before.CommitGroups
	seqBatches := mid.CommitBatches - before.CommitBatches
	if seqGroups == 0 || seqBatches != seqGroups {
		t.Fatalf("sequential phase: groups=%d batches=%d", seqGroups, seqBatches)
	}

	groups := after.CommitGroups - mid.CommitGroups
	batches := after.CommitBatches - mid.CommitBatches
	if groups == 0 {
		t.Fatal("parallel phase produced no commit groups")
	}
	meanGroup := float64(batches) / float64(groups)
	t.Logf("1 conn: %.0f ops/s; 8 conns: %.0f ops/s (%.1fx); mean commit group size %.2f (%d batches / %d groups)",
		seqRate, parRate, parRate/seqRate, meanGroup, batches, groups)

	if meanGroup <= 1.0 {
		t.Fatalf("mean commit group size %.2f, want > 1: network writes are not feeding the group-commit pipeline", meanGroup)
	}
	if parRate < 2*seqRate {
		t.Fatalf("8-conn throughput %.0f ops/s is under 2x the 1-conn %.0f ops/s", parRate, seqRate)
	}

	// The event stream saw the network lifecycle.
	var connOpens, reqEnds int
	for _, e := range ring.Events() {
		switch e.Type {
		case events.ConnOpen:
			connOpens++
		case events.RequestEnd:
			reqEnds++
		}
	}
	if connOpens == 0 || reqEnds == 0 {
		t.Fatalf("event stream missing network events: conn-open=%d request-end=%d", connOpens, reqEnds)
	}
}

// TestSlowClientCutOffByWriteTimeout: a raw connection pipelines GETs
// of a large value and never reads its responses. Once the socket
// buffers fill, the server's write blocks; WriteTimeout must cut the
// connection off (ConnClose emitted), other connections must be served
// meanwhile, the drain must return, and no goroutine may be left
// behind.
func TestSlowClientCutOffByWriteTimeout(t *testing.T) {
	const writeTimeout = time.Second
	db, err := core.Open(core.DefaultOptions(vfs.NewMem(), "db"))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Put([]byte("big"), bytes.Repeat([]byte("v"), 64<<10)); err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	ring := events.NewRing(1 << 12)
	srv := server.New(db, server.Options{WriteTimeout: writeTimeout, EventListener: ring})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	addr := ln.Addr().String()

	// 1 000 responses of 64 KiB is far more than loopback socket
	// buffers hold, so the server's writes must stall.
	slow, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	var burst []byte
	for i := 0; i < 1000; i++ {
		burst = wire.AppendFrame(burst, wire.OpGet, wire.AppendBytes(nil, []byte("big")))
	}
	sent := time.Now()
	if _, err := slow.Write(burst); err != nil {
		t.Fatal(err)
	}

	// Another connection is served while the slow one is stuck.
	cl, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := cl.Put([]byte(fmt.Sprintf("k%02d", i)), []byte("v")); err != nil {
			t.Fatalf("put %d beside a stuck connection: %v", i, err)
		}
		if _, err := cl.Get([]byte(fmt.Sprintf("k%02d", i))); err != nil {
			t.Fatalf("get %d beside a stuck connection: %v", i, err)
		}
	}

	slowAddr := slow.LocalAddr().String()
	closedAt := func() (time.Time, bool) {
		for _, e := range ring.Events() {
			if e.Type == events.ConnClose && e.Path == slowAddr {
				return time.Unix(0, e.TimeNs), true
			}
		}
		return time.Time{}, false
	}
	deadline := sent.Add(writeTimeout + 3*time.Second)
	for {
		if _, ok := closedAt(); ok || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	at, ok := closedAt()
	if !ok {
		t.Fatalf("slow connection still open %v after its burst (WriteTimeout %v)", time.Since(sent), writeTimeout)
	}
	// No socket write starts before the burst, so no write can time out
	// sooner than WriteTimeout after it.
	if d := at.Sub(sent); d < writeTimeout {
		t.Fatalf("slow connection closed %v after its burst, before WriteTimeout %v", d, writeTimeout)
	}

	cl.Close()
	if err := srv.Shutdown(5 * time.Second); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	slow.Close()
	waitFor(t, "goroutines back to their baseline", func() bool { return runtime.NumGoroutine() <= base })
}

// TestResponsesFlushBeforeBlockingRead: responses to requests pipelined
// ahead of a frame that arrives in two writes are delivered without
// waiting for the rest of that frame — the connection flushes before
// any read that could block.
func TestResponsesFlushBeforeBlockingRead(t *testing.T) {
	_, _, addr := testServer(t, nil, nil)
	nc := rawConn(t, addr)
	get := wire.AppendFrame(nil, wire.OpGet, wire.AppendBytes(nil, []byte("absent")))
	var head []byte
	head = wire.AppendFrame(head, wire.OpPing, nil)
	head = wire.AppendFrame(head, wire.OpPing, nil)
	head = append(head, get[:6]...)
	if _, err := nc.Write(head); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(2 * time.Second))
	for i := 0; i < 2; i++ {
		if status, _, err := readResp(t, nc); err != nil || status != wire.StatusOK {
			t.Fatalf("ping %d ahead of a split frame: status=%#x err=%v", i, status, err)
		}
	}
	if _, err := nc.Write(get[6:]); err != nil {
		t.Fatal(err)
	}
	if status, _, err := readResp(t, nc); err != nil || status != wire.StatusNotFound {
		t.Fatalf("split GET: status=%#x err=%v", status, err)
	}
}
