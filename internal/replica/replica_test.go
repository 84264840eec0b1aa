package replica_test

import (
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"lsmlab/internal/core"
	"lsmlab/internal/replica"
	"lsmlab/internal/server"
	"lsmlab/internal/vfs"
)

// fastLeader wraps a store in a leader server with test-speed
// replication cadences.
func startLeader(t *testing.T, db *core.DB) (string, *replica.Leader, *server.Server) {
	t.Helper()
	lead := replica.NewLeader([]*core.DB{db}, replica.LeaderOptions{
		Poll: 500 * time.Microsecond, Heartbeat: 20 * time.Millisecond,
	})
	srv := server.New(db, server.Options{Repl: lead})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Shutdown(5 * time.Second)
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return ln.Addr().String(), lead, srv
}

func startFollower(t *testing.T, addr string) (*core.DB, *replica.Receiver) {
	t.Helper()
	fs := vfs.NewMem()
	opts := core.DefaultOptions(fs, "follower")
	opts.Replica = true
	db, err := core.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	recv, err := replica.NewReceiver(replica.ReceiverOptions{
		Leader: addr, ID: "f1", FS: fs, Dir: "follower",
		Shards:      []*core.DB{db},
		AckInterval: 10 * time.Millisecond, SessionLength: 2 * time.Second,
		StreamTimeout: time.Second, Backoff: 20 * time.Millisecond,
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	recv.Start()
	t.Cleanup(recv.Stop)
	return db, recv
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestReplicationStreamsWrites(t *testing.T) {
	ldb, err := core.Open(core.DefaultOptions(vfs.NewMem(), "leader"))
	if err != nil {
		t.Fatal(err)
	}
	defer ldb.Close()
	addr, lead, lsrv := startLeader(t, ldb)
	fdb, recv := startFollower(t, addr)

	for i := 0; i < 200; i++ {
		if err := ldb.Put([]byte(fmt.Sprintf("k%04d", i)), []byte(fmt.Sprintf("v%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	want := ldb.VisibleSeq()
	waitFor(t, "follower to catch up", func() bool {
		return recv.AppliedVector()[0] >= want
	})
	for i := 0; i < 200; i++ {
		v, err := fdb.Get([]byte(fmt.Sprintf("k%04d", i)))
		if err != nil || string(v) != fmt.Sprintf("v%04d", i) {
			t.Fatalf("follower get k%04d: %q, %v", i, v, err)
		}
	}
	// Deletes ship too.
	if err := ldb.Delete([]byte("k0100")); err != nil {
		t.Fatal(err)
	}
	want = ldb.VisibleSeq()
	waitFor(t, "delete to ship", func() bool { return recv.AppliedVector()[0] >= want })
	if _, err := fdb.Get([]byte("k0100")); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("deleted key still readable on follower: %v", err)
	}
	// The follower acks: the leader's status sees it converge.
	waitFor(t, "leader to see the ack", func() bool {
		st, err := replica.ParseStatus(lead.Status())
		if err != nil || len(st.Followers) != 1 {
			return false
		}
		return st.Followers[0].Acked[0] >= want
	})
	// External writes on the follower are refused as replica writes.
	if err := fdb.Put([]byte("x"), []byte("y")); !errors.Is(err, core.ErrReplica) {
		t.Fatalf("follower accepted an external write: %v", err)
	}
	// Convergence is provable: identical Merkle roots.
	lt, err := replica.BuildTree(ldb, 0)
	if err != nil {
		t.Fatal(err)
	}
	ft, err := replica.BuildTree(fdb, 0)
	if err != nil {
		t.Fatal(err)
	}
	if lt.Root != ft.Root {
		t.Fatalf("roots diverge after catch-up: %x vs %x", lt.Root, ft.Root)
	}
	// Both ends account for the work: the leader's serving layer counts
	// the stream, the follower's engine snapshot (via the replica engine
	// wrapper) counts the applies.
	net := lsrv.Metrics()
	if net.ReplSubscribes < 1 || net.ReplFramesShipped == 0 || net.ReplAcks == 0 {
		t.Fatalf("leader repl counters empty: subscribes=%d frames=%d acks=%d",
			net.ReplSubscribes, net.ReplFramesShipped, net.ReplAcks)
	}
	feng := replica.NewEngine(fdb, recv).Stats().Counters
	if feng.ReplBatchesApplied == 0 {
		t.Fatalf("follower repl counters empty: %+v", feng)
	}
}

func TestReplicationBootstrapsThroughRepair(t *testing.T) {
	ldb, err := core.Open(core.DefaultOptions(vfs.NewMem(), "leader"))
	if err != nil {
		t.Fatal(err)
	}
	defer ldb.Close()
	// Populate and flush BEFORE any follower exists: the flush deletes
	// the WAL segments, so a joining follower cannot stream from seq 1 —
	// it must bootstrap via a gap frame and Merkle repair.
	for i := 0; i < 300; i++ {
		if err := ldb.Put([]byte(fmt.Sprintf("old-%04d", i)), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := ldb.Flush(); err != nil {
		t.Fatal(err)
	}
	addr, _, _ := startLeader(t, ldb)
	fdb, recv := startFollower(t, addr)

	want := ldb.VisibleSeq()
	waitFor(t, "bootstrap repair to adopt the leader watermark", func() bool {
		return recv.AppliedVector()[0] >= want
	})
	if recv.Stats().Gaps == 0 {
		t.Fatal("bootstrap did not go through a gap signal")
	}
	if recv.Stats().RepairRounds == 0 {
		t.Fatal("bootstrap did not run a repair round")
	}
	// After the repair, new writes arrive by streaming.
	for i := 0; i < 50; i++ {
		if err := ldb.Put([]byte(fmt.Sprintf("new-%04d", i)), []byte("y")); err != nil {
			t.Fatal(err)
		}
	}
	want = ldb.VisibleSeq()
	waitFor(t, "post-bootstrap streaming", func() bool { return recv.AppliedVector()[0] >= want })
	lt, _ := replica.BuildTree(ldb, 0)
	ft, _ := replica.BuildTree(fdb, 0)
	if lt == nil || ft == nil || lt.Root != ft.Root {
		t.Fatal("roots diverge after bootstrap + streaming")
	}
}

func TestReplicationStatePersistsAcrossRestart(t *testing.T) {
	ldb, err := core.Open(core.DefaultOptions(vfs.NewMem(), "leader"))
	if err != nil {
		t.Fatal(err)
	}
	defer ldb.Close()
	addr, _, _ := startLeader(t, ldb)

	fs := vfs.NewMem()
	fopts := core.DefaultOptions(fs, "follower")
	fopts.Replica = true
	fdb, err := core.Open(fopts)
	if err != nil {
		t.Fatal(err)
	}
	ropts := replica.ReceiverOptions{
		Leader: addr, ID: "f1", FS: fs, Dir: "follower",
		Shards:      []*core.DB{fdb},
		AckInterval: 5 * time.Millisecond, StreamTimeout: time.Second,
		Backoff: 20 * time.Millisecond, Logf: t.Logf,
	}
	recv, err := replica.NewReceiver(ropts)
	if err != nil {
		t.Fatal(err)
	}
	recv.Start()
	for i := 0; i < 100; i++ {
		if err := ldb.Put([]byte(fmt.Sprintf("k%04d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	want := ldb.VisibleSeq()
	waitFor(t, "first receiver to catch up", func() bool {
		return recv.AppliedVector()[0] >= want
	})
	recv.Stop()
	if err := fdb.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart the follower: the persisted state must resume at (or
	// before) the applied watermark, never ahead of it.
	fdb2, err := core.Open(fopts)
	if err != nil {
		t.Fatal(err)
	}
	defer fdb2.Close()
	ropts.Shards = []*core.DB{fdb2}
	recv2, err := replica.NewReceiver(ropts)
	if err != nil {
		t.Fatal(err)
	}
	if got := recv2.AppliedVector()[0]; got < want {
		t.Fatalf("persisted watermark regressed: %d < %d", got, want)
	}
	recv2.Start()
	defer recv2.Stop()
	for i := 0; i < 20; i++ {
		if err := ldb.Put([]byte(fmt.Sprintf("more-%02d", i)), []byte("w")); err != nil {
			t.Fatal(err)
		}
	}
	want = ldb.VisibleSeq()
	waitFor(t, "restarted receiver to stream", func() bool {
		return recv2.AppliedVector()[0] >= want
	})
	if v, err := fdb2.Get([]byte("more-19")); err != nil || string(v) != "w" {
		t.Fatalf("post-restart streamed key: %q, %v", v, err)
	}
}
