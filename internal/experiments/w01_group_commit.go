package experiments

import (
	"fmt"
	"net"
	"sync"
	"time"

	"lsmlab/internal/client"
	"lsmlab/internal/core"
	"lsmlab/internal/metrics"
	"lsmlab/internal/partition"
	"lsmlab/internal/server"
	"lsmlab/internal/vfs"
	"lsmlab/internal/workload"
)

// putPoint is one row of a sync'd-put sweep: the rate the callers
// reached together and what the commit pipeline did to get there.
type putPoint struct {
	opsPerSec float64
	p50       time.Duration // caller-observed put latency
	m         metrics.Snapshot
}

// syncedPuts drives callers goroutines, each putting perCaller disjoint
// 100-byte values one at a time, into a fresh one-shard store whose
// every commit syncs a WAL whose sync takes syncDelay (the cost group
// commit exists to amortize). Over the wire the same store sits behind
// a loopback server and each caller owns one connection; either way a
// caller waits for its acknowledgement before its next put, so
// concurrency across callers is the only thing the pipeline can group.
func syncedPuts(callers, perCaller int, syncDelay time.Duration, overWire bool) (putPoint, error) {
	mem := vfs.NewMem()
	mem.SetSyncDelay(syncDelay)
	opts := core.DefaultOptions(mem, "db")
	opts.SyncWAL = true
	store, err := partition.Open(opts, 1)
	if err != nil {
		return putPoint{}, err
	}
	defer store.Close()

	connect := func() (func(k, v []byte) error, error) { return store.Put, nil }
	if overWire {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return putPoint{}, err
		}
		srv := server.New(store, server.Options{})
		serveDone := make(chan error, 1)
		go func() { serveDone <- srv.Serve(ln) }()
		defer func() {
			srv.Shutdown(10 * time.Second)
			<-serveDone
		}()
		cl, err := client.Dial(ln.Addr().String(), client.Options{PoolSize: callers})
		if err != nil {
			return putPoint{}, err
		}
		defer cl.Close()
		connect = func() (func(k, v []byte) error, error) {
			p, err := cl.Pipeline()
			if err != nil {
				return nil, err
			}
			return func(k, v []byte) error { return p.Put(k, v).Err() }, nil
		}
	}

	var lat metrics.Histogram
	errs := make([]error, callers)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			put, err := connect()
			val := make([]byte, 100)
			for i := 0; err == nil && i < perCaller; i++ {
				t0 := time.Now().UnixNano()
				err = put(workload.Key(int64(c*perCaller+i)), val)
				lat.RecordSince(t0, time.Now().UnixNano())
			}
			errs[c] = err
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return putPoint{}, err
		}
	}
	return putPoint{
		opsPerSec: float64(callers*perCaller) / elapsed.Seconds(),
		p50:       time.Duration(lat.Snapshot().Quantile(0.5)),
		m:         store.Metrics(),
	}, nil
}

// W1GroupCommit measures the write path's own optimization (DESIGN
// §2b): concurrent committers are batched under one WAL write and one
// sync, so with a sync that costs something, aggregate throughput grows
// with writers while syncs grow with groups, not with batches.
func W1GroupCommit(s Scale) (*Table, error) {
	t := &Table{
		ID:    "W1",
		Title: "Group-commit write scaling (sync'd single puts, 100 µs modelled fsync)",
		Claim: "batching concurrent commits under one WAL write and one fsync amortizes the dominant durability cost: throughput scales with writers, syncs with groups (§2.1.1-A, §2.2.1)",
		Columns: []string{"writers", "ops_per_s", "speedup", "avg_group", "wal_syncs",
			"syncs_saved", "put_p50_ms"},
	}
	perWriter := s.N(2000)
	var base float64
	for _, writers := range []int{1, 2, 4, 8} {
		p, err := syncedPuts(writers, perWriter, 100*time.Microsecond, false)
		if err != nil {
			return nil, err
		}
		if base == 0 {
			base = p.opsPerSec
		}
		t.AddRow(
			fmt.Sprint(writers),
			fmt.Sprintf("%.0f", p.opsPerSec),
			f2(p.opsPerSec/base),
			f2(p.m.AvgCommitGroupSize()),
			fmt.Sprint(p.m.WALSyncs),
			fmt.Sprint(p.m.WALSyncsSaved),
			f2(p.p50.Seconds()*1e3),
		)
	}
	return t, nil
}
