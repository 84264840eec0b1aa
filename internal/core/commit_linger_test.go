package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lsmlab/internal/metrics"
	"lsmlab/internal/trace"
	"lsmlab/internal/vfs"
)

// lingerSync is the modelled WAL sync of the linger tests: long enough
// that half of it dwarfs a goroutine hand-off under -race on two cores.
const lingerSync = time.Millisecond

func openLingerDB(t *testing.T, syncDelay time.Duration, mod func(*Options)) *DB {
	t.Helper()
	fs := vfs.NewMem()
	fs.SetSyncDelay(syncDelay)
	opts := DefaultOptions(fs, "db")
	opts.SyncWAL = true
	if mod != nil {
		mod(&opts)
	}
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// closedLoop puts n keys one at a time, each think after the last was
// acknowledged — one synchronous client.
func closedLoop(t *testing.T, db *DB, id, n int, think time.Duration) {
	val := make([]byte, 100)
	for i := 0; i < n; i++ {
		if think > 0 {
			time.Sleep(think)
		}
		if err := db.Put([]byte(fmt.Sprintf("w%d-%06d", id, i)), val); err != nil {
			t.Errorf("writer %d put %d: %v", id, i, err)
			return
		}
	}
}

// TestGroupCommitAntiPhase is serve-write-sync's steady state in
// process: two closed-loop writers, the second arriving while the
// first's sync is in flight. Without a linger the promoted follower
// claims alone, the acknowledged writer arrives just after that sync
// began, and the pair alternates groups of one forever. With it they
// share every sync.
func TestGroupCommitAntiPhase(t *testing.T) {
	tr := trace.New(trace.Options{SampleEvery: 1, RingSize: 256, Seed: 1})
	db := openLingerDB(t, lingerSync, func(o *Options) { o.Tracer = tr })
	const perWriter = 400
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			closedLoop(t, db, w, perWriter, 0)
		}(w)
		time.Sleep(lingerSync / 2)
	}
	wg.Wait()

	m := db.Metrics()
	if g := m.AvgCommitGroupSize(); g < 1.9 {
		t.Errorf("mean commit group %.3f, want >= 1.9 (%d batches in %d groups, %d lingers timed out)",
			g, m.CommitBatches, m.CommitGroups, m.CommitLingerTimeouts)
	}
	if limit := int64(0.55 * float64(m.CommitBatches)); m.WALSyncs > limit {
		t.Errorf("%d WAL syncs for %d batches, want <= %d", m.WALSyncs, m.CommitBatches, limit)
	}
	if m.CommitLingerNs == 0 {
		t.Error("groups formed but commit_linger_ns_total is zero")
	}
	lingered := false
	for _, sp := range tr.Spans() {
		for _, st := range sp.Stages() {
			lingered = lingered || st.Name == "linger"
		}
	}
	if !lingered {
		t.Error(`no retained put span carries a "linger" stage`)
	}
}

// TestLingerNeverWaitsWithoutCause: a leader waits only when a peer is
// expected and a sync is worth sharing.
func TestLingerNeverWaitsWithoutCause(t *testing.T) {
	cases := []struct {
		name    string
		writers int
		delay   time.Duration
		mod     func(*Options)
	}{
		{"lone sync'd writer", 1, lingerSync, nil},
		{"SyncWAL off", 4, lingerSync, func(o *Options) { o.SyncWAL = false }},
		{"WAL disabled", 4, lingerSync, func(o *Options) { o.DisableWAL = true }},
		{"free sync", 4, 0, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db := openLingerDB(t, tc.delay, tc.mod)
			var wg sync.WaitGroup
			for w := 0; w < tc.writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					closedLoop(t, db, w, 200, 0)
				}(w)
			}
			wg.Wait()
			if m := db.Metrics(); m.CommitLingerNs != 0 || m.CommitLingerTimeouts != 0 {
				t.Errorf("lingered %d ns, %d timeouts; want none", m.CommitLingerNs, m.CommitLingerTimeouts)
			}
		})
	}
}

// TestLingerSlowPeer: two closed-loop writers that each think for longer
// than a sync between puts. A sync is in flight when the other arrives,
// so every hand-off sees a queued peer and expects it back, but it never
// returns within half a sync. The timed-out lingers must back off: a few
// at first, then one probe in 257, together a sliver of the run — the
// pair commits as it would without a linger, one sync per put.
func TestLingerSlowPeer(t *testing.T) {
	db := openLingerDB(t, lingerSync, nil)
	const perWriter = 300
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			closedLoop(t, db, w, perWriter, lingerSync*3/2)
		}(w)
		time.Sleep(lingerSync / 2)
	}
	wg.Wait()
	elapsed := time.Since(start)

	m := db.Metrics()
	t.Logf("%.0f puts/s, mean group %.2f, %d lingers timed out, %v lingered",
		float64(m.CommitBatches)/elapsed.Seconds(), m.AvgCommitGroupSize(), m.CommitLingerTimeouts, time.Duration(m.CommitLingerNs))
	// 8 doubling back-offs cover 510 lingers passed up; one more per 256.
	if limit := 8 + m.CommitBatches/256; m.CommitLingerTimeouts > limit {
		t.Errorf("%d of %d commits lingered and timed out, want <= %d", m.CommitLingerTimeouts, m.CommitBatches, limit)
	}
	if spent := time.Duration(m.CommitLingerNs); spent > elapsed/20 {
		t.Errorf("lingered %v of a %v run (mean group %.2f), want <= 5%%", spent, elapsed, m.AvgCommitGroupSize())
	}
}

// TestLingerPeerDeparture: when one of two writers stops, the survivor
// pays for the stale estimate once — a single timed-out linger — and
// then commits without waiting, at one sync per put.
func TestLingerPeerDeparture(t *testing.T) {
	db := openLingerDB(t, lingerSync, nil)
	var gone atomic.Bool
	leaver := make(chan struct{})
	go func() {
		defer close(leaver)
		closedLoop(t, db, 1, 100, 0)
		gone.Store(true)
	}()

	// The survivor: atGone is taken at its first acknowledgement after
	// the peer left, settled a few puts later, once the one stale linger
	// is behind it.
	var atGone, settled metrics.Snapshot
	val := make([]byte, 100)
	for i, alone := 0, 0; alone < 40; i++ {
		if err := db.Put([]byte(fmt.Sprintf("w0-%06d", i)), val); err != nil {
			t.Fatal(err)
		}
		if !gone.Load() {
			continue
		}
		switch alone++; alone {
		case 1:
			atGone = db.Metrics()
		case 5:
			settled = db.Metrics()
		}
	}
	<-leaver
	end := db.Metrics()
	if end.AvgCommitGroupSize() < 1.5 {
		t.Fatalf("the pair never grouped (mean %.2f): nothing to depart from", end.AvgCommitGroupSize())
	}
	if n := end.CommitLingerTimeouts - atGone.CommitLingerTimeouts; n > 1 {
		t.Errorf("%d lingers timed out after the peer left, want at most 1", n)
	}
	if ns := end.CommitLingerNs - settled.CommitLingerNs; ns != 0 {
		t.Errorf("the lone survivor still lingered %d ns over its last puts", ns)
	}
	if groups, batches := end.CommitGroups-settled.CommitGroups, end.CommitBatches-settled.CommitBatches; groups != batches {
		t.Errorf("survivor's last %d puts took %d groups, want one sync each", batches, groups)
	}
}
