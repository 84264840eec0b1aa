package experiments

import (
	"fmt"
	"sync"
	"time"

	"lsmlab/internal/core"
	"lsmlab/internal/workload"
)

// E11DeletePersistence measures Lethe/FADE's central tradeoff: with a
// tombstone-age threshold, deletes become *persistent* (physically
// purged) within a bounded delay, at the cost of extra compaction work;
// without it, tombstones can linger indefinitely (tutorial §2.3.3,
// [112]). Time is virtual: one tick per operation, so thresholds are
// expressed in operations.
func E11DeletePersistence(s Scale) (*Table, error) {
	t := &Table{
		ID:    "E11",
		Title: "Lethe/FADE: timely persistent deletion",
		Claim: "a tombstone-age trigger bounds delete persistence latency for modest extra write amplification (§2.3.3)",
		Columns: []string{"threshold_ops", "tombstones_left", "oldest_tombstone_age_ops",
			"write_amp", "compactions", "age_triggered"},
	}
	n := s.N(100_000)
	tickNs := int64(time.Millisecond) // 1 op = 1 virtual ms

	for _, thresholdOps := range []int64{0, 50_000, 10_000, 2_000} {
		var mu sync.Mutex
		clock := int64(1e15)
		e := newEnv(func(o *core.Options) {
			o.TombstoneAgeThreshold = time.Duration(thresholdOps * tickNs)
			o.NowNs = func() int64 { mu.Lock(); defer mu.Unlock(); return clock }
			o.SleepFunc = func(d time.Duration) {
				mu.Lock()
				clock += int64(d)
				mu.Unlock()
			}
		})
		db, err := e.open()
		if err != nil {
			return nil, err
		}
		gen := workload.New(workload.Config{
			Seed: 1, KeySpace: int64(n / 2), ValueLen: 64,
			Mix: workload.Mix{Puts: 0.9, Deletes: 0.1},
		})
		for i := 0; i < n; i++ {
			mu.Lock()
			clock += tickNs
			mu.Unlock()
			op := gen.Next()
			var err error
			if op.Kind == workload.OpDelete {
				err = db.Delete(op.Key)
			} else {
				err = db.Put(op.Key, op.Value)
			}
			if err != nil {
				return nil, err
			}
		}
		if err := db.Flush(); err != nil {
			return nil, err
		}
		db.WaitIdle()

		m := db.Metrics()
		var left uint64
		oldestAgeOps := int64(0)
		mu.Lock()
		now := clock
		mu.Unlock()
		for _, f := range db.Version().Files() {
			left += f.NumTombstones
			if f.OldestTombstoneNs > 0 {
				if age := (now - f.OldestTombstoneNs) / tickNs; age > oldestAgeOps {
					oldestAgeOps = age
				}
			}
		}
		name := fmt.Sprint(thresholdOps)
		if thresholdOps == 0 {
			name = "off"
		}
		t.AddRow(
			name,
			fmt.Sprint(left),
			fmt.Sprint(oldestAgeOps),
			f2(m.WriteAmplification()),
			fmt.Sprint(m.Compactions),
			fmt.Sprint(m.AgeCompactions),
		)
		db.Close()
	}
	return t, nil
}
