package experiments

import (
	"fmt"

	"lsmlab/internal/compaction"
	"lsmlab/internal/core"
	"lsmlab/internal/workload"
)

// E6FilePicking compares partial-compaction data-movement policies on a
// delete-heavy stream: min-overlap minimizes write amplification,
// while tombstone-density picking purges logically deleted data
// earliest (Lethe's policy), leaving the fewest tombstones behind
// (tutorial §2.2.3).
func E6FilePicking(s Scale) (*Table, error) {
	t := &Table{
		ID:    "E6",
		Title: "Partial-compaction file picking policies",
		Claim: "min-overlap picking reduces write amp; tombstone-density picking purges deletes earliest (§2.2.3)",
		Columns: []string{"policy", "write_amp", "compactions", "tombstones_dropped",
			"tombstones_left", "entries_dropped", "ingest_sim_ms"},
	}
	n := s.N(200_000)

	policies := []compaction.MovePolicy{
		compaction.PickMinOverlap,
		compaction.PickRoundRobin,
		compaction.PickOldest,
		compaction.PickMaxTombstoneDensity,
	}
	for _, policy := range policies {
		e := newEnv(func(o *core.Options) {
			o.MovePolicy = policy
			o.Granularity = compaction.GranularityPartial
			// Small files and tight level capacities make partial
			// (file-at-a-time) compactions the dominant operation, which
			// is where the picking policy acts.
			o.TargetFileSize = 32 << 10
			o.BaseLevelBytes = 128 << 10
		})
		db, err := e.open()
		if err != nil {
			return nil, err
		}
		// Zipfian skew concentrates updates/deletes on hot keys, making
		// file overlap and tombstone density vary across the key space —
		// the regime where the picking policy matters.
		gen := workload.New(workload.Config{
			Seed: 1, KeySpace: int64(n / 2), ValueLen: 64,
			Distribution: workload.Zipfian,
			Mix:          workload.Mix{Puts: 0.9, Deletes: 0.1},
		})
		for i := 0; i < n; i++ {
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
		// Count surviving tombstones across the tree.
		var left uint64
		for _, f := range db.Version().Files() {
			left += f.NumTombstones
		}
		t.AddRow(
			policy.String(),
			f2(m.WriteAmplification()),
			fmt.Sprint(m.Compactions),
			fmt.Sprint(m.TombstonesDropped),
			fmt.Sprint(left),
			fmt.Sprint(m.EntriesDropped),
			simMillis(e.fs.Stats().SimulatedNs),
		)
		db.Close()
	}
	return t, nil
}
