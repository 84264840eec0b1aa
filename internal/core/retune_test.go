package core

import (
	"fmt"
	"testing"

	"lsmlab/internal/compaction"
)

func TestSetShapeTieringToLeveling(t *testing.T) {
	// Start tiered: runs accumulate.
	db, _ := testDB(t, func(o *Options) { o.Layout = compaction.Tiering{K: 4} })
	model := applyRandomWorkload(t, db, 61, 4000, 600)
	db.Flush()
	db.WaitIdle()
	if name, _ := db.Shape(); name != "tiering(4)" {
		t.Fatalf("shape %q", name)
	}

	// Switch to leveling online: the picker now sees every multi-run
	// level as over capacity and merges them down.
	if err := db.SetShape(compaction.Leveling{}, 0); err != nil {
		t.Fatal(err)
	}
	db.WaitIdle()
	if name, _ := db.Shape(); name != "leveling" {
		t.Fatalf("shape after retune %q", name)
	}
	// Every level must now hold at most one run (the leveled invariant);
	// the last level may keep runs merged earlier, so check levels
	// 0..N-2 which the picker governs.
	ts := db.TreeStats()
	for _, l := range ts.Levels[:len(ts.Levels)-1] {
		if l.Runs > 1 {
			t.Errorf("L%d still tiered after retune: %d runs", l.Level, l.Runs)
		}
	}
	verifyAgainstModel(t, db, model, 600)
}

func TestSetShapeSizeRatio(t *testing.T) {
	db, _ := testDB(t, nil)
	if err := db.SetShape(nil, 8); err != nil {
		t.Fatal(err)
	}
	if _, ratio := db.Shape(); ratio != 8 {
		t.Fatalf("ratio %d", ratio)
	}
	if err := db.SetShape(nil, 1); err == nil {
		t.Error("ratio 1 must be rejected")
	}
	// Data still correct after a shape change mid-stream.
	model := applyRandomWorkload(t, db, 62, 2000, 300)
	db.WaitIdle()
	verifyAgainstModel(t, db, model, 300)
}

func TestSetShapeOnClosedDB(t *testing.T) {
	db, _ := testDB(t, nil)
	db.Close()
	if err := db.SetShape(compaction.Leveling{}, 0); err != ErrClosed {
		t.Errorf("closed: %v", err)
	}
}

func TestSetShapeUnderLoad(t *testing.T) {
	// Flip shapes while writing; correctness must hold throughout.
	db, _ := testDB(t, nil)
	model := map[string]string{}
	shapes := []compaction.Layout{
		compaction.Tiering{K: 3}, compaction.Leveling{},
		compaction.LazyLeveling{K: 3}, compaction.TieredFirst{K0: 4},
	}
	for round, layout := range shapes {
		if err := db.SetShape(layout, 0); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 800; i++ {
			k := fmt.Sprintf("key-%04d", (round*137+i)%900)
			v := fmt.Sprintf("r%d-%d", round, i)
			if err := db.Put([]byte(k), []byte(v)); err != nil {
				t.Fatal(err)
			}
			model[k] = v
		}
	}
	db.Flush()
	db.WaitIdle()
	verifyAgainstModel(t, db, model, 900)
}

// TestPerLevelLayoutEndToEnd runs the fully general per-level run-cap
// layout (the LSM-Bush/Wacky continuum point of §2.3.1) through a real
// workload and checks both correctness and that each governed level
// respects its configured run capacity at quiescence.
func TestPerLevelLayoutEndToEnd(t *testing.T) {
	layout := compaction.PerLevel{Caps: []int{5, 3, 2, 1}}
	db, _ := testDB(t, func(o *Options) { o.Layout = layout })
	model := applyRandomWorkload(t, db, 77, 5000, 700)
	db.Flush()
	db.WaitIdle()
	verifyAgainstModel(t, db, model, 700)

	ts := db.TreeStats()
	for lvl, l := range ts.Levels[:len(ts.Levels)-1] {
		cap := layout.RunCapacity(lvl, db.opts.NumLevels)
		if l.Runs > cap {
			t.Errorf("L%d holds %d runs, cap %d", lvl, l.Runs, cap)
		}
	}
}

// TestStrategyDrivesEngine wires a parsed textual strategy into engine
// options — the Compactionary round trip at system level.
func TestStrategyDrivesEngine(t *testing.T) {
	s, err := compaction.ParseStrategy("lazy-leveling(3)/partial/tombstone-density")
	if err != nil {
		t.Fatal(err)
	}
	db, _ := testDB(t, func(o *Options) {
		o.Layout = s.Layout
		o.Granularity = s.Granularity
		o.MovePolicy = s.MovePolicy
	})
	model := applyRandomWorkload(t, db, 78, 3000, 500)
	db.WaitIdle()
	verifyAgainstModel(t, db, model, 500)
	if name, _ := db.Shape(); name != "lazy-leveling(3)" {
		t.Errorf("shape %q", name)
	}
}

// TestSetShapeRacesJobs retunes the shape in a loop while flushes and
// compactions size their Monkey filters from it and pick their work:
// the picker is the one copy of the shape, so under -race no job reads
// a field SetShape writes.
func TestSetShapeRacesJobs(t *testing.T) {
	db, _ := testDB(t, func(o *Options) {
		o.FilterMode = FilterMonkey
		o.BufferBytes = 2 << 10
		o.Workers = 2
	})
	shapes := []compaction.Layout{compaction.Tiering{K: 3}, compaction.Leveling{}, compaction.LazyLeveling{K: 3}}
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := db.SetShape(shapes[i%len(shapes)], 3+i%3); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	model := applyRandomWorkload(t, db, 79, 4000, 600)
	close(stop)
	<-done
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	db.WaitIdle()
	verifyAgainstModel(t, db, model, 600)
	if m := db.Metrics(); m.Flushes == 0 || m.Compactions == 0 {
		t.Fatalf("flushes=%d compactions=%d: the shape raced no job", m.Flushes, m.Compactions)
	}
}
