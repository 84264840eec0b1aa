package core

import (
	"errors"

	"lsmlab/internal/compaction"
)

// SetShape changes the compaction layout and/or size ratio of a running
// database — online data-layout transformation, the open challenge of
// tutorial §2.3.4(3) and the actuator for robust tuning under workload
// shift (§2.3.2). The tree is not rewritten eagerly: the new shape
// becomes the target, and subsequent flushes and compactions reorganize
// data toward it (a tiered tree under a new leveled target merges down
// run by run; a leveled tree under a new tiered target simply stops
// merging greedily).
//
// Passing a nil layout keeps the current one; sizeRatio <= 0 keeps the
// current ratio.
func (db *DB) SetShape(layout compaction.Layout, sizeRatio int) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	popts := db.picker.Load().Options()
	if layout != nil {
		popts.Layout = layout
	}
	if sizeRatio > 0 {
		if sizeRatio < 2 {
			return errors.New("lsm: size ratio must be at least 2")
		}
		popts.SizeRatio = sizeRatio
	}
	db.picker.Store(compaction.NewPicker(popts))
	db.cond.Broadcast()
	return nil
}

// Shape reports the current compaction layout name and size ratio.
func (db *DB) Shape() (layout string, sizeRatio int) {
	popts := db.picker.Load().Options()
	return popts.Layout.Name(), popts.SizeRatio
}
