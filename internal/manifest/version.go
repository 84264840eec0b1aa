// Package manifest tracks the structure of the LSM-tree on disk: which
// immutable files exist, how they are grouped into sorted runs, and how
// runs are stacked into levels. It also persists this structure (plus
// the next file number and last sequence number) crash-safely, so that
// reopening a store recovers exactly the tree that was last committed
// (tutorial §2.1.1 C/D: immutable files and layout re-organization).
//
// The version model is general enough for every data layout in the
// tutorial's design space: a leveled level has one run; a tiered level
// has up to K overlapping runs; hybrid layouts mix both per level.
package manifest

import (
	"bytes"
	"fmt"
	"iter"

	"lsmlab/internal/kv"
)

// FileMeta describes one immutable table file.
type FileMeta struct {
	Num               uint64 // file number (names the file on disk)
	Size              uint64 // bytes
	Smallest          []byte // smallest user key (inclusive)
	Largest           []byte // largest user key (inclusive)
	SmallestSeq       kv.SeqNum
	LargestSeq        kv.SeqNum
	NumEntries        uint64
	NumTombstones     uint64
	NumRangeDels      uint64
	OldestTombstoneNs int64 // FADE: creation time of the file's oldest tombstone
}

// KeyRange returns the file's inclusive user-key range.
func (f *FileMeta) KeyRange() kv.KeyRange {
	return kv.KeyRange{Smallest: f.Smallest, Largest: f.Largest}
}

// TombstoneDensity is the fraction of the file's entries that are
// tombstones, used by delete-aware compaction picking.
func (f *FileMeta) TombstoneDensity() float64 {
	if f.NumEntries == 0 {
		if f.NumRangeDels > 0 {
			return 1
		}
		return 0
	}
	return float64(f.NumTombstones+f.NumRangeDels) / float64(f.NumEntries)
}

func (f *FileMeta) String() string {
	return fmt.Sprintf("#%d[%q..%q]%dB", f.Num, f.Smallest, f.Largest, f.Size)
}

// Run is one sorted run: files ordered by Smallest with pairwise
// non-overlapping key ranges. A flush produces a single-file run; a
// leveled level is exactly one (possibly multi-file) run.
type Run struct {
	Files []*FileMeta
}

// Size returns the run's total bytes.
func (r *Run) Size() uint64 {
	var s uint64
	for _, f := range r.Files {
		s += f.Size
	}
	return s
}

// NumEntries returns the run's total entry count.
func (r *Run) NumEntries() uint64 {
	var n uint64
	for _, f := range r.Files {
		n += f.NumEntries
	}
	return n
}

// KeyRange returns the run's overall key range (nil bounds if empty).
func (r *Run) KeyRange() kv.KeyRange {
	var kr kv.KeyRange
	for _, f := range r.Files {
		kr.Extend(f.Smallest)
		kr.Extend(f.Largest)
	}
	return kr
}

// FindFile returns the file that may contain ukey, or nil. Files are
// sorted and non-overlapping, so binary search applies.
func (r *Run) FindFile(ukey []byte) *FileMeta {
	lo, hi := 0, len(r.Files)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(r.Files[mid].Largest, ukey) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(r.Files) && bytes.Compare(r.Files[lo].Smallest, ukey) <= 0 {
		return r.Files[lo]
	}
	return nil
}

// Overlapping returns the files whose key range intersects kr, in key
// order.
func (r *Run) Overlapping(kr kv.KeyRange) []*FileMeta {
	var out []*FileMeta
	for _, f := range r.Files {
		if f.KeyRange().Overlaps(kr) {
			out = append(out, f)
		}
	}
	return out
}

// Level is a stack of runs, newest first: Runs[0] is the most recently
// produced run. A leveled level has at most one run; a tiered level
// accumulates several before compaction merges them.
type Level struct {
	Runs []*Run
}

// Size returns the level's total bytes.
func (l *Level) Size() uint64 {
	var s uint64
	for _, r := range l.Runs {
		s += r.Size()
	}
	return s
}

// NumFiles returns the number of files in the level.
func (l *Level) NumFiles() int {
	n := 0
	for _, r := range l.Runs {
		n += len(r.Files)
	}
	return n
}

// Version is an immutable snapshot of the tree structure. Methods that
// "modify" a version return a new one (versions are copy-on-write at
// run granularity), so readers iterate a stable structure while
// flushes and compactions install successors.
type Version struct {
	Levels []*Level
}

// NewVersion returns an empty version with the given number of levels.
func NewVersion(numLevels int) *Version {
	v := &Version{Levels: make([]*Level, numLevels)}
	for i := range v.Levels {
		v.Levels[i] = &Level{}
	}
	return v
}

// Clone returns a deep copy of the level/run structure (file metas are
// shared; they are immutable once created).
func (v *Version) Clone() *Version {
	nv := &Version{Levels: make([]*Level, len(v.Levels))}
	for i, l := range v.Levels {
		nl := &Level{Runs: make([]*Run, len(l.Runs))}
		for j, r := range l.Runs {
			nr := &Run{Files: append([]*FileMeta(nil), r.Files...)}
			nl.Runs[j] = nr
		}
		nv.Levels[i] = nl
	}
	return nv
}

// NumLevels returns the number of levels.
func (v *Version) NumLevels() int { return len(v.Levels) }

// TotalSize returns the tree's total bytes.
func (v *Version) TotalSize() uint64 {
	var s uint64
	for _, l := range v.Levels {
		s += l.Size()
	}
	return s
}

// TotalFiles returns the number of files across all levels.
func (v *Version) TotalFiles() int {
	n := 0
	for _, l := range v.Levels {
		n += l.NumFiles()
	}
	return n
}

// NumRuns returns the total number of sorted runs — the quantity that
// bounds worst-case point-lookup probes.
func (v *Version) NumRuns() int {
	n := 0
	for _, l := range v.Levels {
		n += len(l.Runs)
	}
	return n
}

// Files yields every file of the version with its level: levels in
// order, each level's runs newest first, each run's files in key order.
func (v *Version) Files() iter.Seq2[int, *FileMeta] {
	return func(yield func(int, *FileMeta) bool) {
		for li, l := range v.Levels {
			for _, r := range l.Runs {
				for _, f := range r.Files {
					if !yield(li, f) {
						return
					}
				}
			}
		}
	}
}

// LiveFileNums returns the set of file numbers referenced by the
// version, used for garbage collection of obsolete files.
func (v *Version) LiveFileNums() map[uint64]bool {
	live := make(map[uint64]bool)
	for _, f := range v.Files() {
		live[f.Num] = true
	}
	return live
}

// EntriesPerRun lists every run's entry count, shallow levels first —
// the input to Monkey's filter-memory allocation.
func (v *Version) EntriesPerRun() []int64 {
	var out []int64
	for _, l := range v.Levels {
		for _, r := range l.Runs {
			out = append(out, int64(r.NumEntries()))
		}
	}
	return out
}

// PushRun prepends a run to the level (newest first) and returns the
// new version.
func (v *Version) PushRun(level int, r *Run) *Version {
	nv := v.Clone()
	l := nv.Levels[level]
	l.Runs = append([]*Run{r}, l.Runs...)
	return nv
}

// ReplaceRuns removes the identified runs/files and installs newRun in
// their place. removed maps level → file numbers to drop. newRun may be
// nil (pure deletion, e.g. when every entry was garbage-collected).
// Runs left empty by the removal are dropped. The new run is appended
// at newLevel as the *oldest* run (compaction results hold the oldest
// data of their level).
func (v *Version) ReplaceRuns(removed map[int][]uint64, newLevel int, newRun *Run) *Version {
	nv := v.Clone()
	drop := make(map[uint64]bool)
	for _, nums := range removed {
		for _, n := range nums {
			drop[n] = true
		}
	}
	for _, l := range nv.Levels {
		var keptRuns []*Run
		for _, r := range l.Runs {
			var kept []*FileMeta
			for _, f := range r.Files {
				if !drop[f.Num] {
					kept = append(kept, f)
				}
			}
			if len(kept) > 0 {
				keptRuns = append(keptRuns, &Run{Files: kept})
			}
		}
		l.Runs = keptRuns
	}
	if newRun != nil && len(newRun.Files) > 0 {
		l := nv.Levels[newLevel]
		l.Runs = append(l.Runs, newRun)
	}
	return nv
}

// ApplyCompaction removes the job's input files and installs the output
// files at targetLevel. If tiered, the outputs form a new run placed as
// the level's *newest*: by the LSM invariant, data merged down from the
// shallower level is more recent than every run already resident in the
// target, so the new run must shadow them. Otherwise (leveled target)
// the outputs are merged into the level's single run in key order (the
// inputs included every overlapping target file, so the result stays
// non-overlapping). Returns the new version.
func (v *Version) ApplyCompaction(removed map[int][]uint64, targetLevel int, outputs []*FileMeta, tiered bool) *Version {
	nv := v.ReplaceRuns(removed, targetLevel, nil)
	if len(outputs) == 0 {
		return nv
	}
	l := nv.Levels[targetLevel]
	if tiered || len(l.Runs) == 0 {
		l.Runs = append([]*Run{{Files: outputs}}, l.Runs...)
		return nv
	}
	// Merge outputs into the level's single run by Smallest key.
	run := l.Runs[len(l.Runs)-1]
	merged := make([]*FileMeta, 0, len(run.Files)+len(outputs))
	i, j := 0, 0
	for i < len(run.Files) && j < len(outputs) {
		if bytes.Compare(run.Files[i].Smallest, outputs[j].Smallest) < 0 {
			merged = append(merged, run.Files[i])
			i++
		} else {
			merged = append(merged, outputs[j])
			j++
		}
	}
	merged = append(merged, run.Files[i:]...)
	merged = append(merged, outputs[j:]...)
	run.Files = merged
	return nv
}

// Check validates structural invariants: files within a run sorted and
// non-overlapping, levels within bounds. It returns the first violation
// found, or nil. The engine runs it on every version before committing it.
func (v *Version) Check() error {
	for li, l := range v.Levels {
		for ri, r := range l.Runs {
			for fi, f := range r.Files {
				if bytes.Compare(f.Smallest, f.Largest) > 0 {
					return fmt.Errorf("L%d run %d file %s: inverted bounds", li, ri, f)
				}
				if fi > 0 {
					prev := r.Files[fi-1]
					if bytes.Compare(prev.Largest, f.Smallest) >= 0 {
						return fmt.Errorf("L%d run %d: files %s and %s overlap", li, ri, prev, f)
					}
				}
			}
		}
	}
	return nil
}
