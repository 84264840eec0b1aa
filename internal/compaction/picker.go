package compaction

import (
	"bytes"
	"fmt"

	"lsmlab/internal/kv"
	"lsmlab/internal/manifest"
)

// Granularity is primitive (iii): how much of a level moves at once.
type Granularity int

const (
	// GranularityFull compacts every file of the overflowing level
	// (AsterixDB-style; simple but bursty).
	GranularityFull Granularity = iota
	// GranularityPartial compacts one file at a time, amortizing I/O
	// (RocksDB/LevelDB-style).
	GranularityPartial
)

func (g Granularity) String() string {
	if g == GranularityFull {
		return "full"
	}
	return "partial"
}

// MovePolicy is primitive (iv): which file a partial compaction picks.
type MovePolicy int

const (
	// PickMinOverlap chooses the file with the least overlapping bytes
	// in the target level, minimizing merge work per byte moved.
	PickMinOverlap MovePolicy = iota
	// PickRoundRobin cycles through the key space (LevelDB's original
	// policy).
	PickRoundRobin
	// PickOldest chooses the file with the smallest maximum sequence
	// number (coldest data first).
	PickOldest
	// PickMaxTombstoneDensity chooses the file with the highest
	// tombstone density, purging deletes earliest (Lethe's policy for
	// delete-intensive workloads).
	PickMaxTombstoneDensity
)

func (p MovePolicy) String() string {
	switch p {
	case PickMinOverlap:
		return "min-overlap"
	case PickRoundRobin:
		return "round-robin"
	case PickOldest:
		return "oldest"
	case PickMaxTombstoneDensity:
		return "tombstone-density"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// Reason labels why a job was scheduled, for stats and experiments.
type Reason string

// Compaction trigger reasons — primitive (i).
const (
	ReasonRunCount     Reason = "run-count"     // level holds too many runs
	ReasonLevelSize    Reason = "level-size"    // leveled level over byte capacity
	ReasonTombstoneAge Reason = "tombstone-age" // FADE: a tombstone exceeded its persistence deadline
	ReasonManual       Reason = "manual"        // user-requested full compaction
)

// Options configures the picker — together these knobs span the
// tutorial's compaction design space.
type Options struct {
	// NumLevels is the number of on-disk levels.
	NumLevels int
	// SizeRatio is T: the capacity growth factor between levels.
	SizeRatio int
	// BaseLevelBytes is level 1's byte capacity; level i holds
	// BaseLevelBytes * T^(i-1).
	BaseLevelBytes uint64
	// Layout is primitive (ii).
	Layout Layout
	// Granularity is primitive (iii); it applies to leveled levels
	// (tiered levels always merge whole runs).
	Granularity Granularity
	// MovePolicy is primitive (iv); used with GranularityPartial.
	MovePolicy MovePolicy
	// TombstoneAgeThresholdNs enables the FADE trigger when positive: a
	// file whose oldest tombstone is older than this must compact.
	TombstoneAgeThresholdNs int64
	// NowNs supplies the current time for age triggers.
	NowNs func() int64
}

// LevelCapacityBytes returns the byte capacity of a level (level >= 1).
func (o *Options) LevelCapacityBytes(level int) uint64 {
	c := o.BaseLevelBytes
	for i := 1; i < level; i++ {
		c *= uint64(o.SizeRatio)
	}
	return c
}

// Job describes one compaction: merge Inputs and write the result into
// ToLevel. If TargetTiered, the output becomes a new run appended to
// ToLevel without reading ToLevel's existing runs; otherwise the
// overlapping files of ToLevel's single run are part of Inputs and are
// replaced.
type Job struct {
	FromLevel, ToLevel int
	// Inputs maps level → files to merge (and remove).
	Inputs map[int][]*manifest.FileMeta
	// TargetTiered marks tiered-target jobs (append as new run).
	TargetTiered bool
	// AllOfTargetLevel reports that Inputs covers every file currently
	// in ToLevel. Tombstones may be purged at the tree's last level only
	// when no resident run survives beside the output (always true for
	// leveled targets, whose untouched files cannot share keys with the
	// inputs; for tiered targets it requires whole-level coverage).
	AllOfTargetLevel bool
	Reason           Reason
}

// InputBytes returns the job's total input size.
func (j *Job) InputBytes() uint64 {
	var s uint64
	for _, files := range j.Inputs {
		for _, f := range files {
			s += f.Size
		}
	}
	return s
}

// NumInputFiles returns the number of files consumed.
func (j *Job) NumInputFiles() int {
	n := 0
	for _, files := range j.Inputs {
		n += len(files)
	}
	return n
}

// Picker selects compaction jobs. It carries the round-robin cursors,
// which are advisory state: losing them (e.g. on restart) only resets
// the rotation.
type Picker struct {
	opts    Options
	cursors [][]byte // per-level round-robin cursor (last picked largest key)
}

// NewPicker returns a Picker for the given options.
func NewPicker(opts Options) *Picker {
	return &Picker{opts: opts, cursors: make([][]byte, opts.NumLevels)}
}

// Options returns the picker's configuration.
func (p *Picker) Options() Options { return p.opts }

// Pick returns the next compaction job for v, or nil if the tree
// satisfies its shape invariants. Priority order: tombstone-age
// violations (a deadline), then level 0, then deeper levels.
func (p *Picker) Pick(v *manifest.Version) *Job {
	return p.PickExcluding(v, nil)
}

// PickExcluding returns the highest-priority job whose levels are all
// admissible (busy == nil admits everything). Skipping conflicted jobs
// instead of returning nothing lets concurrent workers compact disjoint
// levels while the hottest level is already being worked on.
func (p *Picker) PickExcluding(v *manifest.Version, busy func(level int) bool) *Job {
	admissible := func(j *Job) bool {
		if j == nil {
			return false
		}
		if busy == nil {
			return true
		}
		if busy(j.ToLevel) {
			return false
		}
		for lvl := range j.Inputs {
			if busy(lvl) {
				return false
			}
		}
		return true
	}
	if j := p.pickTombstoneAge(v); j != nil && admissible(j) {
		return j
	}
	for level := 0; level < p.opts.NumLevels-1; level++ {
		if j := p.pickLevel(v, level); admissible(j) {
			return j
		}
	}
	return nil
}

// pickTombstoneAge enforces the FADE deadline: any file whose oldest
// tombstone has exceeded the persistence threshold is compacted into
// the next level immediately, regardless of level fullness (Lethe,
// tutorial §2.3.3).
func (p *Picker) pickTombstoneAge(v *manifest.Version) *Job {
	if p.opts.TombstoneAgeThresholdNs <= 0 || p.opts.NowNs == nil {
		return nil
	}
	now := p.opts.NowNs()
	for level := 0; level < p.opts.NumLevels; level++ {
		l := v.Levels[level]
		var expired *manifest.FileMeta
		for _, r := range l.Runs {
			for _, f := range r.Files {
				if f.OldestTombstoneNs > 0 && now-f.OldestTombstoneNs >= p.opts.TombstoneAgeThresholdNs {
					expired = f
					break
				}
			}
			if expired != nil {
				break
			}
		}
		if expired == nil {
			continue
		}
		// Recency safety: moving one file out of a level with multiple
		// (overlapping) runs would sink newer data below older data for
		// the same keys. Such levels merge wholesale.
		var allFiles []*manifest.FileMeta
		for _, r := range l.Runs {
			allFiles = append(allFiles, r.Files...)
		}
		if level == p.opts.NumLevels-1 {
			// Bottom level: rewrite the whole level in place; tombstones
			// have nothing below (or beside, post-merge) to shadow, so
			// the rewrite purges them.
			return &Job{
				FromLevel: level, ToLevel: level,
				Inputs:           map[int][]*manifest.FileMeta{level: allFiles},
				AllOfTargetLevel: true,
				Reason:           ReasonTombstoneAge,
			}
		}
		if len(l.Runs) > 1 {
			return p.buildJob(v, level, allFiles, ReasonTombstoneAge)
		}
		// A single-run (leveled) level has non-overlapping files: the
		// expired file alone can move down safely.
		return p.buildJob(v, level, []*manifest.FileMeta{expired}, ReasonTombstoneAge)
	}
	return nil
}

// pickLevel checks one level against its layout's run capacity and its
// byte capacity and schedules the appropriate merge.
func (p *Picker) pickLevel(v *manifest.Version, level int) *Job {
	l := v.Levels[level]
	if len(l.Runs) == 0 {
		return nil
	}
	runCap := p.opts.Layout.RunCapacity(level, p.opts.NumLevels)

	// Run-count trigger: the level has accumulated its quota of runs,
	// and all of them merge together into the next level (a whole-run,
	// tiering-style merge). Level 0 receives flushed runs so even a
	// leveled L0 (runCap 1) fires as soon as one run lands; leveled
	// deeper levels receive merged output directly and only fire here
	// defensively if the invariant was somehow violated.
	var runCountTrigger bool
	switch {
	case level == 0 || runCap > 1:
		runCountTrigger = len(l.Runs) >= runCap
	default:
		runCountTrigger = len(l.Runs) > 1
	}
	if runCountTrigger {
		var files []*manifest.FileMeta
		for _, r := range l.Runs {
			files = append(files, r.Files...)
		}
		return p.buildJob(v, level, files, ReasonRunCount)
	}

	// Size trigger applies to levels with byte capacities (level >= 1).
	if level >= 1 && l.Size() > p.opts.LevelCapacityBytes(level) {
		files := l.Runs[0].Files
		if len(l.Runs) == 1 && p.opts.Granularity == GranularityPartial {
			files = []*manifest.FileMeta{p.pickFile(v, level, l.Runs[0].Files)}
		} else if len(l.Runs) > 1 {
			files = nil
			for _, r := range l.Runs {
				files = append(files, r.Files...)
			}
		}
		return p.buildJob(v, level, files, ReasonLevelSize)
	}
	return nil
}

// pickFile applies the data-movement policy to choose one file.
func (p *Picker) pickFile(v *manifest.Version, level int, files []*manifest.FileMeta) *manifest.FileMeta {
	switch p.opts.MovePolicy {
	case PickRoundRobin:
		cur := p.cursors[level]
		for _, f := range files {
			if cur == nil || bytes.Compare(f.Smallest, cur) > 0 {
				p.cursors[level] = f.Largest
				return f
			}
		}
		p.cursors[level] = files[0].Largest
		return files[0]

	case PickOldest:
		best := files[0]
		for _, f := range files[1:] {
			if f.LargestSeq < best.LargestSeq {
				best = f
			}
		}
		return best

	case PickMaxTombstoneDensity:
		best := files[0]
		for _, f := range files[1:] {
			if f.TombstoneDensity() > best.TombstoneDensity() {
				best = f
			}
		}
		// With no tombstones anywhere, fall back to min-overlap.
		if best.TombstoneDensity() == 0 {
			return p.minOverlapFile(v, level, files)
		}
		return best

	default: // PickMinOverlap
		return p.minOverlapFile(v, level, files)
	}
}

// minOverlapFile returns the file whose overlapping bytes in the next
// level are smallest.
func (p *Picker) minOverlapFile(v *manifest.Version, level int, files []*manifest.FileMeta) *manifest.FileMeta {
	next := level + 1
	best := files[0]
	bestOverlap := int64(-1)
	for _, f := range files {
		var ov int64
		if next < v.NumLevels() {
			for _, r := range v.Levels[next].Runs {
				for _, of := range r.Overlapping(f.KeyRange()) {
					ov += int64(of.Size)
				}
			}
		}
		if bestOverlap < 0 || ov < bestOverlap {
			best, bestOverlap = f, ov
		}
	}
	return best
}

// buildJob assembles a job moving files from level to level+1,
// including the target level's overlapping files when the target is
// leveled.
func (p *Picker) buildJob(v *manifest.Version, level int, files []*manifest.FileMeta, reason Reason) *Job {
	to := level + 1
	job := &Job{
		FromLevel: level,
		ToLevel:   to,
		Inputs:    map[int][]*manifest.FileMeta{level: files},
		Reason:    reason,
	}
	targetCap := p.opts.Layout.RunCapacity(to, p.opts.NumLevels)
	if targetCap > 1 {
		// Tiered target: append merged output as a fresh run. No target
		// data is read — this is exactly why tiering writes less.
		job.TargetTiered = true
		job.AllOfTargetLevel = v.Levels[to].NumFiles() == 0
		return job
	}
	// Leveled target: merge with the overlapping files of its run.
	var kr kv.KeyRange
	for _, f := range files {
		kr.Extend(f.Smallest)
		kr.Extend(f.Largest)
	}
	for _, r := range v.Levels[to].Runs {
		job.Inputs[to] = append(job.Inputs[to], r.Overlapping(kr)...)
	}
	job.AllOfTargetLevel = len(job.Inputs[to]) == v.Levels[to].NumFiles()
	return job
}

// ManualJob builds a job that merges every file in the tree into the
// last level — a full manual compaction.
func (p *Picker) ManualJob(v *manifest.Version) *Job {
	job := &Job{
		FromLevel: 0,
		ToLevel:   p.opts.NumLevels - 1,
		Inputs:    map[int][]*manifest.FileMeta{},
		Reason:    ReasonManual,
	}
	for level, f := range v.Files() {
		job.Inputs[level] = append(job.Inputs[level], f)
	}
	if len(job.Inputs) == 0 {
		return nil
	}
	job.TargetTiered = p.opts.Layout.RunCapacity(job.ToLevel, p.opts.NumLevels) > 1
	job.AllOfTargetLevel = true // a manual job consumes the whole tree
	return job
}
