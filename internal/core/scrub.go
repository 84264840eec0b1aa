package core

import (
	"fmt"

	"lsmlab/internal/events"
	"lsmlab/internal/manifest"
	"lsmlab/internal/vfs"
)

// This file implements the scrubber: an on-demand integrity walk over
// every durable artifact the engine owns. Block checksums protect
// individual reads, but a cold region of the tree can rot silently for
// as long as no query touches it — the scrubber turns that latent
// corruption into a report (and a quarantine) while the good copies in
// shallower levels or backups still exist.

// ScrubFinding describes one corrupt artifact discovered by a scrub.
type ScrubFinding struct {
	// Path is the file name inside the database directory.
	Path string
	// Err is the corruption detail (checksum mismatch, bad structure).
	Err error
	// Quarantined reports whether the file was dropped from the live
	// version and renamed aside with a ".corrupt" suffix. Only sstables
	// are quarantined; vlog and manifest damage is reported but left in
	// place, since those files have no redundant copy to fall back to.
	Quarantined bool
}

// ScrubReport summarizes one DB.Scrub pass.
type ScrubReport struct {
	// Tables and TableBytes count the sstables verified and the data-
	// block bytes whose checksums were recomputed.
	Tables     int
	TableBytes int64
	// VlogSegments counts the value-log segments whose record checksums
	// were recomputed.
	VlogSegments int
	// ManifestOK reports the manifest verification result.
	ManifestOK bool
	// Findings lists every corrupt artifact (empty on a clean scrub).
	Findings []ScrubFinding
}

// String renders the report in the stable key=value style of
// Stats.Text, one line per finding.
func (r ScrubReport) String() string {
	s := fmt.Sprintf("scrub: tables=%d bytes=%d vlogs=%d manifest=%v corrupt=%d",
		r.Tables, r.TableBytes, r.VlogSegments, r.ManifestOK, len(r.Findings))
	for _, f := range r.Findings {
		s += fmt.Sprintf("\n  corrupt %s quarantined=%v: %v", f.Path, f.Quarantined, f.Err)
	}
	return s
}

// Scrub walks every live sstable (recomputing every data-block
// checksum, bypassing the block cache), every value-log segment
// (every record's checksum), and the manifest. Corrupt sstables are quarantined: dropped from the live
// version (committed to the manifest) and renamed aside with a
// ".corrupt" suffix so the evidence survives while reads stop routing
// through the damage. Scrub runs concurrently with reads, writes, and
// background work; it returns an error only when the walk itself
// cannot proceed, not when it finds corruption — check the report.
func (db *DB) Scrub() (ScrubReport, error) {
	start := db.opts.NowNs()
	var rep ScrubReport
	rs, err := db.pin()
	if err != nil {
		return rep, err
	}
	defer rs.unpin()

	// Live tables. The pinned state keeps every one of them on disk for
	// the length of the walk, compacted away meanwhile or not.
	for _, f := range rs.version.Files() {
		name := manifest.FileName(f.Num)
		r, err := rs.reader(f.Num)
		if err != nil {
			// Unopenable: a damaged footer or pinned block (those are
			// checksum-verified at Open).
			rep.Tables++
			db.m.ScrubbedTables.Add(1)
			q := db.quarantineTable(f.Num)
			rep.Findings = append(rep.Findings,
				ScrubFinding{Path: name, Err: err, Quarantined: q})
			continue
		}
		n, verr := r.VerifyChecksums()
		rep.Tables++
		rep.TableBytes += n
		db.m.ScrubbedTables.Add(1)
		if verr != nil {
			q := db.quarantineTable(f.Num)
			rep.Findings = append(rep.Findings,
				ScrubFinding{Path: name, Err: verr, Quarantined: q})
		}
	}

	// Value-log segments. Damage is reported, never quarantined —
	// pointers into a renamed segment would all break.
	if db.vlog != nil {
		for _, num := range db.vlog.SegmentNums() {
			rep.VlogSegments++
			if err := db.vlog.VerifyFile(num); err != nil {
				rep.Findings = append(rep.Findings,
					ScrubFinding{Path: manifest.VLogName(num), Err: err})
			}
		}
	}

	// Manifest: every complete frame must checksum and decode. Serialize
	// against commits so a frame is never read half-written.
	db.editMu.Lock()
	merr := manifest.Verify(db.fs, vfs.Join(db.dir, "MANIFEST"))
	db.editMu.Unlock()
	rep.ManifestOK = merr == nil
	if merr != nil {
		rep.Findings = append(rep.Findings, ScrubFinding{Path: "MANIFEST", Err: merr})
	}

	db.emit(events.Event{Type: events.ScrubEnd,
		OutputFiles: rep.Tables + rep.VlogSegments + 1,
		InputFiles:  len(rep.Findings),
		DurationNs:  db.opts.NowNs() - start})
	return rep, nil
}

// quarantineTable drops fileNum from the live version (durably, via a
// manifest commit) and renames the file aside as <name>.corrupt. Readers
// that pinned the table before the swap keep reading their open handle;
// when the last of them unpins, the table's deletion finds no file of
// that name and the evidence survives. A failed commit renames nothing:
// the table stays live, as it is in the manifest. Reports whether the
// quarantine fully succeeded.
func (db *DB) quarantineTable(fileNum uint64) bool {
	db.m.ScrubCorruptions.Add(1)
	prev, err := db.install(func(v *manifest.Version) *manifest.Version {
		// The level key in the removal map is irrelevant: ReplaceRuns
		// drops the file number wherever it lives.
		return v.ReplaceRuns(map[int][]uint64{0: {fileNum}}, 0, nil)
	}, nil)
	if err != nil {
		return false
	}
	// Rename before releasing the predecessor state, which may be the
	// table's last reference: the rename keeps the evidence out of the
	// .sst namespace, so neither that release nor a restart's orphan
	// sweep deletes it.
	name := vfs.Join(db.dir, manifest.FileName(fileNum))
	rerr := db.fs.Rename(name, name+".corrupt")
	prev.unpin()
	return rerr == nil
}
