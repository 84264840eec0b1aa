package core

import (
	"errors"
	"fmt"
	"io"

	"lsmlab/internal/events"
	"lsmlab/internal/kv"
	"lsmlab/internal/manifest"
	"lsmlab/internal/vfs"
)

// Checkpoint writes a consistent, openable copy of the store into dir
// (which must not already contain a store). Immutable files make this
// nearly free of coordination (tutorial §2.1.1 C; immutability [51]):
// the current version is pinned, its table files are copied byte for
// byte, a manifest holding exactly that version is written, and the
// WAL-resident tail is flushed first so the checkpoint needs no log.
//
// The checkpoint is taken online: concurrent writes and compactions
// proceed; the pinned read state keeps its files alive until they are
// copied even if a compaction makes them obsolete meanwhile.
func (db *DB) Checkpoint(dir string) (err error) {
	if dir == db.dir {
		return errors.New("lsm: checkpoint directory must differ from the store directory")
	}
	jobID := db.nextJobID()
	start := db.opts.NowNs()
	defer func() {
		db.emit(events.Event{Type: events.CheckpointEnd, JobID: jobID,
			Path: dir, DurationNs: db.opts.NowNs() - start, Err: err})
	}()
	// Flush so the memtable contents are in table files (the checkpoint
	// carries no WAL).
	if err := db.Flush(); err != nil {
		return err
	}

	// Pin the version: its files cannot be deleted until the copy is done.
	rs, err := db.pin()
	if err != nil {
		return err
	}
	defer rs.unpin()
	// The copy's LastSeq is the newest sequence its tables hold, not the
	// allocation cursor: writes that landed after the flush but in no
	// pinned table are not in the copy, and it must not claim them. A
	// write after the restore must sort above every tombstone the copy
	// holds, so range tombstones are read too: the writer counts them
	// in LargestSeq, but a table written before it did records the
	// sequences of its point entries only.
	v := rs.version
	var nums []uint64
	var maxNum uint64
	var seq kv.SeqNum
	for _, f := range v.Files() {
		nums = append(nums, f.Num)
		maxNum = max(maxNum, f.Num)
		seq = max(seq, f.LargestSeq)
		if f.NumRangeDels > 0 {
			tr, err := rs.reader(f.Num)
			if err != nil {
				return err
			}
			for _, t := range tr.RangeTombstones() {
				seq = max(seq, t.Seq)
			}
		}
	}

	if err := db.fs.MkdirAll(dir); err != nil {
		return err
	}
	if db.fs.Exists(vfs.Join(dir, "MANIFEST")) {
		return fmt.Errorf("lsm: checkpoint target %s already holds a store", dir)
	}
	for _, num := range nums {
		name := manifest.FileName(num)
		if err := copyFile(db.fs, vfs.Join(db.dir, name), vfs.Join(dir, name)); err != nil {
			return err
		}
	}
	// Value-log segments, when separation is on.
	if db.vlog != nil {
		nums, err := manifest.ListNums(db.fs, db.dir, manifest.VLogExt)
		if err != nil {
			return err
		}
		for _, num := range nums {
			name := manifest.VLogName(num)
			if err := copyFile(db.fs, vfs.Join(db.dir, name), vfs.Join(dir, name)); err != nil {
				return err
			}
		}
	}

	store, _, err := manifest.OpenStore(db.fs, vfs.Join(dir, "MANIFEST"))
	if err != nil {
		return err
	}
	st := &manifest.State{Version: v, NextFileNum: maxNum + 1, LastSeq: seq}
	if err := store.Commit(st); err != nil {
		store.Close()
		return err
	}
	return store.Close()
}

func copyFile(fs vfs.FS, src, dst string) error {
	in, err := fs.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	size, err := in.Size()
	if err != nil {
		return err
	}
	out, err := fs.Create(dst)
	if err != nil {
		return err
	}
	_, err = io.Copy(out, io.NewSectionReader(in, 0, size))
	if err == nil {
		err = out.Sync()
	}
	if err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
