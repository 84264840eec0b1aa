package manifest

import (
	"encoding/binary"
	"errors"
	"fmt"

	"lsmlab/internal/kv"
	"lsmlab/internal/record"
	"lsmlab/internal/vfs"
)

// ErrCorrupt reports a damaged manifest.
var ErrCorrupt = errors.New("manifest: corrupt")

// State is everything the engine must recover after a crash: the tree
// structure, the file-number allocator, and the sequence-number
// allocator.
type State struct {
	Version     *Version
	NextFileNum uint64
	LastSeq     kv.SeqNum
}

// encodeFrame serializes a full state snapshot as one framed record.
func encodeFrame(s *State) []byte {
	buf := record.StartFrame(nil)
	buf = binary.AppendUvarint(buf, s.NextFileNum)
	buf = binary.AppendUvarint(buf, uint64(s.LastSeq))
	buf = binary.AppendUvarint(buf, uint64(len(s.Version.Levels)))
	for _, l := range s.Version.Levels {
		buf = binary.AppendUvarint(buf, uint64(len(l.Runs)))
		for _, r := range l.Runs {
			buf = binary.AppendUvarint(buf, uint64(len(r.Files)))
			for _, f := range r.Files {
				buf = binary.AppendUvarint(buf, f.Num)
				buf = binary.AppendUvarint(buf, f.Size)
				buf = binary.AppendUvarint(buf, uint64(len(f.Smallest)))
				buf = append(buf, f.Smallest...)
				buf = binary.AppendUvarint(buf, uint64(len(f.Largest)))
				buf = append(buf, f.Largest...)
				buf = binary.AppendUvarint(buf, uint64(f.SmallestSeq))
				buf = binary.AppendUvarint(buf, uint64(f.LargestSeq))
				buf = binary.AppendUvarint(buf, f.NumEntries)
				buf = binary.AppendUvarint(buf, f.NumTombstones)
				buf = binary.AppendUvarint(buf, f.NumRangeDels)
				buf = binary.AppendVarint(buf, f.OldestTombstoneNs)
			}
		}
	}
	record.FinishFrame(buf)
	return buf
}

// minFileBytes is the smallest encoding of a FileMeta: ten varints.
const minFileBytes = 10

func decodeState(payload []byte) (*State, error) {
	d := record.NewDecoder(payload)
	s := &State{NextFileNum: d.Uvarint(), LastSeq: kv.SeqNum(d.Uvarint())}
	nLevels := d.Count(1)
	if d.Corrupt() || nLevels > 64 {
		return nil, ErrCorrupt
	}
	s.Version = NewVersion(nLevels)
	for li := range s.Version.Levels {
		for nRuns := d.Count(1); nRuns > 0; nRuns-- {
			r := &Run{}
			for nFiles := d.Count(minFileBytes); nFiles > 0; nFiles-- {
				r.Files = append(r.Files, &FileMeta{
					Num:               d.Uvarint(),
					Size:              d.Uvarint(),
					Smallest:          append([]byte(nil), d.Bytes()...),
					Largest:           append([]byte(nil), d.Bytes()...),
					SmallestSeq:       kv.SeqNum(d.Uvarint()),
					LargestSeq:        kv.SeqNum(d.Uvarint()),
					NumEntries:        d.Uvarint(),
					NumTombstones:     d.Uvarint(),
					NumRangeDels:      d.Uvarint(),
					OldestTombstoneNs: d.Varint(),
				})
			}
			s.Version.Levels[li].Runs = append(s.Version.Levels[li].Runs, r)
		}
	}
	if d.Corrupt() {
		return nil, ErrCorrupt
	}
	return s, nil
}

// Store persists states to an append-only manifest file. Each commit
// appends a complete CRC-framed snapshot; recovery replays the file and
// keeps the last valid snapshot, so a torn final write simply falls
// back to the previous state. When the file grows past rewriteAt, it is
// compacted to a single snapshot via write-temp-then-rename.
type Store struct {
	fs        vfs.FS
	path      string
	f         vfs.File
	size      int64
	rewriteAt int64
	// dirty means a Commit failed partway: the file may end in a torn
	// frame that replayLast tolerates but further appends would land
	// after, making them invisible to recovery. The next Commit heals by
	// rewriting from scratch instead of appending.
	dirty bool
}

// DefaultRewriteThreshold is the manifest size that triggers a rewrite.
const DefaultRewriteThreshold = 4 << 20

// OpenStore opens (or creates) the manifest at path and returns the
// recovered state; state is nil if the manifest did not exist or held
// no valid snapshot.
func OpenStore(fs vfs.FS, path string) (*Store, *State, error) {
	st := &Store{fs: fs, path: path, rewriteAt: DefaultRewriteThreshold}
	// A stale temp file means a previous rewrite crashed between Create
	// and Rename; the manifest itself is still authoritative.
	if fs.Exists(path + ".tmp") {
		fs.Remove(path + ".tmp")
	}
	var recovered *State
	if fs.Exists(path) {
		f, err := fs.Open(path)
		if err != nil {
			return nil, nil, err
		}
		recovered, err = replayLast(f)
		f.Close()
		if err != nil {
			return nil, nil, err
		}
	}
	// Re-open for appending by rewriting the recovered snapshot: this
	// both truncates any torn tail and starts a fresh append handle.
	if err := st.rewrite(recovered); err != nil {
		return nil, nil, err
	}
	return st, recovered, nil
}

// replayLast scans the append-only manifest and returns the last valid
// snapshot: it stops at the first frame that is incomplete, fails its
// checksum or does not decode, wherever it is.
func replayLast(f vfs.File) (*State, error) {
	var last *State
	_, _, err := record.Scan(f, func(_ int64, payload []byte) error {
		s, err := decodeState(payload)
		if err == nil {
			last = s
		}
		return err
	})
	if errors.Is(err, ErrCorrupt) {
		err = nil
	}
	return last, err
}

// Commit durably appends a snapshot of s. After a failed Commit the
// store self-heals: the next Commit rewrites the whole manifest (write-
// temp-then-rename) instead of appending past a possibly torn frame.
func (st *Store) Commit(s *State) error {
	if st.f == nil || st.dirty {
		// Either a rewrite failed after closing the old handle, or a prior
		// append tore. A full rewrite reestablishes the invariant that the
		// file ends in a valid snapshot.
		if err := st.rewrite(s); err != nil {
			return err
		}
		st.dirty = false
		return nil
	}
	frame := encodeFrame(s)
	if _, err := st.f.Write(frame); err != nil {
		st.dirty = true
		return err
	}
	if err := st.f.Sync(); err != nil {
		st.dirty = true
		return err
	}
	st.size += int64(len(frame))
	if st.size > st.rewriteAt {
		return st.rewrite(s)
	}
	return nil
}

// rewrite compacts the manifest to a single snapshot (or truncates it
// when s is nil) using write-temp-then-rename, then re-opens an append
// handle on the renamed file.
func (st *Store) rewrite(s *State) error {
	if st.f != nil {
		st.f.Close()
		st.f = nil
	}
	var frame []byte
	if s != nil {
		frame = encodeFrame(s)
	}
	err := vfs.WriteFileAtomic(st.fs, st.path, frame)
	if err != nil {
		return err
	}
	if st.f, err = st.fs.Append(st.path); err != nil {
		return err
	}
	st.size = int64(len(frame))
	return nil
}

// Verify checks the manifest at path: every complete frame must carry
// a valid checksum and decode, and at least one valid snapshot must
// exist. An incomplete trailing frame is tolerated (that is the torn
// tail recovery is designed to discard), but a complete frame with a
// bad CRC or undecodable payload is corruption — recovery would
// silently fall back to an older state, losing committed structure.
func Verify(fs vfs.FS, path string) error {
	if !fs.Exists(path) {
		return fmt.Errorf("%w: missing manifest %s", ErrCorrupt, path)
	}
	f, err := fs.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	valid := 0
	off, st, err := record.Scan(f, func(off int64, payload []byte) error {
		if _, err := decodeState(payload); err != nil {
			return fmt.Errorf("%w: undecodable frame at offset %d", ErrCorrupt, off)
		}
		valid++
		return nil
	})
	switch {
	case err != nil:
		return err
	case st == record.CorruptTail || st == record.Corrupt:
		return fmt.Errorf("%w: bad frame checksum at offset %d", ErrCorrupt, off)
	case valid == 0:
		return fmt.Errorf("%w: no valid snapshot in %s", ErrCorrupt, path)
	}
	return nil
}

// Close releases the manifest file handle.
func (st *Store) Close() error {
	if st.f == nil {
		return nil
	}
	err := st.f.Close()
	st.f = nil
	return err
}

// FileName formats the on-disk name for a table file.
func FileName(num uint64) string { return fmt.Sprintf("%06d.sst", num) }

// WALName formats the on-disk name for a write-ahead log file.
func WALName(num uint64) string { return fmt.Sprintf("%06d.wal", num) }

// VLogName formats the on-disk name for a WiscKey value-log file.
func VLogName(num uint64) string { return fmt.Sprintf("%06d.vlog", num) }
