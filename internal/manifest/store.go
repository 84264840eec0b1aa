package manifest

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"lsmlab/internal/kv"
	"lsmlab/internal/vfs"
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

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

// encodeState serializes a full state snapshot.
func encodeState(s *State) []byte {
	var buf []byte
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
				buf = appendBytes(buf, f.Smallest)
				buf = appendBytes(buf, f.Largest)
				buf = binary.AppendUvarint(buf, uint64(f.SmallestSeq))
				buf = binary.AppendUvarint(buf, uint64(f.LargestSeq))
				buf = binary.AppendUvarint(buf, f.NumEntries)
				buf = binary.AppendUvarint(buf, f.NumTombstones)
				buf = binary.AppendUvarint(buf, f.NumRangeDels)
				buf = binary.AppendVarint(buf, f.OldestTombstoneNs)
			}
		}
	}
	return buf
}

func appendBytes(buf, b []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(b)))
	return append(buf, b...)
}

type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.err = ErrCorrupt
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.err = ErrCorrupt
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) bytes() []byte {
	l := int(d.uvarint())
	if d.err != nil {
		return nil
	}
	if d.off+l > len(d.buf) {
		d.err = ErrCorrupt
		return nil
	}
	b := append([]byte(nil), d.buf[d.off:d.off+l]...)
	d.off += l
	return b
}

func decodeState(buf []byte) (*State, error) {
	d := &decoder{buf: buf}
	s := &State{}
	s.NextFileNum = d.uvarint()
	s.LastSeq = kv.SeqNum(d.uvarint())
	nLevels := int(d.uvarint())
	if d.err != nil || nLevels > 64 {
		return nil, ErrCorrupt
	}
	s.Version = NewVersion(nLevels)
	for li := 0; li < nLevels; li++ {
		nRuns := int(d.uvarint())
		for ri := 0; ri < nRuns; ri++ {
			nFiles := int(d.uvarint())
			r := &Run{}
			for fi := 0; fi < nFiles; fi++ {
				f := &FileMeta{
					Num:      d.uvarint(),
					Size:     d.uvarint(),
					Smallest: d.bytes(),
					Largest:  d.bytes(),
				}
				f.SmallestSeq = kv.SeqNum(d.uvarint())
				f.LargestSeq = kv.SeqNum(d.uvarint())
				f.NumEntries = d.uvarint()
				f.NumTombstones = d.uvarint()
				f.NumRangeDels = d.uvarint()
				f.OldestTombstoneNs = d.varint()
				r.Files = append(r.Files, f)
			}
			if d.err != nil {
				return nil, d.err
			}
			s.Version.Levels[li].Runs = append(s.Version.Levels[li].Runs, r)
		}
	}
	if d.err != nil {
		return nil, d.err
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
// snapshot, ignoring a torn tail.
func replayLast(f vfs.File) (*State, error) {
	size, err := f.Size()
	if err != nil {
		return nil, err
	}
	var off int64
	var last *State
	hdr := make([]byte, 8)
	for off+8 <= size {
		if _, err := f.ReadAt(hdr, off); err != nil && err != io.EOF {
			return nil, err
		}
		length := int64(binary.LittleEndian.Uint32(hdr[:4]))
		wantCRC := binary.LittleEndian.Uint32(hdr[4:8])
		if off+8+length > size {
			break // torn tail
		}
		payload := make([]byte, length)
		if _, err := f.ReadAt(payload, off+8); err != nil && err != io.EOF {
			return nil, err
		}
		if crc32.Checksum(payload, crcTable) != wantCRC {
			break // torn or corrupt tail: stop at last good snapshot
		}
		s, err := decodeState(payload)
		if err != nil {
			break
		}
		last = s
		off += 8 + length
	}
	return last, nil
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
	payload := encodeState(s)
	frame := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(frame[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, crcTable))
	copy(frame[8:], payload)
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
		payload := encodeState(s)
		frame = make([]byte, 8+len(payload))
		binary.LittleEndian.PutUint32(frame[:4], uint32(len(payload)))
		binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, crcTable))
		copy(frame[8:], payload)
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
	size, err := f.Size()
	if err != nil {
		return err
	}
	var off int64
	valid := 0
	hdr := make([]byte, 8)
	for off+8 <= size {
		if _, err := f.ReadAt(hdr, off); err != nil && err != io.EOF {
			return err
		}
		length := int64(binary.LittleEndian.Uint32(hdr[:4]))
		wantCRC := binary.LittleEndian.Uint32(hdr[4:8])
		if off+8+length > size {
			break // torn tail: tolerated
		}
		payload := make([]byte, length)
		if _, err := f.ReadAt(payload, off+8); err != nil && err != io.EOF {
			return err
		}
		if crc32.Checksum(payload, crcTable) != wantCRC {
			return fmt.Errorf("%w: bad frame checksum at offset %d", ErrCorrupt, off)
		}
		if _, err := decodeState(payload); err != nil {
			return fmt.Errorf("%w: undecodable frame at offset %d", ErrCorrupt, off)
		}
		valid++
		off += 8 + length
	}
	if valid == 0 {
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
