package wal

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"lsmlab/internal/record"
	"lsmlab/internal/vfs"
)

// Cursor tails a directory of WAL segments behind a live writer — the
// read side of WAL shipping (internal/replica). It walks segments in
// numeric order, frame by frame, and distinguishes the three ways a
// read can stop short:
//
//   - io.EOF: the cursor is caught up with the writer (a torn or
//     incomplete frame at the tail of the NEWEST segment). The caller
//     polls and retries; the frame will complete or be overwritten by
//     a longer write.
//   - advance: an incomplete tail on a non-newest segment. Rotation
//     syncs and seals the old segment before creating its successor
//     (core.rotateMemtableLocked holds mu+walMu across the swap), so
//     the existence of segment n+1 proves segment n is final — the
//     cursor moves on.
//   - ErrGone: the cursor's position fell out of retention (the engine
//     deletes a segment once its memtable is flushed). The shipper
//     detects the sequence gap and falls back to Merkle repair.
//
// A Cursor holds at most one open file handle and is not safe for
// concurrent use.
type Cursor struct {
	fs  vfs.FS
	dir string

	seg  uint64 // current segment number (0 = none open yet)
	f    vfs.File
	off  int64
	name string // current segment's file name

	scratch []byte // reusable frame buffer returned by Next
}

// ErrGone reports that the cursor's segment was deleted (fell out of
// WAL retention) before it was fully read.
var ErrGone = errors.New("wal: segment deleted under cursor")

// NewCursor returns a cursor tailing the WAL segments of dir, starting
// at the oldest segment currently present.
func NewCursor(fs vfs.FS, dir string) *Cursor {
	return &Cursor{fs: fs, dir: dir}
}

// segNum parses a WAL segment file name ("000007.wal"); ok is false
// for anything else.
func segNum(name string) (uint64, bool) {
	if !strings.HasSuffix(name, ".wal") {
		return 0, false
	}
	n, err := strconv.ParseUint(strings.TrimSuffix(name, ".wal"), 10, 64)
	return n, err == nil
}

// segments lists the directory's WAL segment numbers in ascending
// order.
func (c *Cursor) segments() ([]uint64, error) {
	names, err := c.fs.List(c.dir)
	if err != nil {
		return nil, err
	}
	var nums []uint64
	for _, name := range names {
		if n, ok := segNum(name); ok {
			nums = append(nums, n)
		}
	}
	sort.Slice(nums, func(i, j int) bool { return nums[i] < nums[j] })
	return nums, nil
}

// openSeg opens segment num and makes it current.
func (c *Cursor) openSeg(num uint64) error {
	name := fmt.Sprintf("%06d.wal", num)
	f, err := c.fs.Open(vfs.Join(c.dir, name))
	if err != nil {
		return fmt.Errorf("%w: %06d.wal: %v", ErrGone, num, err)
	}
	if c.f != nil {
		c.f.Close()
	}
	c.f, c.seg, c.off, c.name = f, num, 0, name
	return nil
}

// advance moves to the next segment after the current one, if one
// exists. Returns io.EOF when the current segment is still the newest.
func (c *Cursor) advance() error {
	nums, err := c.segments()
	if err != nil {
		return err
	}
	for _, n := range nums {
		if n > c.seg {
			return c.openSeg(n)
		}
	}
	return io.EOF
}

// Next returns the next complete batch, decoded, plus the raw frame
// bytes exactly as they sit in the log (length | crc | payload) — the
// shipper forwards the raw form so the follower can verify the
// original checksum. The returned slices are valid until the next
// call.
//
// Errors: io.EOF when caught up (retry later), ErrGone when retention
// deleted the cursor's position, ErrCorrupt for a damaged non-tail
// frame.
func (c *Cursor) Next() (Batch, []byte, error) {
	for {
		if c.f == nil {
			nums, err := c.segments()
			if err != nil {
				return Batch{}, nil, err
			}
			opened := false
			for _, n := range nums {
				if n > c.seg {
					if err := c.openSeg(n); err != nil {
						return Batch{}, nil, err
					}
					opened = true
					break
				}
			}
			if !opened {
				return Batch{}, nil, io.EOF
			}
		}
		size, err := c.f.Size()
		if err != nil {
			return Batch{}, nil, err
		}
		frame, st, err := record.ReadFrame(c.f, c.off, size, c.scratch)
		c.scratch = frame
		switch {
		case err != nil:
			return Batch{}, nil, err
		case st == record.Corrupt:
			return Batch{}, nil, fmt.Errorf("%w in %s at offset %d", ErrCorrupt, c.name, c.off)
		case st == record.Complete:
			b, err := decodeBatch(frame[record.HeaderLen:])
			if err != nil {
				return Batch{}, nil, fmt.Errorf("%w in %s at offset %d", ErrCorrupt, c.name, c.off)
			}
			c.off += int64(len(frame))
			return b, frame, nil
		}
		// Incomplete, or a bad checksum on the segment's final bytes (a
		// torn tail): if a newer segment exists this one is sealed and
		// finished — advance; otherwise we are tailing the live segment.
		switch aerr := c.advance(); aerr {
		case nil:
			continue
		case io.EOF:
			return Batch{}, nil, io.EOF
		default:
			return Batch{}, nil, aerr
		}
	}
}

// Pos reports the cursor's current segment number and byte offset
// (diagnostics; lsmctl repl status renders it on the leader side).
func (c *Cursor) Pos() (seg uint64, off int64) { return c.seg, c.off }

// Close releases the cursor's file handle.
func (c *Cursor) Close() error {
	if c.f == nil {
		return nil
	}
	err := c.f.Close()
	c.f = nil
	return err
}
