package sstable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"testing"

	"lsmlab/internal/kv"
	"lsmlab/internal/record"
)

// sealedBlock seals payload, restart array [0] and count 1 — a block
// whose checksum is valid whatever the entry bytes say.
func sealedBlock(entries []byte) []byte {
	b := blockBuilder{buf: append([]byte(nil), entries...), restarts: []uint32{0}}
	return b.finish()
}

// hugeUnsharedBlock holds one entry claiming 2^63 unshared key bytes:
// as an int the length is negative, so an int bound check passes.
func hugeUnsharedBlock() []byte {
	e := binary.AppendUvarint(nil, 0)
	e = binary.AppendUvarint(e, 1<<63)
	e = binary.AppendUvarint(e, 0)
	return sealedBlock(append(e, "padding"...))
}

// hugeValueBlock holds one entry claiming a 2^64-1 byte value.
func hugeValueBlock() []byte {
	e := binary.AppendUvarint(nil, 0)
	e = binary.AppendUvarint(e, 1)
	e = binary.AppendUvarint(e, 1<<64-1)
	return sealedBlock(append(e, "padding"...))
}

// hugeLargestProps is a properties block whose Largest claims 2^63
// bytes.
func hugeLargestProps() []byte {
	p := Properties{Smallest: []byte("a")}.encode()
	p = p[:len(p)-1] // drop Largest's empty length prefix
	return append(binary.AppendUvarint(p, 1<<63), "padding"...)
}

// TestDecodersHostileLengths: CRC-valid blocks whose lengths the bytes
// cannot hold are ErrCorrupt, never a panic.
func TestDecodersHostileLengths(t *testing.T) {
	for name, raw := range map[string][]byte{
		"unshared 2^63":  hugeUnsharedBlock(),
		"value 2^64-1":   hugeValueBlock(),
		"shared 2^63":    sealedBlock(append(binary.AppendUvarint(nil, 1<<63), 0, 0)),
		"truncated head": sealedBlock([]byte{0x80}),
	} {
		blk, err := decodeBlock(raw)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		it := newBlockIterator(blk)
		if it.First() || !errors.Is(it.Close(), ErrCorrupt) {
			t.Errorf("%s: iterator err = %v, want ErrCorrupt", name, it.Close())
		}
	}
	if _, err := decodeProperties(hugeLargestProps()); !errors.Is(err, ErrCorrupt) {
		t.Errorf("properties Largest 2^63: err = %v, want ErrCorrupt", err)
	}
}

// sliceFile is a table file whose bytes a test can damage in place
// under an open reader, as bit rot does on a disk. (MemFS cannot: its
// Create gives a rewritten file new storage.)
type sliceFile struct{ b []byte }

func (f *sliceFile) ReadAt(p []byte, off int64) (int, error) {
	if off >= int64(len(f.b)) {
		return 0, io.EOF
	}
	n := copy(p, f.b[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}
func (f *sliceFile) Write(p []byte) (int, error) { f.b = append(f.b, p...); return len(p), nil }
func (f *sliceFile) Sync() error                 { return nil }
func (f *sliceFile) Close() error                { return nil }
func (f *sliceFile) Size() (int64, error)        { return int64(len(f.b)), nil }

// TestVerifyChecksumsRereadsPinnedBlocks: a byte flipped in any pinned
// block after Open is caught by VerifyChecksums — the next Open would
// refuse the table, so a scrub must not call it clean.
func TestVerifyChecksumsRereadsPinnedBlocks(t *testing.T) {
	for i, block := range []string{"index", "filter", "rangedel", "properties"} {
		t.Run(block, func(t *testing.T) {
			f := &sliceFile{}
			w := NewWriter(f, WriterOptions{BlockSize: 256, BitsPerKey: 10})
			for k := 0; k < 100; k++ {
				w.Add(kv.MakeKey([]byte(fmt.Sprintf("key-%04d", k)), kv.SeqNum(k+1), kv.KindSet), []byte("v"))
			}
			w.AddRangeTombstone(kv.RangeTombstone{Start: []byte("key-0010"), End: []byte("key-0020"), Seq: 200})
			if _, err := w.Finish(); err != nil {
				t.Fatal(err)
			}
			r, err := Open(f, ReaderOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := r.VerifyChecksums(); err != nil {
				t.Fatalf("clean table: %v", err)
			}
			footer := f.b[len(f.b)-footerLen:]
			off := binary.LittleEndian.Uint64(footer[16*i:])
			f.b[off+1] ^= 0xff
			if _, err := r.VerifyChecksums(); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("flipped %s block: VerifyChecksums = %v, want ErrCorrupt", block, err)
			}
		})
	}
}

// TestOpenHostileHandle: a footer handle reaching past the end of the
// file is ErrCorrupt, not an allocation of the length it claims.
func TestOpenHostileHandle(t *testing.T) {
	for name, length := range map[string]uint64{"length 2^63": 1 << 63, "length 2^64-1": 1<<64 - 1, "one past": 0} {
		f := &sliceFile{}
		w := NewWriter(f, WriterOptions{})
		w.Add(kv.MakeKey([]byte("k"), 1, kv.KindSet), []byte("v"))
		if _, err := w.Finish(); err != nil {
			t.Fatal(err)
		}
		footer := f.b[len(f.b)-footerLen:]
		if length == 0 { // the index handle ends one byte past the file
			length = uint64(len(f.b)) - binary.LittleEndian.Uint64(footer) + 1
		}
		binary.LittleEndian.PutUint64(footer[8:], length)
		if _, err := Open(f, ReaderOptions{}); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Open = %v, want ErrCorrupt", name, err)
		}
	}
}

// FuzzDecodeBlock throws arbitrary bytes at the block decoder, raw and
// sealed with a valid checksum, then iterates and seeks whatever
// decodes. Nothing may panic, and every failure is ErrCorrupt. One
// reused block is decoded valid → input → valid and must match a fresh
// decode each time: a failed decode leaves it empty, and no decode
// keeps the restarts of the block before.
func FuzzDecodeBlock(f *testing.F) {
	var b blockBuilder
	for i := 0; i < 40; i++ {
		b.add(kv.MakeKey([]byte(fmt.Sprintf("key-%03d", i)), kv.SeqNum(i+1), kv.KindSet), []byte("value"))
	}
	valid := append([]byte(nil), b.finish()...)
	f.Add(valid)
	f.Add(hugeUnsharedBlock())
	f.Add(hugeValueBlock())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var reused block
		for _, raw := range [][]byte{valid, data, record.Seal(append([]byte(nil), data...)), valid} {
			blk, err := decodeBlock(raw)
			rerr := decodeBlockInto(&reused, raw)
			if (rerr == nil) != (err == nil) {
				t.Fatalf("reused decode error %v, fresh %v", rerr, err)
			}
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("decode error %v is not ErrCorrupt", err)
				}
				if reused.data != nil || len(reused.restarts) != 0 {
					t.Fatalf("failed decode left %d restarts behind", len(reused.restarts))
				}
				continue
			}
			if !bytes.Equal(reused.data, blk.data) || !slices.Equal(reused.restarts, blk.restarts) {
				t.Fatalf("reused decode %v differs from fresh %v", reused.restarts, blk.restarts)
			}
			it := newBlockIterator(blk)
			for ok := it.First(); ok; ok = it.Next() {
			}
			it.SeekGE(kv.MakeSearchKey([]byte("key-020"), kv.MaxSeqNum))
			if err := it.Close(); err != nil && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("iteration error %v is not ErrCorrupt", err)
			}
		}
	})
}

// FuzzDecodeProperties: the properties decoder never panics, fails only
// with ErrCorrupt, and whatever decodes re-encodes to a block that
// decodes the same.
func FuzzDecodeProperties(f *testing.F) {
	f.Add(Properties{NumEntries: 3, SmallestSeq: 1, LargestSeq: 9, OldestTombstoneNs: -5,
		Smallest: []byte("a"), Largest: []byte("z")}.encode())
	f.Add(hugeLargestProps())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := decodeProperties(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decode error %v is not ErrCorrupt", err)
			}
			return
		}
		q, err := decodeProperties(p.encode())
		if err != nil || q.NumEntries != p.NumEntries || q.OldestTombstoneNs != p.OldestTombstoneNs ||
			!bytes.Equal(q.Smallest, p.Smallest) || !bytes.Equal(q.Largest, p.Largest) {
			t.Fatalf("round trip changed the properties: %+v / %+v, %v", p, q, err)
		}
	})
}

// FuzzDecodeRangeTombstones: the range-tombstone decoder never panics,
// fails only with ErrCorrupt, and round-trips whatever decodes.
func FuzzDecodeRangeTombstones(f *testing.F) {
	f.Add(encodeRangeTombstones([]kv.RangeTombstone{{Start: []byte("a"), End: []byte("m"), Seq: 7}}))
	f.Add(binary.AppendUvarint(nil, 1<<62))
	f.Add(append(binary.AppendUvarint(binary.AppendUvarint(nil, 1), 1<<63), "padding"...))
	f.Fuzz(func(t *testing.T, data []byte) {
		ts, err := decodeRangeTombstones(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decode error %v is not ErrCorrupt", err)
			}
			return
		}
		again, err := decodeRangeTombstones(encodeRangeTombstones(ts))
		if err != nil || len(again) != len(ts) {
			t.Fatalf("round trip changed the tombstones: %d/%d, %v", len(again), len(ts), err)
		}
		for i, rt := range ts {
			if !bytes.Equal(again[i].Start, rt.Start) || !bytes.Equal(again[i].End, rt.End) || again[i].Seq != rt.Seq {
				t.Fatalf("round trip changed tombstone %d", i)
			}
		}
	})
}
