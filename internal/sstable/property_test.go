package sstable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"sort"
	"testing"
	"testing/quick"

	"lsmlab/internal/kv"
	"lsmlab/internal/vfs"
)

// TestPropertyBlockRoundtrip: any set of entries written to a block
// comes back identically, in order, via iteration and seek.
func TestPropertyBlockRoundtrip(t *testing.T) {
	f := func(rawKeys [][]byte, rawVals [][]byte) bool {
		// Construct sorted unique internal keys from the fuzz input.
		seen := map[string]bool{}
		var entries []kv.Entry
		for i, rk := range rawKeys {
			if len(rk) > 64 {
				rk = rk[:64]
			}
			if seen[string(rk)] {
				continue
			}
			seen[string(rk)] = true
			var val []byte
			if i < len(rawVals) {
				val = rawVals[i]
			}
			entries = append(entries, kv.Entry{
				Key:   kv.MakeKey(rk, kv.SeqNum(i+1), kv.KindSet),
				Value: val,
			})
		}
		if len(entries) == 0 {
			return true
		}
		sort.Slice(entries, func(i, j int) bool {
			return kv.Compare(entries[i].Key, entries[j].Key) < 0
		})

		var b blockBuilder
		for _, e := range entries {
			b.add(e.Key, e.Value)
		}
		blk, err := decodeBlock(append([]byte(nil), b.finish()...))
		if err != nil {
			return false
		}
		it := newBlockIterator(blk)
		i := 0
		for ok := it.First(); ok; ok = it.Next() {
			if kv.Compare(it.Key(), entries[i].Key) != 0 ||
				!bytes.Equal(it.Value(), entries[i].Value) {
				return false
			}
			i++
		}
		if i != len(entries) {
			return false
		}
		// SeekGE to each key must land on it.
		for _, e := range entries {
			if !it.SeekGE(e.Key) || kv.Compare(it.Key(), e.Key) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestPropertyTableRoundtrip: the full writer/reader stack preserves
// arbitrary sorted entry sets (with a small block size so multi-block
// paths are exercised).
func TestPropertyTableRoundtrip(t *testing.T) {
	f := func(seeds []uint16) bool {
		if len(seeds) == 0 {
			return true
		}
		if len(seeds) > 300 {
			seeds = seeds[:300]
		}
		uniq := map[uint16]bool{}
		var entries []kv.Entry
		for i, s := range seeds {
			if uniq[s] {
				continue
			}
			uniq[s] = true
			k := []byte{byte(s >> 8), byte(s), byte(i)}
			entries = append(entries, kv.Entry{
				Key:   kv.MakeKey(k, kv.SeqNum(i+1), kv.KindSet),
				Value: bytes.Repeat([]byte{byte(i)}, int(s)%200),
			})
		}
		sort.Slice(entries, func(i, j int) bool {
			return kv.Compare(entries[i].Key, entries[j].Key) < 0
		})

		fs := vfs.NewMem()
		file, _ := fs.Create("t")
		w := NewWriter(file, WriterOptions{BlockSize: 256, BitsPerKey: 8})
		for _, e := range entries {
			if err := w.Add(e.Key, e.Value); err != nil {
				return false
			}
		}
		if _, err := w.Finish(); err != nil {
			return false
		}
		file.Close()

		rf, _ := fs.Open("t")
		r, err := Open(rf, ReaderOptions{})
		if err != nil {
			return false
		}
		defer r.Close()
		it := r.NewIterator()
		defer it.Close()
		i := 0
		for ok := it.First(); ok; ok = it.Next() {
			if kv.Compare(it.Key(), entries[i].Key) != 0 ||
				!bytes.Equal(it.Value(), entries[i].Value) {
				return false
			}
			i++
		}
		return i == len(entries)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPropertyPropertiesRoundtrip: Properties encode/decode is the
// identity for arbitrary field values.
func TestPropertyPropertiesRoundtrip(t *testing.T) {
	f := func(a, b, c, d, e, g uint64, sseq, lseq uint64, ts int64, smallest, largest []byte) bool {
		p := Properties{
			NumEntries: a, NumTombstones: b, NumRangeDels: c,
			RawKeyBytes: d, RawValueBytes: e, NumDataBlocks: g,
			SmallestSeq:       kv.SeqNum(sseq & uint64(kv.MaxSeqNum)),
			LargestSeq:        kv.SeqNum(lseq & uint64(kv.MaxSeqNum)),
			OldestTombstoneNs: ts,
			Smallest:          smallest, Largest: largest,
		}
		q, err := decodeProperties(p.encode())
		if err != nil {
			return false
		}
		return q.NumEntries == p.NumEntries && q.NumTombstones == p.NumTombstones &&
			q.NumRangeDels == p.NumRangeDels && q.RawKeyBytes == p.RawKeyBytes &&
			q.RawValueBytes == p.RawValueBytes && q.NumDataBlocks == p.NumDataBlocks &&
			q.SmallestSeq == p.SmallestSeq && q.LargestSeq == p.LargestSeq &&
			q.OldestTombstoneNs == p.OldestTombstoneNs &&
			bytes.Equal(q.Smallest, p.Smallest) && bytes.Equal(q.Largest, p.Largest)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestPropertyRangeTombstonesRoundtrip: rangedel block encoding is the
// identity.
func TestPropertyRangeTombstonesRoundtrip(t *testing.T) {
	f := func(starts, ends [][]byte, seqs []uint64) bool {
		n := len(starts)
		if len(ends) < n {
			n = len(ends)
		}
		if len(seqs) < n {
			n = len(seqs)
		}
		var ts []kv.RangeTombstone
		for i := 0; i < n; i++ {
			ts = append(ts, kv.RangeTombstone{
				Start: starts[i], End: ends[i],
				Seq: kv.SeqNum(seqs[i] & uint64(kv.MaxSeqNum)),
			})
		}
		got, err := decodeRangeTombstones(encodeRangeTombstones(ts))
		if err != nil {
			return false
		}
		if len(got) != len(ts) {
			return false
		}
		for i := range ts {
			if !bytes.Equal(got[i].Start, ts[i].Start) ||
				!bytes.Equal(got[i].End, ts[i].End) || got[i].Seq != ts[i].Seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestRangeTombstonesHostileLengths: a checksummed block whose counts
// the bytes cannot hold is ErrCorrupt, never a panic.
func TestRangeTombstonesHostileLengths(t *testing.T) {
	for name, buf := range map[string][]byte{
		"count 2^62":        binary.AppendUvarint(nil, 1<<62),
		"start length 2^63": append(binary.AppendUvarint(binary.AppendUvarint(nil, 1), 1<<63), "padding"...),
	} {
		if _, err := decodeRangeTombstones(buf); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}
