package record_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"lsmlab/internal/core"
	"lsmlab/internal/kv"
	"lsmlab/internal/manifest"
	"lsmlab/internal/partition"
	"lsmlab/internal/sstable"
	"lsmlab/internal/vfs"
	"lsmlab/internal/wal"
)

// The goldens pin the on-disk bytes of every file kind whose format is
// meant never to change. Rewrite them only for an intended format
// change:
//
//	go test ./internal/record -run TestGolden -update
var update = flag.Bool("update", false, "rewrite testdata/ from this build's output")

// golden compares got with testdata/name, or rewrites the file under
// -update.
func golden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: %d bytes differ from the %d-byte golden\n got %x\nwant %x", name, len(got), len(want), got, want)
	}
}

func readAll(t *testing.T, fs vfs.FS, name string) []byte {
	t.Helper()
	f, err := fs.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, size)
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	return buf
}

func writeAll(t *testing.T, fs vfs.FS, name string, data []byte) {
	t.Helper()
	f, err := fs.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	f.Close()
}

// TestGoldenWAL: two batches and the first half of a third (a torn
// tail), which replay skips.
func TestGoldenWAL(t *testing.T) {
	fs := vfs.NewMem()
	f, err := fs.Create("000001.wal")
	if err != nil {
		t.Fatal(err)
	}
	w := wal.NewWriter(f)
	batches := []*wal.Batch{
		{Seq: 1, Ops: []wal.Op{
			{Kind: kv.KindSet, Key: []byte("apple"), Value: []byte("red")},
			{Kind: kv.KindDelete, Key: []byte("banana")},
		}},
		{Seq: 3, Ops: []wal.Op{
			{Kind: kv.KindRangeDelete, Key: []byte("c"), Value: []byte("f")},
			{Kind: kv.KindSet, Key: []byte("grape"), Value: bytes.Repeat([]byte("g"), 200)},
		}},
	}
	for _, b := range batches {
		if _, err := w.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()
	data := readAll(t, fs, "000001.wal")

	// The torn third frame: the first half of what Append would write.
	sfs := vfs.NewMem()
	sf, _ := sfs.Create("x")
	wal.NewWriter(sf).Append(&wal.Batch{Seq: 5, Ops: []wal.Op{{Kind: kv.KindSet, Key: []byte("kiwi"), Value: []byte("green")}}})
	third := readAll(t, sfs, "x")
	data = append(data, third[:len(third)/2]...)
	golden(t, "WAL", data)

	writeAll(t, fs, "replay.wal", data)
	rf, _ := fs.Open("replay.wal")
	defer rf.Close()
	var got []wal.Batch
	if err := wal.Replay(rf, func(b wal.Batch) error { got = append(got, b); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Seq != 1 || got[1].Seq != 3 || len(got[1].Ops) != 2 || len(got[1].Ops[1].Value) != 200 {
		t.Fatalf("replayed %+v", got)
	}
}

func testState(nextFile uint64, files int) *manifest.State {
	v := manifest.NewVersion(3)
	r := &manifest.Run{}
	for i := 0; i < files; i++ {
		r.Files = append(r.Files, &manifest.FileMeta{
			Num: uint64(10 + i), Size: 4096 * uint64(i+1),
			Smallest: []byte(fmt.Sprintf("a%02d", i)), Largest: []byte(fmt.Sprintf("z%02d", i)),
			SmallestSeq: kv.SeqNum(i + 1), LargestSeq: kv.SeqNum(100 + i),
			NumEntries: 1000, NumTombstones: 7, NumRangeDels: uint64(i),
			OldestTombstoneNs: -int64(i) * 1e9,
		})
	}
	v.Levels[1].Runs = append(v.Levels[1].Runs, r)
	return &manifest.State{Version: v, NextFileNum: nextFile, LastSeq: kv.SeqNum(nextFile * 3)}
}

// TestGoldenManifest: a manifest holding two appended snapshots.
func TestGoldenManifest(t *testing.T) {
	fs := vfs.NewMem()
	st, s, err := manifest.OpenStore(fs, "MANIFEST")
	if err != nil || s != nil {
		t.Fatal(s, err)
	}
	if err := st.Commit(testState(11, 1)); err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(testState(13, 2)); err != nil {
		t.Fatal(err)
	}
	st.Close()
	golden(t, "MANIFEST", readAll(t, fs, "MANIFEST"))
	if err := manifest.Verify(fs, "MANIFEST"); err != nil {
		t.Fatal(err)
	}
	st, s, err = manifest.OpenStore(fs, "MANIFEST")
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	if s.NextFileNum != 13 || len(s.Version.Levels[1].Runs[0].Files) != 2 {
		t.Fatalf("recovered %+v", s)
	}
}

// TestGoldenShards: the descriptor a two-shard store writes at its root.
func TestGoldenShards(t *testing.T) {
	fs := vfs.NewMem()
	opts := core.DefaultOptions(fs, "db")
	s, err := partition.Open(opts, 2)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	golden(t, "SHARDS", readAll(t, fs, vfs.Join("db", "SHARDS")))
	s, err = partition.Open(opts, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.NumShards() != 2 {
		t.Fatalf("reopened with %d shards", s.NumShards())
	}
}

// TestGoldenSSTable: a small table with several data blocks, a filter,
// a range tombstone and a point tombstone.
func TestGoldenSSTable(t *testing.T) {
	fs := vfs.NewMem()
	f, err := fs.Create("000007.sst")
	if err != nil {
		t.Fatal(err)
	}
	w := sstable.NewWriter(f, sstable.WriterOptions{BlockSize: 256, BitsPerKey: 10})
	for i := 0; i < 60; i++ {
		kind := kv.KindSet
		if i%17 == 5 {
			kind = kv.KindDelete
		}
		if err := w.Add(kv.MakeKey([]byte(fmt.Sprintf("key%04d", i)), kv.SeqNum(100+i), kind), []byte(fmt.Sprintf("value-%d", i*i))); err != nil {
			t.Fatal(err)
		}
	}
	w.AddRangeTombstone(kv.RangeTombstone{Start: []byte("key0010"), End: []byte("key0020"), Seq: 50})
	props, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	golden(t, "SSTABLE", readAll(t, fs, "000007.sst"))

	rf, _ := fs.Open("000007.sst")
	r, err := sstable.Open(rf, sstable.ReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.VerifyChecksums(); err != nil {
		t.Fatal(err)
	}
	it := r.NewIterator()
	n := 0
	for ok := it.First(); ok; ok = it.Next() {
		n++
	}
	if n != 60 || r.Props().NumEntries != props.NumEntries || props.NumDataBlocks < 3 || len(r.RangeTombstones()) != 1 {
		t.Fatalf("%d entries, props %+v", n, r.Props())
	}
}
