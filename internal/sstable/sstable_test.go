package sstable

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"lsmlab/internal/bloom"
	"lsmlab/internal/kv"
	"lsmlab/internal/vfs"
)

// buildTable writes a table of n sequential entries and returns an open
// reader over it.
func buildTable(t *testing.T, fs vfs.FS, n int, opts WriterOptions, ropts ReaderOptions) *Reader {
	t.Helper()
	f, err := fs.Create("t.sst")
	if err != nil {
		t.Fatal(err)
	}
	w := NewWriter(f, opts)
	for i := 0; i < n; i++ {
		ik := kv.MakeKey([]byte(fmt.Sprintf("key-%06d", i)), kv.SeqNum(i+1), kv.KindSet)
		if err := w.Add(ik, []byte(fmt.Sprintf("value-%06d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	rf, err := fs.Open("t.sst")
	if err != nil {
		t.Fatal(err)
	}
	r, err := Open(rf, ropts)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestWriteReadRoundtrip(t *testing.T) {
	fs := vfs.NewMem()
	r := buildTable(t, fs, 1000, WriterOptions{BitsPerKey: 10}, ReaderOptions{})
	defer r.Close()

	for _, i := range []int{0, 1, 17, 500, 999} {
		uk := []byte(fmt.Sprintf("key-%06d", i))
		e, ok, err := r.Get(uk, bloom.Hash64(uk), kv.MaxSeqNum)
		if err != nil || !ok {
			t.Fatalf("get %s: ok=%v err=%v", uk, ok, err)
		}
		if want := fmt.Sprintf("value-%06d", i); string(e.Value) != want {
			t.Errorf("value %q, want %q", e.Value, want)
		}
	}
	uk := []byte("key-x")
	if _, ok, _ := r.Get(uk, bloom.Hash64(uk), kv.MaxSeqNum); ok {
		t.Error("absent key found")
	}
}

func TestProperties(t *testing.T) {
	fs := vfs.NewMem()
	r := buildTable(t, fs, 100, WriterOptions{BitsPerKey: 10}, ReaderOptions{})
	defer r.Close()
	p := r.Props()
	if p.NumEntries != 100 {
		t.Errorf("NumEntries=%d", p.NumEntries)
	}
	if string(p.Smallest) != "key-000000" || string(p.Largest) != "key-000099" {
		t.Errorf("bounds %q..%q", p.Smallest, p.Largest)
	}
	if p.SmallestSeq != 1 || p.LargestSeq != 100 {
		t.Errorf("seqs %d..%d", p.SmallestSeq, p.LargestSeq)
	}
	if p.NumDataBlocks == 0 {
		t.Error("no data blocks recorded")
	}
	if p.TombstoneDensity() != 0 {
		t.Error("no tombstones expected")
	}
}

func TestTombstonePropertiesAndDensity(t *testing.T) {
	fs := vfs.NewMem()
	f, _ := fs.Create("t.sst")
	now := int64(12345)
	w := NewWriter(f, WriterOptions{NowNs: func() int64 { return now }})
	w.Add(kv.MakeKey([]byte("a"), 2, kv.KindDelete), nil)
	w.Add(kv.MakeKey([]byte("b"), 1, kv.KindSet), []byte("v"))
	w.Add(kv.MakeKey([]byte("c"), 3, kv.KindSingleDelete), nil)
	w.Add(kv.MakeKey([]byte("d"), 4, kv.KindSet), []byte("v"))
	p, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	if p.NumTombstones != 2 {
		t.Errorf("NumTombstones=%d", p.NumTombstones)
	}
	if p.TombstoneDensity() != 0.5 {
		t.Errorf("density=%v", p.TombstoneDensity())
	}
	if p.OldestTombstoneNs != now {
		t.Errorf("OldestTombstoneNs=%d", p.OldestTombstoneNs)
	}
}

func TestIteratorFullScan(t *testing.T) {
	fs := vfs.NewMem()
	const n = 2500
	r := buildTable(t, fs, n, WriterOptions{BitsPerKey: 10}, ReaderOptions{})
	defer r.Close()
	it := r.NewIterator()
	defer it.Close()
	count := 0
	var prev []byte
	for ok := it.First(); ok; ok = it.Next() {
		if prev != nil && kv.Compare(prev, it.Key()) >= 0 {
			t.Fatal("out of order")
		}
		prev = append(prev[:0], it.Key()...)
		count++
	}
	if count != n {
		t.Errorf("scanned %d of %d", count, n)
	}
}

func TestIteratorSeekGE(t *testing.T) {
	fs := vfs.NewMem()
	r := buildTable(t, fs, 2000, WriterOptions{BitsPerKey: 10}, ReaderOptions{})
	defer r.Close()
	it := r.NewIterator()
	defer it.Close()

	// Seek to an existing key.
	if !it.SeekGE(kv.MakeSearchKey([]byte("key-001000"), kv.MaxSeqNum)) {
		t.Fatal("seek existing")
	}
	if got := string(kv.UserKey(it.Key())); got != "key-001000" {
		t.Errorf("landed on %q", got)
	}
	// Seek between keys.
	if !it.SeekGE(kv.MakeSearchKey([]byte("key-001000x"), kv.MaxSeqNum)) {
		t.Fatal("seek between")
	}
	if got := string(kv.UserKey(it.Key())); got != "key-001001" {
		t.Errorf("landed on %q", got)
	}
	// Seek before first.
	if !it.SeekGE(kv.MakeSearchKey([]byte("a"), kv.MaxSeqNum)) {
		t.Fatal("seek before first")
	}
	if got := string(kv.UserKey(it.Key())); got != "key-000000" {
		t.Errorf("landed on %q", got)
	}
	// Seek past last.
	if it.SeekGE(kv.MakeSearchKey([]byte("z"), kv.MaxSeqNum)) {
		t.Error("seek past last must be invalid")
	}
}

func TestMultipleVersionsVisibility(t *testing.T) {
	fs := vfs.NewMem()
	f, _ := fs.Create("t.sst")
	w := NewWriter(f, WriterOptions{BitsPerKey: 10})
	// Internal-key order: same ukey sorts newest (highest seq) first.
	w.Add(kv.MakeKey([]byte("k"), 9, kv.KindSet), []byte("v9"))
	w.Add(kv.MakeKey([]byte("k"), 5, kv.KindDelete), nil)
	w.Add(kv.MakeKey([]byte("k"), 2, kv.KindSet), []byte("v2"))
	if _, err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	f.Close()
	rf, _ := fs.Open("t.sst")
	r, err := Open(rf, ReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	h := bloom.Hash64([]byte("k"))
	for _, c := range []struct {
		snap kv.SeqNum
		kind kv.Kind
		val  string
		ok   bool
	}{
		{kv.MaxSeqNum, kv.KindSet, "v9", true},
		{8, kv.KindDelete, "", true},
		{4, kv.KindSet, "v2", true},
		{1, 0, "", false},
	} {
		e, ok, err := r.Get([]byte("k"), h, c.snap)
		if err != nil {
			t.Fatal(err)
		}
		if ok != c.ok {
			t.Fatalf("snap %d: ok=%v want %v", c.snap, ok, c.ok)
		}
		if ok && (e.Kind() != c.kind || string(e.Value) != c.val) {
			t.Errorf("snap %d: got %v", c.snap, e)
		}
	}
}

func TestRangeTombstoneRoundtrip(t *testing.T) {
	fs := vfs.NewMem()
	f, _ := fs.Create("t.sst")
	w := NewWriter(f, WriterOptions{})
	w.Add(kv.MakeKey([]byte("a"), 1, kv.KindSet), []byte("v"))
	w.AddRangeTombstone(kv.RangeTombstone{Start: []byte("b"), End: []byte("f"), Seq: 7})
	w.AddRangeTombstone(kv.RangeTombstone{Start: []byte("x"), End: []byte("x")}) // empty: dropped
	p, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	if p.NumRangeDels != 1 {
		t.Errorf("NumRangeDels=%d", p.NumRangeDels)
	}
	// Range tombstone extends the key bounds.
	if string(p.Largest) != "f" {
		t.Errorf("Largest=%q, range tombstone must extend bounds", p.Largest)
	}
	rf, _ := fs.Open("t.sst")
	r, err := Open(rf, ReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ts := r.RangeTombstones()
	if len(ts) != 1 || string(ts[0].Start) != "b" || string(ts[0].End) != "f" || ts[0].Seq != 7 {
		t.Errorf("tombstones %v", ts)
	}
}

func TestRangeTombstoneOnlyTable(t *testing.T) {
	fs := vfs.NewMem()
	f, _ := fs.Create("t.sst")
	w := NewWriter(f, WriterOptions{})
	w.AddRangeTombstone(kv.RangeTombstone{Start: []byte("a"), End: []byte("z"), Seq: 3})
	if _, err := w.Finish(); err != nil {
		t.Fatalf("rangedel-only table must be writable: %v", err)
	}
	f.Close()
	rf, _ := fs.Open("t.sst")
	r, err := Open(rf, ReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if len(r.RangeTombstones()) != 1 {
		t.Error("tombstone lost")
	}
	it := r.NewIterator()
	if it.First() {
		t.Error("no point entries expected")
	}
	it.Close()
}

// TestRangeTombstoneWidensSeqRange: a table's sequence range covers its
// range tombstones, so a table holding only tombstones does not record
// 0..0 and rank as the oldest file.
func TestRangeTombstoneWidensSeqRange(t *testing.T) {
	for _, tc := range []struct {
		name       string
		points     []kv.SeqNum
		tombstones []kv.SeqNum
		lo, hi     kv.SeqNum
	}{
		{"points-then-tombstone", []kv.SeqNum{2, 3, 4}, []kv.SeqNum{5}, 2, 5},
		{"tombstones-only", nil, []kv.SeqNum{9, 6, 7}, 6, 9},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, _ := vfs.NewMem().Create("t.sst")
			w := NewWriter(f, WriterOptions{})
			for i, seq := range tc.points {
				if err := w.Add(kv.MakeKey([]byte{'a' + byte(i)}, seq, kv.KindSet), []byte("v")); err != nil {
					t.Fatal(err)
				}
			}
			for _, seq := range tc.tombstones {
				w.AddRangeTombstone(kv.RangeTombstone{Start: []byte("m"), End: []byte("p"), Seq: seq})
			}
			p, err := w.Finish()
			if err != nil {
				t.Fatal(err)
			}
			if p.SmallestSeq != tc.lo || p.LargestSeq != tc.hi {
				t.Errorf("seqs %d..%d, want %d..%d", p.SmallestSeq, p.LargestSeq, tc.lo, tc.hi)
			}
		})
	}
}

func TestOutOfOrderAddFails(t *testing.T) {
	fs := vfs.NewMem()
	f, _ := fs.Create("t.sst")
	w := NewWriter(f, WriterOptions{})
	if err := w.Add(kv.MakeKey([]byte("b"), 1, kv.KindSet), nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Add(kv.MakeKey([]byte("a"), 2, kv.KindSet), nil); err == nil {
		t.Fatal("out-of-order add must fail")
	}
	if _, err := w.Finish(); err == nil {
		t.Fatal("finish after error must fail")
	}
}

func TestEmptyTableFails(t *testing.T) {
	fs := vfs.NewMem()
	f, _ := fs.Create("t.sst")
	w := NewWriter(f, WriterOptions{})
	if _, err := w.Finish(); err == nil {
		t.Fatal("empty table must fail")
	}
}

func TestBloomFilterSkipsAbsentKeys(t *testing.T) {
	fs := vfs.NewMem()
	stats := &recordingStats{}
	r := buildTable(t, fs, 1000, WriterOptions{BitsPerKey: 10}, ReaderOptions{Stats: stats})
	defer r.Close()
	neg := 0
	for i := 0; i < 1000; i++ {
		uk := []byte(fmt.Sprintf("absent-%06d", i))
		if !r.MayContainHash(bloom.Hash64(uk)) {
			neg++
		}
	}
	if neg < 950 {
		t.Errorf("filter rejected only %d of 1000 absent keys", neg)
	}
	if stats.probes != 1000 || stats.negatives != int64(neg) {
		t.Errorf("stats: probes=%d negatives=%d", stats.probes, stats.negatives)
	}
}

func TestNoFilterWhenZeroBits(t *testing.T) {
	fs := vfs.NewMem()
	r := buildTable(t, fs, 100, WriterOptions{BitsPerKey: 0}, ReaderOptions{})
	defer r.Close()
	if r.FilterSizeBytes() != 0 {
		t.Error("zero bits must produce no filter")
	}
	uk := []byte("absent")
	if !r.MayContainHash(bloom.Hash64(uk)) {
		t.Error("unfiltered table must answer maybe")
	}
}

type recordingStats struct {
	probes, negatives, cachedReads, diskReads int64
}

func (s *recordingStats) FilterProbe(negative bool) {
	s.probes++
	if negative {
		s.negatives++
	}
}

func (s *recordingStats) BlockRead(cached bool, _ int) {
	if cached {
		s.cachedReads++
	} else {
		s.diskReads++
	}
}

// fakeCache is a trivial map-backed BlockCache; refuse makes it admit
// nothing, as a full cache does on a block's first miss.
type fakeCache struct {
	m      map[[2]uint64]any
	refuse bool
}

func (c *fakeCache) Lookup(fn, off uint64, charge int) (any, bool, bool) {
	v, ok := c.m[[2]uint64{fn, off}]
	return v, ok, !c.refuse
}

func (c *fakeCache) Add(fn, off uint64, v any, charge int) {
	c.m[[2]uint64{fn, off}] = v
}

func TestBlockCacheUsed(t *testing.T) {
	fs := vfs.NewCounting(vfs.NewMem())
	stats := &recordingStats{}
	cache := &fakeCache{m: make(map[[2]uint64]any)}
	r := buildTable(t, fs, 2000, WriterOptions{BitsPerKey: 10},
		ReaderOptions{Cache: cache, Stats: stats, FileNum: 7})
	defer r.Close()

	uk := []byte("key-000500")
	h := bloom.Hash64(uk)
	if _, ok, _ := r.Get(uk, h, kv.MaxSeqNum); !ok {
		t.Fatal("get")
	}
	if stats.diskReads != 1 || stats.cachedReads != 0 {
		t.Fatalf("first read: %+v", *stats)
	}
	if _, ok, _ := r.Get(uk, h, kv.MaxSeqNum); !ok {
		t.Fatal("get 2")
	}
	if stats.cachedReads != 1 {
		t.Fatalf("second read should hit cache: %+v", *stats)
	}
}

// TestRefusedBlockValueIsPrivate: a value found in a block the cache
// refused comes back as a copy, so lookups through the same scratch
// that read other refused blocks into it cannot change it, and nothing
// is inserted.
func TestRefusedBlockValueIsPrivate(t *testing.T) {
	cache := &fakeCache{m: make(map[[2]uint64]any), refuse: true}
	r := buildTable(t, vfs.NewMem(), 2000, WriterOptions{BlockSize: 256}, ReaderOptions{Cache: cache})
	defer r.Close()
	var sc GetScratch
	get := func(i int) []byte {
		uk := []byte(fmt.Sprintf("key-%06d", i))
		e, ok, err := r.GetScratched(uk, kv.MakeSearchKey(uk, kv.MaxSeqNum), bloom.Hash64(uk), nil, &sc)
		if !ok || err != nil {
			t.Fatalf("get %s: %v %v", uk, ok, err)
		}
		return e.Value
	}
	first := get(7)
	for i := 1000; i < 2000; i += 37 {
		if v, want := get(i), fmt.Sprintf("value-%06d", i); string(v) != want {
			t.Fatalf("get %d = %q, want %q", i, v, want)
		}
	}
	if string(first) != "value-000007" {
		t.Fatalf("value from a refused block changed under later lookups: %q", first)
	}
	if len(cache.m) != 0 || cap(sc.buf.raw) == 0 {
		t.Fatalf("refused blocks: %d cached, scratch buffer cap %d", len(cache.m), cap(sc.buf.raw))
	}
}

func TestCorruptBlockDetected(t *testing.T) {
	fs := vfs.NewMem()
	f, _ := fs.Create("t.sst")
	w := NewWriter(f, WriterOptions{})
	for i := 0; i < 100; i++ {
		w.Add(kv.MakeKey([]byte(fmt.Sprintf("key-%04d", i)), kv.SeqNum(i+1), kv.KindSet), []byte("v"))
	}
	if _, err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Corrupt one byte in the middle of the file (a data block).
	rf, _ := fs.Open("t.sst")
	size, _ := rf.Size()
	data := make([]byte, size)
	rf.ReadAt(data, 0)
	rf.Close()
	data[100] ^= 0xff
	cf, _ := fs.Create("t.sst")
	cf.Write(data)
	cf.Close()

	rf2, _ := fs.Open("t.sst")
	r, err := Open(rf2, ReaderOptions{})
	if err != nil {
		// Index corruption is also acceptable detection.
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("unexpected error %v", err)
		}
		return
	}
	defer r.Close()
	uk := []byte("key-0000")
	_, _, err = r.Get(uk, bloom.Hash64(uk), kv.MaxSeqNum)
	if !errors.Is(err, ErrCorrupt) {
		t.Errorf("corruption undetected: %v", err)
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	fs := vfs.NewMem()
	f, _ := fs.Create("junk")
	f.Write([]byte(strings.Repeat("x", 200)))
	f.Close()
	rf, _ := fs.Open("junk")
	if _, err := Open(rf, ReaderOptions{}); !errors.Is(err, ErrCorrupt) {
		t.Errorf("garbage accepted: %v", err)
	}
	g, _ := fs.Create("tiny")
	g.Write([]byte("xy"))
	g.Close()
	rg, _ := fs.Open("tiny")
	if _, err := Open(rg, ReaderOptions{}); !errors.Is(err, ErrCorrupt) {
		t.Errorf("tiny accepted: %v", err)
	}
}

func TestRandomizedTableAgainstModel(t *testing.T) {
	fs := vfs.NewMem()
	r := rand.New(rand.NewSource(5))
	// Build sorted random entries with duplicate user keys and varied
	// value sizes.
	type mk struct {
		uk  string
		seq kv.SeqNum
	}
	seen := map[mk]bool{}
	var entries []kv.Entry
	for len(entries) < 3000 {
		k := mk{fmt.Sprintf("k%05d", r.Intn(1000)), kv.SeqNum(r.Intn(10) + 1)}
		if seen[k] {
			continue
		}
		seen[k] = true
		val := make([]byte, r.Intn(300))
		for i := range val {
			val[i] = byte(r.Intn(256))
		}
		entries = append(entries, kv.Entry{
			Key:   kv.MakeKey([]byte(k.uk), k.seq, kv.KindSet),
			Value: val,
		})
	}
	sortEntries(entries)

	f, _ := fs.Create("t.sst")
	w := NewWriter(f, WriterOptions{BitsPerKey: 10, BlockSize: 512})
	for _, e := range entries {
		if err := w.Add(e.Key, e.Value); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	f.Close()

	rf, _ := fs.Open("t.sst")
	rd, err := Open(rf, ReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()

	// Full scan must reproduce entries exactly.
	it := rd.NewIterator()
	i := 0
	for ok := it.First(); ok; ok = it.Next() {
		if kv.Compare(it.Key(), entries[i].Key) != 0 || string(it.Value()) != string(entries[i].Value) {
			t.Fatalf("mismatch at %d", i)
		}
		i++
	}
	it.Close()
	if i != len(entries) {
		t.Fatalf("scanned %d of %d", i, len(entries))
	}

	// Random point gets against the model.
	for trial := 0; trial < 500; trial++ {
		uk := fmt.Sprintf("k%05d", r.Intn(1100))
		snap := kv.SeqNum(r.Intn(12))
		var want *kv.Entry
		for i := range entries {
			e := &entries[i]
			if string(e.UserKey()) == uk && kv.Visible(e.Seq(), snap) &&
				(want == nil || e.Seq() > want.Seq()) {
				want = e
			}
		}
		got, ok, err := rd.Get([]byte(uk), bloom.Hash64([]byte(uk)), snap)
		if err != nil {
			t.Fatal(err)
		}
		if (want != nil) != ok {
			t.Fatalf("get %s@%d: ok=%v want %v", uk, snap, ok, want != nil)
		}
		if ok && (got.Seq() != want.Seq() || string(got.Value) != string(want.Value)) {
			t.Fatalf("get %s@%d: wrong version", uk, snap)
		}
	}
}

func sortEntries(es []kv.Entry) {
	for i := 1; i < len(es); i++ {
		for j := i; j > 0 && kv.Compare(es[j].Key, es[j-1].Key) < 0; j-- {
			es[j], es[j-1] = es[j-1], es[j]
		}
	}
}

func TestEstimatedSizeGrows(t *testing.T) {
	fs := vfs.NewMem()
	f, _ := fs.Create("t.sst")
	w := NewWriter(f, WriterOptions{})
	if w.EstimatedSize() != 0 {
		t.Error("empty writer size")
	}
	w.Add(kv.MakeKey([]byte("a"), 1, kv.KindSet), make([]byte, 1000))
	s1 := w.EstimatedSize()
	if s1 < 1000 {
		t.Errorf("size %d", s1)
	}
	w.Add(kv.MakeKey([]byte("b"), 2, kv.KindSet), make([]byte, 5000))
	if w.EstimatedSize() <= s1 {
		t.Error("size must grow")
	}
	if w.NumEntries() != 2 {
		t.Errorf("entries %d", w.NumEntries())
	}
}

func TestBlockSizeControlsBlockCount(t *testing.T) {
	fs := vfs.NewMem()
	small := buildTable(t, fs, 1000, WriterOptions{BlockSize: 512}, ReaderOptions{})
	nSmall := small.Props().NumDataBlocks
	small.Close()
	big := buildTable(t, fs, 1000, WriterOptions{BlockSize: 16384}, ReaderOptions{})
	nBig := big.Props().NumDataBlocks
	big.Close()
	if nSmall <= nBig {
		t.Errorf("512B blocks (%d) should outnumber 16K blocks (%d)", nSmall, nBig)
	}
}

// failAfterFile fails every write after the first n.
type failAfterFile struct {
	vfs.File
	remaining int
}

func (f *failAfterFile) Write(p []byte) (int, error) {
	if f.remaining <= 0 {
		return 0, errors.New("injected failure")
	}
	f.remaining--
	return f.File.Write(p)
}

func TestFinishPropagatesDataBlockWriteError(t *testing.T) {
	fs := vfs.NewMem()
	inner, _ := fs.Create("t.sst")
	f := &failAfterFile{File: inner, remaining: 0} // every write fails
	w := NewWriter(f, WriterOptions{})
	// Small entries stay buffered until Finish, whose first data-block
	// write must fail and surface.
	w.Add(kv.MakeKey([]byte("a"), 1, kv.KindSet), []byte("v"))
	if _, err := w.Finish(); err == nil {
		t.Fatal("Finish must propagate the data-block write failure")
	}
}

func TestAddPropagatesMidStreamWriteError(t *testing.T) {
	fs := vfs.NewMem()
	inner, _ := fs.Create("t.sst")
	f := &failAfterFile{File: inner, remaining: 1} // first block ok, then fail
	w := NewWriter(f, WriterOptions{BlockSize: 256})
	var sawErr bool
	for i := 0; i < 1000; i++ {
		ik := kv.MakeKey([]byte(fmt.Sprintf("key-%04d", i)), kv.SeqNum(i+1), kv.KindSet)
		if err := w.Add(ik, make([]byte, 64)); err != nil {
			sawErr = true
			break
		}
	}
	if !sawErr {
		t.Fatal("Add must eventually surface the write failure")
	}
	if _, err := w.Finish(); err == nil {
		t.Fatal("Finish after failed Add must error")
	}
}
