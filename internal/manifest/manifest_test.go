package manifest

import (
	"errors"
	"fmt"
	"testing"

	"lsmlab/internal/kv"
	"lsmlab/internal/vfs"
	"lsmlab/internal/vfs/faultfs"
)

func fm(num uint64, smallest, largest string, size uint64) *FileMeta {
	return &FileMeta{
		Num: num, Size: size,
		Smallest: []byte(smallest), Largest: []byte(largest),
		NumEntries: size / 10,
	}
}

func TestRunFindFile(t *testing.T) {
	r := &Run{Files: []*FileMeta{
		fm(1, "a", "c", 100),
		fm(2, "e", "g", 100),
		fm(3, "i", "k", 100),
	}}
	for _, c := range []struct {
		key  string
		want uint64 // 0 = not found
	}{
		{"a", 1}, {"b", 1}, {"c", 1},
		{"d", 0},
		{"e", 2}, {"g", 2},
		{"h", 0},
		{"k", 3},
		{"z", 0},
		{"A", 0},
	} {
		f := r.FindFile([]byte(c.key))
		var got uint64
		if f != nil {
			got = f.Num
		}
		if got != c.want {
			t.Errorf("FindFile(%q) = %d, want %d", c.key, got, c.want)
		}
	}
}

func TestRunOverlappingAndAggregates(t *testing.T) {
	r := &Run{Files: []*FileMeta{fm(1, "a", "c", 100), fm(2, "e", "g", 200)}}
	if got := len(r.Overlapping(kv.KeyRange{Smallest: []byte("b"), Largest: []byte("f")})); got != 2 {
		t.Errorf("overlap both: %d", got)
	}
	if got := len(r.Overlapping(kv.KeyRange{Smallest: []byte("d"), Largest: []byte("d")})); got != 0 {
		t.Errorf("overlap gap: %d", got)
	}
	if r.Size() != 300 {
		t.Errorf("size %d", r.Size())
	}
	kr := r.KeyRange()
	if string(kr.Smallest) != "a" || string(kr.Largest) != "g" {
		t.Errorf("range %q..%q", kr.Smallest, kr.Largest)
	}
}

func TestVersionPushRunIsImmutable(t *testing.T) {
	v1 := NewVersion(3)
	v2 := v1.PushRun(0, &Run{Files: []*FileMeta{fm(1, "a", "z", 100)}})
	if len(v1.Levels[0].Runs) != 0 {
		t.Error("PushRun mutated the original version")
	}
	if len(v2.Levels[0].Runs) != 1 {
		t.Error("PushRun missing run")
	}
	v3 := v2.PushRun(0, &Run{Files: []*FileMeta{fm(2, "a", "z", 100)}})
	// Newest run must be first.
	if v3.Levels[0].Runs[0].Files[0].Num != 2 {
		t.Error("newest run must be Runs[0]")
	}
}

func TestVersionReplaceRuns(t *testing.T) {
	v := NewVersion(3)
	v = v.PushRun(0, &Run{Files: []*FileMeta{fm(1, "a", "m", 100)}})
	v = v.PushRun(0, &Run{Files: []*FileMeta{fm(2, "n", "z", 100)}})
	v = v.PushRun(1, &Run{Files: []*FileMeta{fm(3, "a", "k", 500), fm(4, "l", "z", 500)}})

	// Compact file 1 (L0) with file 3 (L1) into new file 5 at L1.
	nv := v.ReplaceRuns(map[int][]uint64{0: {1}, 1: {3}}, 1, &Run{Files: []*FileMeta{fm(5, "a", "m", 550)}})
	if got := nv.Levels[0].NumFiles(); got != 1 {
		t.Errorf("L0 files %d", got)
	}
	if nv.Levels[0].Runs[0].Files[0].Num != 2 {
		t.Error("wrong L0 survivor")
	}
	// L1 keeps file 4 (in its partially-surviving run) plus new run with 5.
	nums := map[uint64]bool{}
	for _, r := range nv.Levels[1].Runs {
		for _, f := range r.Files {
			nums[f.Num] = true
		}
	}
	if !nums[4] || !nums[5] || nums[3] {
		t.Errorf("L1 files %v", nums)
	}
	// Original untouched.
	if v.TotalFiles() != 4 {
		t.Error("ReplaceRuns mutated original")
	}
}

func TestVersionReplaceRunsNilNewRun(t *testing.T) {
	v := NewVersion(2)
	v = v.PushRun(0, &Run{Files: []*FileMeta{fm(1, "a", "z", 100)}})
	nv := v.ReplaceRuns(map[int][]uint64{0: {1}}, 1, nil)
	if nv.TotalFiles() != 0 || len(nv.Levels[0].Runs) != 0 {
		t.Error("pure deletion failed")
	}
}

func TestVersionAggregates(t *testing.T) {
	v := NewVersion(3)
	v = v.PushRun(0, &Run{Files: []*FileMeta{fm(1, "a", "c", 100)}})
	v = v.PushRun(1, &Run{Files: []*FileMeta{fm(2, "a", "c", 300), fm(3, "d", "f", 300)}})
	v = v.PushRun(0, &Run{Files: []*FileMeta{fm(4, "b", "e", 100)}})
	if v.TotalSize() != 800 || v.TotalFiles() != 4 || v.NumRuns() != 3 {
		t.Errorf("aggregates: size=%d files=%d runs=%d", v.TotalSize(), v.TotalFiles(), v.NumRuns())
	}
	live := v.LiveFileNums()
	if len(live) != 4 || !live[1] || !live[2] || !live[3] || !live[4] {
		t.Errorf("live %v", live)
	}
	epr := v.EntriesPerRun()
	if len(epr) != 3 || epr[0] != 10 || epr[1] != 10 || epr[2] != 60 {
		t.Errorf("entries per run %v", epr)
	}
	// Levels in order, runs newest first, files in key order.
	var walk []string
	for level, f := range v.Files() {
		walk = append(walk, fmt.Sprintf("L%d#%d", level, f.Num))
	}
	if got := fmt.Sprint(walk); got != "[L0#4 L0#1 L1#2 L1#3]" {
		t.Errorf("Files walk %s", got)
	}
	for _, f := range v.Files() {
		if f.Num != 4 {
			t.Errorf("walk went on after break, at #%d", f.Num)
		}
		break
	}
}

func TestVersionCheck(t *testing.T) {
	good := NewVersion(2)
	good = good.PushRun(0, &Run{Files: []*FileMeta{fm(1, "a", "c", 1), fm(2, "d", "f", 1)}})
	if err := good.Check(); err != nil {
		t.Errorf("good version: %v", err)
	}
	bad := NewVersion(2)
	bad = bad.PushRun(0, &Run{Files: []*FileMeta{fm(1, "a", "e", 1), fm(2, "d", "f", 1)}})
	if err := bad.Check(); err == nil {
		t.Error("overlapping files undetected")
	}
	inv := NewVersion(1)
	inv = inv.PushRun(0, &Run{Files: []*FileMeta{fm(1, "z", "a", 1)}})
	if err := inv.Check(); err == nil {
		t.Error("inverted bounds undetected")
	}
}

func TestTombstoneDensity(t *testing.T) {
	f := &FileMeta{NumEntries: 100, NumTombstones: 25, NumRangeDels: 25}
	if f.TombstoneDensity() != 0.5 {
		t.Errorf("density %v", f.TombstoneDensity())
	}
	empty := &FileMeta{}
	if empty.TombstoneDensity() != 0 {
		t.Error("empty density")
	}
	rdOnly := &FileMeta{NumRangeDels: 1}
	if rdOnly.TombstoneDensity() != 1 {
		t.Error("rangedel-only density")
	}
}

func makeState(nFiles int) *State {
	v := NewVersion(4)
	for i := 0; i < nFiles; i++ {
		f := fm(uint64(i+1), fmt.Sprintf("k%03d", i*10), fmt.Sprintf("k%03d", i*10+5), 1000)
		f.SmallestSeq = kv.SeqNum(i)
		f.LargestSeq = kv.SeqNum(i + 100)
		f.NumTombstones = 3
		f.OldestTombstoneNs = int64(i * 1e9)
		v = v.PushRun(i%4, &Run{Files: []*FileMeta{f}})
	}
	return &State{Version: v, NextFileNum: uint64(nFiles + 1), LastSeq: 999}
}

func statesEqual(a, b *State) bool {
	if a.NextFileNum != b.NextFileNum || a.LastSeq != b.LastSeq {
		return false
	}
	if len(a.Version.Levels) != len(b.Version.Levels) {
		return false
	}
	for i := range a.Version.Levels {
		la, lb := a.Version.Levels[i], b.Version.Levels[i]
		if len(la.Runs) != len(lb.Runs) {
			return false
		}
		for j := range la.Runs {
			fa, fb := la.Runs[j].Files, lb.Runs[j].Files
			if len(fa) != len(fb) {
				return false
			}
			for k := range fa {
				x, y := fa[k], fb[k]
				if x.Num != y.Num || x.Size != y.Size ||
					string(x.Smallest) != string(y.Smallest) ||
					string(x.Largest) != string(y.Largest) ||
					x.SmallestSeq != y.SmallestSeq || x.LargestSeq != y.LargestSeq ||
					x.NumEntries != y.NumEntries || x.NumTombstones != y.NumTombstones ||
					x.NumRangeDels != y.NumRangeDels || x.OldestTombstoneNs != y.OldestTombstoneNs {
					return false
				}
			}
		}
	}
	return true
}

func TestStoreCommitRecover(t *testing.T) {
	fs := vfs.NewMem()
	st, rec, err := OpenStore(fs, "MANIFEST")
	if err != nil {
		t.Fatal(err)
	}
	if rec != nil {
		t.Fatal("fresh store must recover nil")
	}
	want := makeState(7)
	if err := st.Commit(want); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st2, rec2, err := OpenStore(fs, "MANIFEST")
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if rec2 == nil || !statesEqual(want, rec2) {
		t.Fatal("recovered state differs")
	}
}

func TestStoreRecoversLatestCommit(t *testing.T) {
	fs := vfs.NewMem()
	st, _, _ := OpenStore(fs, "MANIFEST")
	for i := 1; i <= 5; i++ {
		if err := st.Commit(makeState(i)); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()
	_, rec, err := OpenStore(fs, "MANIFEST")
	if err != nil {
		t.Fatal(err)
	}
	if !statesEqual(makeState(5), rec) {
		t.Fatal("did not recover the newest snapshot")
	}
}

func TestStoreTornTailFallsBack(t *testing.T) {
	fs := vfs.NewMem()
	st, _, _ := OpenStore(fs, "MANIFEST")
	st.Commit(makeState(2))
	st.Commit(makeState(3))
	st.Close()

	// Truncate the file mid-way through the last record.
	f, _ := fs.Open("MANIFEST")
	sz, _ := f.Size()
	data := make([]byte, sz-5)
	f.ReadAt(data, 0)
	f.Close()
	g, _ := fs.Create("MANIFEST")
	g.Write(data)
	g.Close()

	_, rec, err := OpenStore(fs, "MANIFEST")
	if err != nil {
		t.Fatal(err)
	}
	if rec == nil || !statesEqual(makeState(2), rec) {
		t.Fatal("torn tail should fall back to previous snapshot")
	}
}

func TestStoreRewriteCompacts(t *testing.T) {
	fs := vfs.NewMem()
	st, _, _ := OpenStore(fs, "MANIFEST")
	st.rewriteAt = 1 // force a rewrite on every commit
	for i := 1; i <= 10; i++ {
		if err := st.Commit(makeState(i)); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()
	f, _ := fs.Open("MANIFEST")
	sz, _ := f.Size()
	f.Close()
	// After rewrite the manifest holds exactly one snapshot.
	_, rec, err := OpenStore(fs, "MANIFEST")
	if err != nil {
		t.Fatal(err)
	}
	if !statesEqual(makeState(10), rec) {
		t.Fatal("rewrite lost state")
	}
	single := int64(len(encodeFrame(makeState(10))))
	if sz != single {
		t.Errorf("manifest %d bytes, want single snapshot %d", sz, single)
	}
}

func TestFileNames(t *testing.T) {
	if FileName(7) != "000007.sst" || WALName(7) != "000007.wal" || VLogName(7) != "000007.vlog" {
		t.Error("file name formats")
	}
	fs := vfs.NewMem()
	fs.MkdirAll("d")
	for _, name := range []string{WALName(12), FileName(3), "MANIFEST", WALName(2),
		FileName(5) + ".corrupt", "x.wal", VLogName(4), FileName(1000000)} {
		f, err := fs.Create(vfs.Join("d", name))
		if err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	for ext, want := range map[string]string{TableExt: "[3 1000000]", WALExt: "[2 12]", VLogExt: "[4]"} {
		nums, err := ListNums(fs, "d", ext)
		if got := fmt.Sprint(nums); err != nil || got != want {
			t.Errorf("ListNums(%s) = %s, %v; want %s", ext, got, err, want)
		}
	}
}

func TestEmptyVersionState(t *testing.T) {
	fs := vfs.NewMem()
	st, _, _ := OpenStore(fs, "M")
	want := &State{Version: NewVersion(5), NextFileNum: 1, LastSeq: 0}
	st.Commit(want)
	st.Close()
	_, rec, err := OpenStore(fs, "M")
	if err != nil {
		t.Fatal(err)
	}
	if rec == nil || rec.Version.NumLevels() != 5 || rec.Version.TotalFiles() != 0 {
		t.Fatal("empty version roundtrip")
	}
}

// TestStoreTornAppendHeals covers the dirty-commit recovery: after a
// failed append the store must not keep appending past a possibly torn
// frame (replay would silently ignore everything after it) — the next
// Commit rewrites the manifest from scratch.
func TestStoreTornAppendHeals(t *testing.T) {
	base := vfs.NewMem()
	ffs := faultfs.New(base, 1)
	st, _, err := OpenStore(ffs, "MANIFEST")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(makeState(1)); err != nil {
		t.Fatal(err)
	}
	ffs.Arm(faultfs.ClassManifest, faultfs.OpWrite, 1)
	if err := st.Commit(makeState(2)); err == nil {
		t.Fatal("commit with failing device must error")
	}
	// Device healed: the next commit must land durably and readably.
	if err := st.Commit(makeState(3)); err != nil {
		t.Fatalf("post-failure commit did not heal: %v", err)
	}
	st.Close()
	_, rec, err := OpenStore(base, "MANIFEST")
	if err != nil {
		t.Fatal(err)
	}
	if rec == nil || !statesEqual(makeState(3), rec) {
		t.Fatal("healed commit not recovered")
	}
}

// TestStoreTornRenameRecovers crashes the write-temp-then-rename swap
// at the rename: the store must keep the previous manifest authoritative
// (recovery sees the last committed state), remove the stale temp file
// on reopen, and — without a crash — heal on the next Commit.
func TestStoreTornRenameRecovers(t *testing.T) {
	base := vfs.NewMem()
	ffs := faultfs.New(base, 1)
	st, _, err := OpenStore(ffs, "MANIFEST")
	if err != nil {
		t.Fatal(err)
	}
	st.rewriteAt = 1 // every commit rewrites via temp+rename
	if err := st.Commit(makeState(1)); err != nil {
		t.Fatal(err)
	}
	ffs.Arm(faultfs.ClassManifest, faultfs.OpRename, 1)
	if err := st.Commit(makeState(2)); err == nil {
		t.Fatal("commit with failing rename must error")
	}

	// Crash here: the manifest is still authoritative — the append that
	// preceded the rewrite already made state 2 durable, and the failed
	// swap must neither corrupt it nor roll it back. The stale temp file
	// must be cleaned up.
	_, rec, err := OpenStore(base, "MANIFEST")
	if err != nil {
		t.Fatal(err)
	}
	if rec == nil || !statesEqual(makeState(2), rec) {
		t.Fatal("torn rename corrupted the committed state")
	}
	if base.Exists("MANIFEST.tmp") {
		t.Fatal("stale temp manifest survived reopen")
	}

	// No crash: the same store heals on the next commit.
	if err := st.Commit(makeState(3)); err != nil {
		t.Fatalf("commit after torn rename did not heal: %v", err)
	}
	st.Close()
	_, rec2, err := OpenStore(base, "MANIFEST")
	if err != nil {
		t.Fatal(err)
	}
	if rec2 == nil || !statesEqual(makeState(3), rec2) {
		t.Fatal("healed state not recovered after torn rename")
	}
}

func TestVerifyManifest(t *testing.T) {
	fs := vfs.NewMem()
	st, _, _ := OpenStore(fs, "MANIFEST")
	st.Commit(makeState(1))
	st.Commit(makeState(2))
	st.Close()
	if err := Verify(fs, "MANIFEST"); err != nil {
		t.Fatalf("clean manifest flagged: %v", err)
	}

	// A torn tail is tolerated: that is exactly what recovery discards.
	f, _ := fs.Open("MANIFEST")
	sz, _ := f.Size()
	data := make([]byte, sz)
	f.ReadAt(data, 0)
	f.Close()
	g, _ := fs.Create("MANIFEST")
	g.Write(data[:sz-5])
	g.Close()
	if err := Verify(fs, "MANIFEST"); err != nil {
		t.Fatalf("torn tail flagged as corruption: %v", err)
	}

	// A flipped byte inside a complete frame is corruption: recovery
	// would silently fall back to an older snapshot.
	data[12] ^= 0x40
	g, _ = fs.Create("MANIFEST")
	g.Write(data)
	g.Close()
	if err := Verify(fs, "MANIFEST"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bit flip not flagged: %v", err)
	}

	if err := Verify(fs, "NOPE"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("missing manifest not flagged: %v", err)
	}
}
