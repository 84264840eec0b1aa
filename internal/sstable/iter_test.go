package sstable

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"lsmlab/internal/kv"
	"lsmlab/internal/vfs"
)

// writeTable writes entries (sorted, unique internal keys) to name with
// small blocks and returns an open reader over it.
func writeTable(t *testing.T, fs vfs.FS, name string, entries []kv.Entry) *Reader {
	t.Helper()
	f, err := fs.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWriter(f, WriterOptions{BlockSize: 256, BitsPerKey: 10})
	for _, e := range entries {
		if err := w.Add(e.Key, e.Value); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	f.Close()
	rf, err := fs.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Open(rf, ReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// randomEntries returns n entries whose user keys vary in length and
// share long prefixes, so a stale key buffer would decode wrong keys.
func randomEntries(rng *rand.Rand, n int) []kv.Entry {
	seen := map[string]bool{}
	for len(seen) < n {
		b := make([]byte, 1+rng.Intn(40))
		for i := range b {
			b[i] = "ab"[rng.Intn(2)]
		}
		seen[string(b)] = true
	}
	var es []kv.Entry
	for k := range seen {
		es = append(es, kv.Entry{
			Key:   kv.MakeKey([]byte(k), kv.SeqNum(1+rng.Intn(1000)), kv.KindSet),
			Value: []byte(fmt.Sprintf("v-%s-%d", k, rng.Intn(1e6))),
		})
	}
	sort.Slice(es, func(i, j int) bool { return kv.Compare(es[i].Key, es[j].Key) < 0 })
	return es
}

// walk applies one seeded sequence of moves to it and records what it
// yields, ending with its deferred error.
func walk(it kv.Iterator, seek []byte, steps int) []string {
	out := []string{fmt.Sprint(it.Next())} // unpositioned: must be false
	var ok bool
	if seek == nil {
		ok = it.First()
	} else {
		ok = it.SeekGE(seek)
	}
	for ; ok && steps > 0; ok, steps = it.Next(), steps-1 {
		out = append(out, fmt.Sprintf("%q=%q", it.Key(), it.Value()))
	}
	return append(out, fmt.Sprint(ok, it.Valid(), kv.IterError(it)))
}

// TestTableIterReuse points one TableIter in turn at random tables —
// one of them with a corrupt data block — and checks every use yields
// byte for byte what a fresh iterator yields, error included. The
// readers have no cache, so every block is refused and read into the
// cursor's one block buffer: a stale restart array, error or byte from
// the last block or table would show.
func TestTableIterReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	fs := vfs.NewMem()
	var tables []*Reader
	for i := 0; i < 6; i++ {
		r := writeTable(t, fs, fmt.Sprintf("%d.sst", i), randomEntries(rng, 50+rng.Intn(400)))
		defer r.Close()
		tables = append(tables, r)
	}

	// Flip a byte inside the third data block of the last table.
	var offsets []uint64
	tables[5].BlockSpans(func(off uint64, _ []byte) { offsets = append(offsets, off) })
	if len(offsets) < 4 {
		t.Fatalf("table has %d blocks, want at least 4", len(offsets))
	}
	size := tables[5].FileSize()
	data := make([]byte, size)
	if _, err := tables[5].f.ReadAt(data, 0); err != nil {
		t.Fatal(err)
	}
	data[offsets[2]+5] ^= 0xff
	bad := writeRaw(t, fs, "bad.sst", data)
	defer bad.Close()
	tables = append(tables, bad)
	if got := walk(bad.NewIterator(), nil, 1<<20); got[len(got)-1] == "false false <nil>" {
		t.Fatal("corrupt table iterated without an error")
	}

	var cur TableIter
	for use := 0; use < 300; use++ {
		r := tables[rng.Intn(len(tables))]
		var seek []byte
		if rng.Intn(3) > 0 {
			seek = kv.MakeSearchKey([]byte("abab"[:1+rng.Intn(4)]), kv.MaxSeqNum)
		}
		steps := rng.Intn(600)
		want := walk(r.NewIterator(), seek, steps)
		r.InitIterator(&cur, nil)
		got := walk(&cur, seek, steps)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("use %d: reused cursor yields\n%v\nfresh iterator yields\n%v", use, got, want)
		}
		if rng.Intn(2) == 0 {
			cur.Close()
			if cur.r != nil || cur.loaded || cur.index.b != nil || cur.data.b != nil {
				t.Fatalf("use %d: Close kept a reader or block", use)
			}
		}
	}
	if cap(cur.buf.raw) == 0 {
		t.Fatal("no block was read into the cursor's buffer")
	}
}

// writeRaw stores data as name and opens it as a table.
func writeRaw(t *testing.T, fs vfs.FS, name string, data []byte) *Reader {
	t.Helper()
	f, err := fs.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(data)
	f.Close()
	rf, err := fs.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Open(rf, ReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return r
}
