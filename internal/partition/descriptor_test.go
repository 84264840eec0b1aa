package partition

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"lsmlab/internal/core"
	"lsmlab/internal/vfs"
)

// fill puts n keys and closes the store.
func fill(t *testing.T, s interface {
	Put(key, value []byte) error
	Close() error
}, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := s.Put([]byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprintf("v%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func writeFile(t *testing.T, fs vfs.FS, name string, data []byte) {
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

// TestOpenLayouts drives the one function that decides flat-vs-sharded
// over hand-built directories: what Open(opts, n) makes of each, and
// that it never opens an empty flat tree over something else.
func TestOpenLayouts(t *testing.T) {
	const keys = 60
	desc := vfs.Join("db", descriptorName)
	build := map[string]func(t *testing.T, fs vfs.FS, opts core.Options){
		"fresh": func(*testing.T, vfs.FS, core.Options) {},
		"flat": func(t *testing.T, _ vfs.FS, opts core.Options) {
			db, err := core.Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			fill(t, db, keys)
		},
		"sharded4": func(t *testing.T, _ vfs.FS, opts core.Options) {
			s, err := Open(opts, 4)
			if err != nil {
				t.Fatal(err)
			}
			fill(t, s, keys)
		},
	}
	// legacyN is shardedN as the pre-descriptor code left it.
	legacy := func(n int) func(t *testing.T, fs vfs.FS, opts core.Options) {
		return func(t *testing.T, fs vfs.FS, opts core.Options) {
			s, err := Open(opts, n)
			if err != nil {
				t.Fatal(err)
			}
			fill(t, s, keys)
			if err := fs.Remove(desc); err != nil {
				t.Fatal(err)
			}
		}
	}
	build["legacy3"] = legacy(3)
	build["flat+part-000"] = func(t *testing.T, fs vfs.FS, opts core.Options) {
		legacy(2)(t, fs, opts)
		writeFile(t, fs, vfs.Join("db", "MANIFEST"), nil)
	}
	build["legacy part-000 alone"] = func(t *testing.T, fs vfs.FS, opts core.Options) {
		po := opts
		po.Path = vfs.Join("db", shardDirName(0))
		db, err := core.Open(po)
		if err != nil {
			t.Fatal(err)
		}
		db.Close()
	}
	// A damaged descriptor sits on top of real shards: falling back to
	// "flat" would serve an empty tree over them.
	damaged := func(data []byte) func(t *testing.T, fs vfs.FS, opts core.Options) {
		return func(t *testing.T, fs vfs.FS, opts core.Options) {
			build["sharded4"](t, fs, opts)
			writeFile(t, fs, desc, data)
		}
	}
	good := encodeDescriptor(4)
	flipped := append([]byte(nil), good...)
	flipped[len(descriptorMagic)] ^= 1
	one := encodeDescriptor(1)
	build["descriptor bad checksum"] = damaged(flipped)
	build["descriptor count 1"] = damaged(one)
	build["descriptor trailing bytes"] = damaged(append(append([]byte(nil), good...), 0))
	build["descriptor empty"] = damaged(nil)

	for _, tc := range []struct {
		dir      string
		n        int
		want     int    // shard count on success
		mismatch bool   // want ErrShardMismatch
		errHas   string // want some other error mentioning this
	}{
		{dir: "fresh", n: 0, want: 1},
		{dir: "fresh", n: 1, want: 1},
		{dir: "fresh", n: 3, want: 3},
		{dir: "flat", n: 0, want: 1},
		{dir: "flat", n: 1, want: 1},
		{dir: "flat", n: 2, mismatch: true},
		{dir: "sharded4", n: 0, want: 4},
		{dir: "sharded4", n: 4, want: 4},
		{dir: "sharded4", n: 3, mismatch: true},
		{dir: "sharded4", n: 1, mismatch: true},
		{dir: "legacy3", n: 0, want: 3},
		{dir: "legacy3", n: 3, want: 3},
		{dir: "legacy3", n: 2, mismatch: true},
		{dir: "flat+part-000", n: 0, errHas: "both"},
		{dir: "flat+part-000", n: 2, errHas: "both"},
		{dir: "legacy part-000 alone", n: 0, errHas: shardDirName(0)},
		{dir: "descriptor bad checksum", n: 0, errHas: desc},
		{dir: "descriptor bad checksum", n: 4, errHas: desc},
		{dir: "descriptor count 1", n: 0, errHas: desc},
		{dir: "descriptor trailing bytes", n: 0, errHas: desc},
		{dir: "descriptor empty", n: 1, errHas: desc},
	} {
		t.Run(fmt.Sprintf("%s/n=%d", tc.dir, tc.n), func(t *testing.T) {
			fs := vfs.NewMem()
			opts := core.DefaultOptions(fs, "db")
			build[tc.dir](t, fs, opts)
			s, err := Open(opts, tc.n)
			if tc.want == 0 {
				if err == nil {
					s.Close()
					t.Fatalf("opened with %d shards, want an error", s.NumShards())
				}
				if tc.mismatch != errors.Is(err, ErrShardMismatch) || !strings.Contains(err.Error(), tc.errHas) {
					t.Fatalf("got %v; want mismatch=%v mentioning %q", err, tc.mismatch, tc.errHas)
				}
				if tc.dir != "flat+part-000" && tc.dir != "flat" && fs.Exists(vfs.Join("db", "MANIFEST")) {
					t.Fatal("the refused open left a flat tree behind")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if s.NumShards() != tc.want {
				t.Fatalf("%d shards, want %d", s.NumShards(), tc.want)
			}
			// One shard is the directory itself; several have the
			// descriptor (written on adoption too) and no tree at the root.
			if flat := fs.Exists(vfs.Join("db", "MANIFEST")); flat != (tc.want == 1) {
				t.Fatalf("root MANIFEST present = %v with %d shards", flat, tc.want)
			}
			if n, err := readDescriptor(fs, "db"); (err == nil) != (tc.want > 1) || (err == nil && n != tc.want) {
				t.Fatalf("descriptor = %d, %v with %d shards", n, err, tc.want)
			}
			if tc.dir == "fresh" {
				return
			}
			for i := 0; i < keys; i++ {
				v, err := s.Get([]byte(fmt.Sprintf("k%03d", i)))
				if err != nil || string(v) != fmt.Sprintf("v%03d", i) {
					t.Fatalf("get k%03d: %q %v", i, v, err)
				}
			}
		})
	}
}

// FuzzDecodeDescriptor: the decoder never panics, accepts exactly the
// encodings of valid counts, and round-trips them.
func FuzzDecodeDescriptor(f *testing.F) {
	for _, n := range []int{0, 1, 2, 3, 255, 256, maxShards, maxShards + 1} {
		f.Add(encodeDescriptor(n))
	}
	f.Add([]byte(nil))
	f.Add([]byte(descriptorMagic))
	f.Add(append(encodeDescriptor(2), 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		n, err := decodeDescriptor(data)
		if err != nil {
			return
		}
		if n < 2 || n > maxShards {
			t.Fatalf("accepted count %d", n)
		}
		if !bytes.Equal(encodeDescriptor(n), data) {
			t.Fatalf("accepted %x, which is not the encoding of %d", data, n)
		}
	})
}

func TestDescriptorRoundTrip(t *testing.T) {
	for _, n := range []int{2, 3, 4, 1000, maxShards} {
		if got, err := decodeDescriptor(encodeDescriptor(n)); err != nil || got != n {
			t.Errorf("round trip of %d: %d, %v", n, got, err)
		}
	}
	for _, n := range []int{0, 1, maxShards + 1} {
		if _, err := decodeDescriptor(encodeDescriptor(n)); err == nil {
			t.Errorf("count %d accepted", n)
		}
	}
}

// TestCheckpointReopensAsWhatItWas: a checkpoint of N shards reopens
// with Open(ckpt, 0) as N shards holding every key, and a one-shard
// checkpoint is a flat directory core.Open accepts.
func TestCheckpointReopensAsWhatItWas(t *testing.T) {
	for _, n := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			s, opts := testStore(t, n)
			want := map[string]string{}
			for i := 0; i < 400; i++ {
				k, v := fmt.Sprintf("k%04d", i), fmt.Sprintf("v%d", i)
				if err := s.Put([]byte(k), []byte(v)); err != nil {
					t.Fatal(err)
				}
				want[k] = v
			}
			if err := s.Checkpoint("ckpt"); err != nil {
				t.Fatal(err)
			}
			if n > 1 {
				if err := s.Checkpoint("ckpt"); err == nil {
					t.Fatal("a second checkpoint into the same directory was accepted")
				}
			}
			copts := opts
			copts.Path = "ckpt"
			if n == 1 {
				db, err := core.Open(copts)
				if err != nil {
					t.Fatalf("core.Open on a one-shard checkpoint: %v", err)
				}
				db.Close()
			}
			c, err := Open(copts, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if c.NumShards() != n {
				t.Fatalf("checkpoint reopened with %d shards, want %d", c.NumShards(), n)
			}
			kvs, err := c.Scan(nil, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(kvs) != len(want) {
				t.Fatalf("checkpoint holds %d keys, want %d", len(kvs), len(want))
			}
			for _, kvp := range kvs {
				if want[string(kvp.Key)] != string(kvp.Value) {
					t.Fatalf("checkpoint %s = %s, want %s", kvp.Key, kvp.Value, want[string(kvp.Key)])
				}
			}
		})
	}
}

// hotStore is core's hotDB behind a one-shard store: keys resident in
// the memtable and keys in a warm L0 table.
func hotStore(tb testing.TB) (s *Store, memKey, sstKey []byte) {
	tb.Helper()
	s, err := Open(core.DefaultOptions(vfs.NewMem(), "db"), 1)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Close() })
	val := make([]byte, 100)
	for i := 0; i < 2000; i++ {
		if err := s.Put([]byte(fmt.Sprintf("sst%06d", i)), val); err != nil {
			tb.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := s.Put([]byte(fmt.Sprintf("mem%06d", i)), val); err != nil {
			tb.Fatal(err)
		}
	}
	memKey, sstKey = []byte("mem000100"), []byte("sst001000")
	// Warm the cache and the profiler's sampled tables (see core's hotDB).
	for i := 0; i < 128; i++ {
		s.Get(memKey)
		s.Get(sstKey)
	}
	return s, memKey, sstKey
}

// TestOneShardIsFree pins what "the single tree is the one-shard store"
// costs: nothing. Get allocates nothing, the range iterator is the
// shard's own, and the view has no per-shard rows.
func TestOneShardIsFree(t *testing.T) {
	s, memKey, sstKey := hotStore(t)
	if it, err := s.NewRangeIter(nil, nil); err != nil {
		t.Fatal(err)
	} else {
		if _, own := it.(*core.Iterator); !own {
			t.Errorf("NewRangeIter on one shard returned %T, want the shard's *core.Iterator", it)
		}
		it.Close()
	}
	if st := s.Stats(); st.Shards != nil {
		t.Errorf("one-shard view carries %d shard rows", len(st.Shards))
	}
	if vec := s.SeqVector(); len(vec) != 1 || vec[0] != s.Partition(0).VisibleSeq() {
		t.Errorf("SeqVector = %v, want the shard's watermark", vec)
	}
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	for name, key := range map[string][]byte{"memtable": memKey, "sst-warm": sstKey, "not-found": []byte("zzz-absent")} {
		if n := testing.AllocsPerRun(500, func() { s.Get(key) }); n != 0 {
			t.Errorf("%s Get on a one-shard store allocates %.1f allocs/op, want 0", name, n)
		}
	}
}

// BenchmarkGetHotOneShard is core's BenchmarkGetHot through a one-shard
// store, for comparing the two side by side.
func BenchmarkGetHotOneShard(b *testing.B) {
	s, memKey, sstKey := hotStore(b)
	for _, p := range []struct {
		name string
		key  []byte
	}{{"memtable", memKey}, {"sst-warm", sstKey}, {"not-found", []byte("zzz-absent")}} {
		b.Run(p.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.Get(p.key)
			}
		})
	}
}
