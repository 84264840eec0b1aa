package core

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"lsmlab/internal/manifest"
	"lsmlab/internal/vfs"
)

// scanDB builds a tree whose every table and its memtable overlap one
// key range: keys k%3 == t go to table t, then every key gets a newer
// version in the memtable only for the first few hundred keys.
func scanDB(tb testing.TB) *DB {
	tb.Helper()
	db, err := Open(DefaultOptions(vfs.NewMem(), "db"))
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { db.Close() })
	val := make([]byte, 100)
	for table := 0; table < 3; table++ {
		for i := table; i < 3000; i += 3 {
			if err := db.Put([]byte(fmt.Sprintf("key%06d", i)), val); err != nil {
				tb.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i < 300; i++ {
		if err := db.Put([]byte(fmt.Sprintf("key%06d", i*7)), val); err != nil {
			tb.Fatal(err)
		}
	}
	db.WaitIdle()
	if n := db.state.Load().version.TotalFiles(); n < 3 {
		tb.Fatalf("tree holds %d tables, want at least 3", n)
	}
	return db
}

// TestScanAllocs pins the allocation budget of a warmed 50-entry scan
// over a memtable and three tables: the iterator handle, the memtable
// cursor, the result slice and its one buffer. The pooled iterator
// stack (table cursors, merge heap, buffers) must cost nothing.
func TestScanAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	db := scanDB(t)
	start, end := []byte("key001000"), []byte("key002000")
	scan := func() {
		kvs, err := db.Scan(start, end, 50)
		if err != nil || len(kvs) != 50 {
			t.Fatalf("scan: %d entries, %v", len(kvs), err)
		}
	}
	for i := 0; i < 64; i++ {
		scan()
	}
	n := testing.AllocsPerRun(200, scan)
	t.Logf("%.1f allocs per 50-entry scan", n)
	if n > 6 {
		t.Errorf("50-entry scan allocates %.1f times, want at most 6", n)
	}
}

// TestScanResultsDoNotAlias checks that the one buffer behind a scan's
// results cannot be written through: growing one key or value must
// reallocate it, not overwrite its neighbour.
func TestScanResultsDoNotAlias(t *testing.T) {
	db := scanDB(t)
	kvs, err := db.Scan([]byte("key000100"), nil, 10)
	if err != nil || len(kvs) != 10 {
		t.Fatalf("scan: %d entries, %v", len(kvs), err)
	}
	want := make([]KV, len(kvs))
	for i, e := range kvs {
		want[i] = KV{Key: cp(e.Key), Value: cp(e.Value)}
	}
	for i := 0; i+1 < len(kvs); i++ {
		_ = append(kvs[i].Key, "XXXXXXXX"...)
		_ = append(kvs[i].Value, "YYYYYYYY"...)
		if !bytes.Equal(kvs[i+1].Key, want[i+1].Key) || !bytes.Equal(kvs[i+1].Value, want[i+1].Value) {
			t.Fatalf("append to entry %d changed entry %d to %q=%q", i, i+1, kvs[i+1].Key, kvs[i+1].Value)
		}
	}
}

// sliceIter is a RangeIter over fixed entries that allocates nothing,
// so a test can measure what Collect itself allocates.
type sliceIter struct {
	kvs []KV
	i   int
}

func (s *sliceIter) First() bool   { s.i = 0; return len(s.kvs) > 0 }
func (s *sliceIter) Next() bool    { s.i++; return s.i < len(s.kvs) }
func (s *sliceIter) Key() []byte   { return s.kvs[s.i].Key }
func (s *sliceIter) Value() []byte { return s.kvs[s.i].Value }
func (s *sliceIter) Err() error    { return nil }
func (s *sliceIter) Close() error  { return nil }

// TestCollectAllocBoundedByBytes feeds Collect mixed entry sizes — tiny
// entries around a large value, and a large first entry — and checks
// that the bytes it allocates stay within a small multiple of the bytes
// it returns: its buffer may be sized ahead by entry count only while
// that stays small in bytes.
func TestCollectAllocBoundedByBytes(t *testing.T) {
	tiny := func(i int) KV { return KV{Key: []byte(fmt.Sprintf("k%03d", i)), Value: []byte("v0123456")} }
	big := KV{Key: []byte("big"), Value: bytes.Repeat([]byte{'x'}, 1<<20)}
	var around []KV
	for i := 0; i < 20; i++ {
		around = append(around, tiny(i))
	}
	around = append(around, big)
	for i := 20; i < 40; i++ {
		around = append(around, tiny(i))
	}
	bigFirst := []KV{{Key: []byte("big"), Value: bytes.Repeat([]byte{'x'}, 256<<10)}}
	for i := 0; i < 40; i++ {
		bigFirst = append(bigFirst, tiny(i))
	}
	for _, tc := range []struct {
		name  string
		kvs   []KV
		limit int
	}{
		{"around/limit0", around, 0},
		{"around/limit100", around, 100},
		{"around/limit1000", around, 1000},
		{"bigFirst/limit100", bigFirst, 100},
		{"bigFirst/limit0", bigFirst, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			it := &sliceIter{kvs: tc.kvs}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			got, err := Collect(it, tc.limit)
			runtime.ReadMemStats(&after)
			if err != nil || len(got) != len(tc.kvs) {
				t.Fatalf("collect: %d of %d entries, %v", len(got), len(tc.kvs), err)
			}
			returned := 0
			for i, e := range got {
				if !bytes.Equal(e.Key, tc.kvs[i].Key) || !bytes.Equal(e.Value, tc.kvs[i].Value) {
					t.Fatalf("entry %d differs", i)
				}
				returned += len(e.Key) + len(e.Value)
			}
			alloc := after.TotalAlloc - before.TotalAlloc
			t.Logf("returned %d bytes, allocated %d", returned, alloc)
			if limit := uint64(4*returned + 64<<10); alloc > limit {
				t.Errorf("allocated %d bytes for %d returned, want at most %d", alloc, returned, limit)
			}
		})
	}
}

// TestIteratorUseAfterClose closes a handle twice and calls it after
// Close while another scan owns the stack it returned: neither may
// touch that stack.
func TestIteratorUseAfterClose(t *testing.T) {
	db := scanDB(t)
	it, err := db.NewIterator(IterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !it.First() {
		t.Fatal("empty iterator")
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	if err := it.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	other, err := db.NewIterator(IterOptions{LowerBound: []byte("key002000")})
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	if !other.First() {
		t.Fatal("empty iterator")
	}
	if it.Next() || it.First() || it.SeekGE([]byte("key")) || it.Valid() {
		t.Error("closed iterator still positions")
	}
	if it.Key() != nil || it.Value() != nil {
		t.Errorf("closed iterator returns %q=%q", it.Key(), it.Value())
	}
	if got := string(other.Key()); got != "key002000" {
		t.Errorf("live iterator moved to %q after calls on a closed one", got)
	}
}

// TestNewIteratorOpenFailureReturnsCleanStack makes a table fail to
// open while NewIterator builds its stack: the half-built stack must go
// back to the pool empty, the read state must be unpinned, and the next
// scan must be right.
func TestNewIteratorOpenFailureReturnsCleanStack(t *testing.T) {
	fs := vfs.NewMem()
	opts := DefaultOptions(fs, "db")
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if err := db.Put([]byte(fmt.Sprintf("key%06d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if i%100 == 99 {
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	db.WaitIdle()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen: readers open on first touch, so the damage is seen by the
	// first iterator. Move away the table NewIterator opens last, so the
	// cursors of the others are already set up when it fails.
	if db, err = Open(opts); err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	var last uint64
	tables := 0
	for _, level := range db.state.Load().version.Levels {
		for _, run := range level.Runs {
			for _, f := range run.Files {
				last = f.Num
				tables++
			}
		}
	}
	if tables < 2 {
		t.Fatalf("tree holds %d tables, want at least 2", tables)
	}
	name := vfs.Join("db", manifest.FileName(last))
	if err := fs.Rename(name, name+".away"); err != nil {
		t.Fatal(err)
	}
	refs := db.state.Load().refs.Load()
	if it, err := db.NewIterator(IterOptions{}); err == nil {
		it.Close()
		t.Fatal("NewIterator succeeded over a missing table")
	}
	if got := db.state.Load().refs.Load(); got != refs {
		t.Errorf("read state refs %d after the failed open, want %d", got, refs)
	}
	if s, _ := db.iterStacks.Get().(*iterStack); s != nil {
		if len(s.sources) != 0 || len(s.rangeTs) != 0 || len(s.sinks) != 0 || len(s.key) != 0 || s.merge.First() {
			t.Errorf("pooled stack not clean: %d sources, %d tombstones, %d sinks, key %q",
				len(s.sources), len(s.rangeTs), len(s.sinks), s.key)
		}
		for i, c := range s.tables {
			if !reflect.ValueOf(c).Elem().FieldByName("r").IsNil() {
				t.Errorf("pooled table cursor %d still holds its reader", i)
			}
		}
		db.iterStacks.Put(s)
	}
	if err := fs.Rename(name+".away", name); err != nil {
		t.Fatal(err)
	}
	kvs, err := db.Scan(nil, nil, 0)
	if err != nil || len(kvs) != 300 {
		t.Fatalf("scan after repair: %d entries, %v", len(kvs), err)
	}
	for i, e := range kvs {
		if want := fmt.Sprintf("key%06d", i); string(e.Key) != want || string(e.Value) != "v" {
			t.Fatalf("entry %d = %q=%q, want %s=v", i, e.Key, e.Value, want)
		}
	}
}

// TestScansAgainstFlushCompactionStorm runs 8 scanners against
// continuous overwrites, flushes and compactions. Every scan checks
// its result against the model — every key in range, in order, each
// value a round no older than the one acknowledged when the scan began
// — so a stack shared by two scans, or a cursor left pointing at a
// dead table, shows up as a wrong entry.
func TestScansAgainstFlushCompactionStorm(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	db, _ := testDB(t, func(o *Options) { o.BufferBytes = 2 << 10; o.Workers = 2 })
	const keys = 200
	var lo, hi [keys]atomic.Int64
	key := func(k int) []byte { return []byte(fmt.Sprintf("k%03d", k)) }
	write := func(round int64) error {
		for k := 0; k < keys; k++ {
			hi[k].Store(round)
			if err := db.Put(key(k), []byte(strconv.FormatInt(round, 10))); err != nil {
				return err
			}
			lo[k].Store(round)
		}
		return nil
	}
	if err := write(0); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	stopped := func() bool {
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}
	var bg, readers sync.WaitGroup
	var nScan, nCompact atomic.Int64
	bg.Add(1)
	go func() {
		defer bg.Done()
		for !stopped() {
			nCompact.Add(1)
			if err := db.Compact(); err != nil {
				t.Errorf("compact: %v", err)
				return
			}
		}
	}()
	for g := 0; g < 8; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			for i := 0; !stopped(); i++ {
				nScan.Add(1)
				first, limit := (g*31+i*17)%keys, 1+(g+i)%60
				var floor [keys]int64
				for k := range floor {
					floor[k] = lo[k].Load()
				}
				kvs, err := db.Scan(key(first), nil, limit)
				if err != nil {
					t.Errorf("scan: %v", err)
					return
				}
				if want := min(limit, keys-first); len(kvs) != want {
					t.Errorf("scan from %d limit %d: %d entries, want %d", first, limit, len(kvs), want)
					return
				}
				for j, e := range kvs {
					k := first + j
					r, err := strconv.ParseInt(string(e.Value), 10, 64)
					if string(e.Key) != string(key(k)) || err != nil || r < floor[k] || r > hi[k].Load() {
						t.Errorf("scan from %d position %d: %q=%q, want %s at a round in [%d, %d]",
							first, j, e.Key, e.Value, key(k), floor[k], hi[k].Load())
						return
					}
				}
			}
		}(g)
	}
	for round := int64(1); nScan.Load() < 400 || nCompact.Load() < 5; round++ {
		if t.Failed() || round == 20000 {
			t.Errorf("stopped at round %d: scans=%d compactions=%d", round, nScan.Load(), nCompact.Load())
			break
		}
		if err := write(round); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	readers.Wait()
	bg.Wait()
}

// TestReadsAgainstStormSmallCache runs gets and scans from eight
// goroutines under a flush and compaction storm, on a block cache about
// 5 % of the live data, so most blocks are refused admission and read
// into the readers' own buffers (pooled get scratch, pooled table
// cursors, compaction inputs). Every value must be whole and of a round
// the key was written in while the read ran.
func TestReadsAgainstStormSmallCache(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const keys = 1200
	db, _ := testDB(t, func(o *Options) {
		o.BlockSize = 256
		o.CacheBytes = 10 << 10
		o.Workers = 2
	})
	var lo, hi [keys]atomic.Int64
	key := func(k int) []byte { return []byte(fmt.Sprintf("k%04d", k)) }
	value := func(k int, round int64) []byte {
		return []byte(fmt.Sprintf("%d|%s", round, bytes.Repeat(key(k), 30)))
	}
	// check reports whether v is key k's value of a round in [floor, hi].
	check := func(k int, v []byte, floor int64) bool {
		r, rest, ok := bytes.Cut(v, []byte("|"))
		round, err := strconv.ParseInt(string(r), 10, 64)
		return ok && err == nil && round >= floor && round <= hi[k].Load() &&
			bytes.Equal(rest, bytes.Repeat(key(k), 30))
	}
	write := func(round int64) error {
		for k := 0; k < keys; k++ {
			hi[k].Store(round)
			if err := db.Put(key(k), value(k, round)); err != nil {
				return err
			}
			lo[k].Store(round)
		}
		return nil
	}
	if err := write(0); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	stopped := func() bool {
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}
	var bg, readers sync.WaitGroup
	var nRead, nCompact atomic.Int64
	bg.Add(1)
	go func() {
		defer bg.Done()
		for !stopped() {
			nCompact.Add(1)
			if err := db.Compact(); err != nil {
				t.Errorf("compact: %v", err)
				return
			}
		}
	}()
	for g := 0; g < 8; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			for i := 0; !stopped(); i++ {
				nRead.Add(1)
				first := (g*131 + i*17) % keys
				if g%2 == 0 { // getters
					floor := lo[first].Load()
					v, err := db.Get(key(first))
					if err != nil || !check(first, v, floor) {
						t.Errorf("get %s = %.20q…, %v; want a round in [%d, %d]", key(first), v, err, floor, hi[first].Load())
						return
					}
					continue
				}
				limit := 1 + (g+i)%80
				var floor [keys]int64
				for k := range floor {
					floor[k] = lo[k].Load()
				}
				kvs, err := db.Scan(key(first), nil, limit)
				if err != nil || len(kvs) != min(limit, keys-first) {
					t.Errorf("scan from %d limit %d: %d entries, %v", first, limit, len(kvs), err)
					return
				}
				for j, e := range kvs {
					if k := first + j; string(e.Key) != string(key(k)) || !check(k, e.Value, floor[k]) {
						t.Errorf("scan from %d position %d: %q=%.20q…, want %s at a round in [%d, %d]",
							first, j, e.Key, e.Value, key(k), floor[k], hi[k].Load())
						return
					}
				}
			}
		}(g)
	}
	for round := int64(1); nRead.Load() < 4000 || nCompact.Load() < 5; round++ {
		if t.Failed() || round == 2000 {
			t.Errorf("stopped at round %d: reads=%d compactions=%d", round, nRead.Load(), nCompact.Load())
			break
		}
		if err := write(round); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	readers.Wait()
	bg.Wait()
	if live := db.state.Load().version.TotalSize(); uint64(db.opts.CacheBytes)*10 > live {
		t.Errorf("cache %d B for %d B of tables: want at most a tenth", db.opts.CacheBytes, live)
	}
}
