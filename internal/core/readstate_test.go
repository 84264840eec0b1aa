package core

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lsmlab/internal/manifest"
	"lsmlab/internal/sstable"
	"lsmlab/internal/trace"
	"lsmlab/internal/vfs"
	"lsmlab/internal/vfs/faultfs"
)

// removeOnceFS fails the test when a table file is removed twice: a
// pinned table must die exactly once, at its last unpin.
type removeOnceFS struct {
	vfs.FS
	t       *testing.T
	mu      sync.Mutex
	removed map[string]bool
}

func (fs *removeOnceFS) Remove(name string) error {
	if strings.HasSuffix(name, ".sst") {
		fs.mu.Lock()
		if fs.removed[name] {
			fs.t.Errorf("%s removed twice", name)
		}
		fs.removed[name] = true
		fs.mu.Unlock()
	}
	return fs.FS.Remove(name)
}

// sstOnDisk lists the table files in the store directory.
func sstOnDisk(t *testing.T, fs vfs.FS) map[uint64]bool {
	t.Helper()
	names, err := fs.List("db")
	if err != nil {
		t.Fatal(err)
	}
	out := map[uint64]bool{}
	for _, name := range names {
		if num, err := strconv.ParseUint(strings.TrimSuffix(name, ".sst"), 10, 64); err == nil && strings.HasSuffix(name, ".sst") {
			out[num] = true
		}
	}
	return out
}

func scanAll(it *Iterator) map[string]string {
	got := map[string]string{}
	for ok := it.First(); ok; ok = it.Next() {
		got[string(it.Key())] = string(it.Value())
	}
	return got
}

// TestReadsNeverTakeDBMu pins the read path's independence from the
// engine lock: with db.mu held by the test, every kind of read still
// completes.
func TestReadsNeverTakeDBMu(t *testing.T) {
	tr := trace.New(trace.Options{SampleEvery: 1, RingSize: 64, Seed: 1})
	db, _ := testDB(t, func(o *Options) { o.Tracer = tr })
	for i := 0; i < 200; i++ {
		if err := db.Put([]byte(fmt.Sprintf("disk%03d", i)), []byte("d")); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.Put([]byte("mem"), []byte("m")); err != nil {
		t.Fatal(err)
	}

	db.mu.Lock()
	defer db.mu.Unlock()
	done := make(chan error, 1)
	go func() {
		done <- func() error {
			for key, want := range map[string]string{"mem": "m", "disk007": "d", "absent": ""} {
				v, err := db.Get([]byte(key))
				if want == "" && !errors.Is(err, ErrNotFound) || want != "" && (err != nil || string(v) != want) {
					return fmt.Errorf("get %s = %q, %v", key, v, err)
				}
			}
			if v, err := db.GetTraced([]byte("disk199"), 77); err != nil || string(v) != "d" {
				return fmt.Errorf("traced get = %q, %v", v, err)
			}
			it, err := db.NewIterator(IterOptions{})
			if err != nil {
				return err
			}
			if n := len(scanAll(it)); n != 201 {
				return fmt.Errorf("scan saw %d keys, want 201", n)
			}
			return it.Close()
		}()
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a read blocked on db.mu")
	}
}

// holdSyncFS holds the next Sync of a manifest file once a gate is set:
// the syncing goroutine reports on held and waits for the gate to close.
type holdSyncFS struct {
	vfs.FS
	held chan struct{}
	gate atomic.Pointer[chan struct{}]
}

type holdSyncFile struct {
	vfs.File
	fs *holdSyncFS
}

func (fs *holdSyncFS) Create(name string) (vfs.File, error) { return fs.wrap(name, fs.FS.Create) }
func (fs *holdSyncFS) Append(name string) (vfs.File, error) { return fs.wrap(name, fs.FS.Append) }

func (fs *holdSyncFS) wrap(name string, open func(string) (vfs.File, error)) (vfs.File, error) {
	f, err := open(name)
	if err != nil || !strings.HasPrefix(vfs.Base(name), "MANIFEST") {
		return f, err
	}
	return &holdSyncFile{File: f, fs: fs}, nil
}

func (f *holdSyncFile) Sync() error {
	if gate := f.fs.gate.Swap(nil); gate != nil {
		f.fs.held <- struct{}{}
		<-*gate
	}
	return f.File.Sync()
}

// TestInstallNeverHoldsDBMuAcrossManifestIO holds the manifest sync of a
// flush, then of a compaction, then of a scrub quarantine. While each is
// held, a write, a snapshot, a health probe and a read must all return:
// an install commits with db.mu released.
func TestInstallNeverHoldsDBMuAcrossManifestIO(t *testing.T) {
	ffs := faultfs.New(vfs.NewMem(), 1)
	fs := &holdSyncFS{FS: ffs, held: make(chan struct{}, 1)}
	db, _ := testDB(t, func(o *Options) { o.FS = fs })
	putFlush := func(prefix string) error {
		for i := 0; i < 50; i++ {
			if err := db.Put([]byte(fmt.Sprintf("%s%03d", prefix, i)), make([]byte, 50)); err != nil {
				return err
			}
		}
		return db.Flush()
	}
	if err := putFlush("a"); err != nil {
		t.Fatal(err)
	}
	within := func(what string, ch <-chan error) {
		t.Helper()
		select {
		case err := <-ch:
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s did not return within 10s", what)
		}
	}
	for _, phase := range []struct {
		name, frame string
		op          func() error
	}{
		{"flush", "(*DB).doFlush", func() error { return putFlush("b") }},
		{"compaction", "(*DB).compactPinned", db.Compact},
		{"quarantine", "(*DB).quarantineTable", func() error {
			for num := range db.Version().LiveFileNums() {
				if err := ffs.FlipBit(vfs.Join("db", manifest.FileName(num)), 8*64+3); err != nil {
					return err
				}
				break
			}
			rep, err := db.Scrub()
			if err == nil && (len(rep.Findings) != 1 || !rep.Findings[0].Quarantined) {
				err = fmt.Errorf("scrub = %s, want one quarantined finding", rep)
			}
			return err
		}},
	} {
		if err := db.Flush(); err != nil { // the last phase's probe put
			t.Fatal(err)
		}
		gate := make(chan struct{})
		var once sync.Once
		release := func() { once.Do(func() { close(gate) }) }
		t.Cleanup(release) // before db.Close, should the test fail while holding
		fs.gate.Store(&gate)
		opDone := make(chan error, 1)
		go func() { opDone <- phase.op() }()
		select {
		case <-fs.held:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s reached no manifest sync within 10s", phase.name)
		}
		if !goroutineBlockedIn("(*holdSyncFile).Sync", phase.frame) {
			t.Fatalf("the held manifest sync is not %s's", phase.frame)
		}
		probes := make(chan error, 1)
		go func() {
			probes <- func() error {
				key := []byte("during-" + phase.name)
				if err := db.Put(key, []byte("x")); err != nil {
					return err
				}
				db.NewSnapshot().Release()
				if h := db.Health(); h.Degraded {
					return fmt.Errorf("degraded: %+v", h)
				}
				if v, err := db.Get(key); err != nil || string(v) != "x" {
					return fmt.Errorf("get = %q, %v", v, err)
				}
				return nil
			}()
		}()
		within("put, snapshot, health and get behind a held "+phase.name+" sync", probes)
		release()
		within(phase.name, opDone)
	}
}

// TestIteratorPinsObsoleteTables opens an iterator, makes every table it
// reads obsolete, and checks the files outlive the compactions, the
// iterator still yields the pre-compaction contents, and its Close
// leaves exactly the live version's files — also when the store is
// closed under the open iterator.
func TestIteratorPinsObsoleteTables(t *testing.T) {
	for _, closeStoreFirst := range []bool{false, true} {
		t.Run(fmt.Sprintf("closeStoreFirst=%v", closeStoreFirst), func(t *testing.T) {
			fs := &removeOnceFS{FS: vfs.NewMem(), t: t, removed: map[string]bool{}}
			db, _ := testDB(t, func(o *Options) { o.FS = fs })
			want := map[string]string{}
			for i := 0; i < 600; i++ {
				k, v := fmt.Sprintf("k%04d", i), fmt.Sprintf("old-%0100d", i)
				if err := db.Put([]byte(k), []byte(v)); err != nil {
					t.Fatal(err)
				}
				want[k] = v
			}
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
			it, err := db.NewIterator(IterOptions{})
			if err != nil {
				t.Fatal(err)
			}
			pinned := db.Version().LiveFileNums()
			if len(pinned) < 2 {
				t.Fatalf("want several pinned tables, have %d", len(pinned))
			}

			stillLive := func() bool {
				for num := range db.Version().LiveFileNums() {
					if pinned[num] {
						return true
					}
				}
				return false
			}
			for round := 0; stillLive(); round++ {
				if round == 10 {
					t.Fatal("pinned tables never became obsolete")
				}
				for k := range want {
					if err := db.Put([]byte(k), []byte(fmt.Sprintf("new-%d", round))); err != nil {
						t.Fatal(err)
					}
				}
				if err := db.Compact(); err != nil {
					t.Fatal(err)
				}
			}
			onDisk := sstOnDisk(t, fs)
			for num := range pinned {
				if !onDisk[num] {
					t.Fatalf("table %d deleted while an iterator pins it", num)
				}
			}
			if closeStoreFirst {
				if err := db.Close(); err != nil {
					t.Fatal(err)
				}
			}
			if got := scanAll(it); !reflect.DeepEqual(got, want) {
				t.Fatalf("pinned iterator saw %d entries, want the %d pre-compaction ones", len(got), len(want))
			}
			if err := it.Close(); err != nil {
				t.Fatal(err)
			}
			if onDisk, live := sstOnDisk(t, fs), db.Version().LiveFileNums(); !reflect.DeepEqual(onDisk, live) {
				t.Fatalf("after the last unpin the directory holds %v, the live version %v", onDisk, live)
			}
		})
	}
}

// TestReadersAgainstInstallStorm runs two scanners and a point reader on
// one scheduler thread against back-to-back flushes and full
// compactions — every version they pin is obsolete almost at once — and
// checks each result against per-key bounds kept by the writer.
func TestReadersAgainstInstallStorm(t *testing.T) {
	db, _ := testDB(t, func(o *Options) { o.BufferBytes = 2 << 10; o.Workers = 2 })
	readersAgainstInstallStorm(t, db)
}

// TestReadersAgainstInstallStormOSFS runs the storm on a real
// directory, where each table reader reads through a mapping
// (vfs.Mapped) that its Close unmaps: a table closed while a pinned read state can
// still reach it reads os.ErrClosed or faults, and a reader reports it.
// With no block cache every block read goes to the mapping.
func TestReadersAgainstInstallStormOSFS(t *testing.T) {
	dir := t.TempDir()
	db, _ := testDB(t, func(o *Options) {
		o.FS, o.Path = vfs.NewOS(), dir
		o.CacheBytes = 0
		o.BufferBytes = 2 << 10
		o.Workers = 2
	})
	readersAgainstInstallStorm(t, db)
}

func readersAgainstInstallStorm(t *testing.T, db *DB) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const keys = 120
	// lo[k] is the last acknowledged round of key k, hi[k] the last
	// started one: a read that began after lo and ended before hi were
	// sampled must return a round in [lo, hi].
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
	var bg, readers sync.WaitGroup
	var nGet, nScan, nCompact atomic.Int64
	fail := t.Errorf
	inBounds := func(k int, v []byte, floor int64) bool {
		r, err := strconv.ParseInt(string(v), 10, 64)
		return err == nil && floor <= r && r <= hi[k].Load()
	}
	stopped := func() bool {
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}
	bg.Add(1)
	go func() { // compaction storm
		defer bg.Done()
		for !stopped() {
			nCompact.Add(1)
			if err := db.Compact(); err != nil {
				fail("compact: %v", err)
				return
			}
		}
	}()
	readers.Add(3)
	go func() { // point reader
		defer readers.Done()
		for k := 0; !stopped(); k = (k + 7) % keys {
			nGet.Add(1)
			floor := lo[k].Load()
			v, err := db.Get(key(k))
			if err != nil || !inBounds(k, v, floor) {
				fail("get k%03d = %q, %v; want a round in [%d, %d]", k, v, err, floor, hi[k].Load())
				return
			}
		}
	}()
	for s := 0; s < 2; s++ {
		go func() { // scanner
			defer readers.Done()
			for !stopped() {
				nScan.Add(1)
				var floor [keys]int64
				for k := range floor {
					floor[k] = lo[k].Load()
				}
				it, err := db.NewIterator(IterOptions{})
				if err != nil {
					fail("new iterator: %v", err)
					return
				}
				k := 0
				for ok := it.First(); ok; ok = it.Next() {
					if k == keys || string(it.Key()) != string(key(k)) || !inBounds(k, it.Value(), floor[k]) {
						fail("scan position %d: %q = %q, floor %d", k, it.Key(), it.Value(), floor[k%keys])
						break
					}
					k++
				}
				if err := it.Close(); err != nil || k != keys {
					fail("scan ended after %d of %d keys: %v", k, keys, err)
					return
				}
			}
		}()
	}
	// Keep writing until every actor has had its share of the one thread.
	for round := int64(1); nGet.Load() < 500 || nScan.Load() < 30 || nCompact.Load() < 5; round++ {
		if t.Failed() || round == 20000 {
			t.Errorf("stopped at round %d: gets=%d scans=%d compactions=%d", round, nGet.Load(), nScan.Load(), nCompact.Load())
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

// TestQuarantineUnderPinnedIterator quarantines a corrupt table while
// an iterator pins it: the iterator finishes or reports the corruption,
// and its unpin neither deletes the renamed evidence nor anything else
// twice.
func TestQuarantineUnderPinnedIterator(t *testing.T) {
	base := vfs.NewMem()
	ffs := faultfs.New(base, 7)
	fs := &removeOnceFS{FS: ffs, t: t, removed: map[string]bool{}}
	db, _ := testDB(t, func(o *Options) { o.FS = fs })
	for i := 0; i < 300; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%03d", i)), make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	var victim uint64
	for num := range db.Version().LiveFileNums() {
		victim = num
		break
	}
	name := vfs.Join("db", manifest.FileName(victim))
	if err := ffs.FlipBit(name, 8*64+3); err != nil { // inside the first data block
		t.Fatal(err)
	}
	it, err := db.NewIterator(IterOptions{}) // opens, and so pins, the flipped table
	if err != nil {
		t.Fatal(err)
	}
	rep, err := db.Scrub()
	if err != nil || len(rep.Findings) != 1 || !rep.Findings[0].Quarantined {
		t.Fatalf("scrub = %s, %v; want one quarantined finding", rep, err)
	}
	scanAll(it)
	if err := it.Close(); err != nil && !errors.Is(err, sstable.ErrCorrupt) {
		t.Fatalf("pinned iterator failed with %v, want success or ErrCorrupt", err)
	}
	if !base.Exists(name + ".corrupt") {
		t.Fatal("the last unpin deleted the quarantined evidence")
	}
	if onDisk, live := sstOnDisk(t, fs), db.Version().LiveFileNums(); !reflect.DeepEqual(onDisk, live) {
		t.Fatalf("after the last unpin the directory holds %v, the live version %v", onDisk, live)
	}
}

// TestFailedCommitDeletesNothing fails the manifest commit of a
// compaction: the manifest may hold either version afterwards, so both
// the inputs and the outputs must still be on disk.
func TestFailedCommitDeletesNothing(t *testing.T) {
	ffs := faultfs.New(vfs.NewMem(), 3)
	db, _ := testDB(t, func(o *Options) { o.FS = ffs; o.MaxBackgroundRetries = 1 })
	for i := 0; i < 400; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%03d", i)), make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	inputs := db.Version().LiveFileNums()
	ffs.AddRule(faultfs.Rule{Classes: faultfs.ClassManifest, Ops: faultfs.OpAnyWrite, Countdown: 1, Sticky: true})
	if err := db.Compact(); err == nil {
		t.Fatal("compaction committed through a failing manifest")
	}
	onDisk := sstOnDisk(t, ffs)
	for num := range inputs {
		if !onDisk[num] {
			t.Errorf("input table %d deleted after a failed commit", num)
		}
	}
	for num := range db.Version().LiveFileNums() {
		if !onDisk[num] {
			t.Errorf("output table %d missing after a failed commit", num)
		}
	}
	ffs.ClearRules()
}
