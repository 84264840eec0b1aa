package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"

	"lsmlab/internal/events"
	"lsmlab/internal/manifest"
	"lsmlab/internal/vfs"
	"lsmlab/internal/vfs/faultfs"
	"lsmlab/internal/wisckey"
)

// TestScrubCleanTree checks that a healthy tree scrubs clean and the
// report counts what was actually verified.
func TestScrubCleanTree(t *testing.T) {
	base := vfs.NewMem()
	opts := DefaultOptions(base, "db")
	opts.BufferBytes = 4 << 10
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 40; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%03d", i)), make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	rep, err := db.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Findings) != 0 {
		t.Fatalf("clean tree produced findings: %s", rep)
	}
	if rep.Tables == 0 || rep.TableBytes == 0 {
		t.Fatalf("scrub verified nothing: %s", rep)
	}
	if !rep.ManifestOK {
		t.Fatalf("manifest flagged on a healthy tree: %s", rep)
	}
}

// TestScrubDetectsAndQuarantinesBitFlip is the acceptance scenario: a
// bit flipped at rest in a live sstable must be detected by a scrub,
// the table quarantined (dropped from the version, renamed aside), and
// reads must keep working — returning NotFound for the lost keys, never
// crashing or serving the damage.
func TestScrubDetectsAndQuarantinesBitFlip(t *testing.T) {
	ring := events.NewRing(256)
	base := vfs.NewMem()
	ffs := faultfs.New(base, 42)
	opts := DefaultOptions(ffs, "db")
	opts.BufferBytes = 4 << 10
	opts.EventListener = ring
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 40; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%03d", i)), make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	db.WaitIdle()

	// Flip one bit inside the first data block of a live table.
	live := db.Version().LiveFileNums()
	if len(live) == 0 {
		t.Fatal("no live tables after flush")
	}
	var victim uint64
	for num := range live {
		victim = num
		break
	}
	name := vfs.Join("db", manifest.FileName(victim))
	if err := ffs.FlipBit(name, 8*64+3); err != nil {
		t.Fatal(err)
	}

	rep, err := db.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Findings) != 1 {
		t.Fatalf("findings = %d, want 1: %s", len(rep.Findings), rep)
	}
	f := rep.Findings[0]
	if f.Path != manifest.FileName(victim) || !f.Quarantined {
		t.Fatalf("wrong finding: %+v", f)
	}
	if !base.Exists(name + ".corrupt") {
		t.Fatal("quarantined table not renamed aside")
	}
	if base.Exists(name) {
		t.Fatal("corrupt table still in the live namespace")
	}

	// The version no longer references the table, durably.
	if db.Version().LiveFileNums()[victim] {
		t.Fatal("quarantined table still live in the version")
	}
	if err := db.Version().Check(); err != nil {
		t.Fatalf("version inconsistent after quarantine: %v", err)
	}

	// Reads never crash: each key either resolves or is cleanly gone.
	for i := 0; i < 40; i++ {
		_, err := db.Get([]byte(fmt.Sprintf("k%03d", i)))
		if err != nil && !errors.Is(err, ErrNotFound) {
			t.Fatalf("get k%03d after quarantine: %v", i, err)
		}
	}

	// Surfaces: metrics, stats line, scrub event.
	if m := db.Metrics(); m.ScrubCorruptions != 1 || m.ScrubbedTables == 0 {
		t.Fatalf("scrub metrics off: scrubbed=%d corruptions=%d", m.ScrubbedTables, m.ScrubCorruptions)
	}
	if stats := db.Stats().Text(false); !strings.Contains(stats, "scrub_corruptions=1") {
		t.Fatalf("Stats text misses scrub results:\n%s", stats)
	}
	var scrubEvents int
	for _, e := range ring.Events() {
		if e.Type == events.ScrubEnd {
			scrubEvents++
			if e.InputFiles != 1 {
				t.Fatalf("ScrubEnd findings = %d, want 1", e.InputFiles)
			}
		}
	}
	if scrubEvents != 1 {
		t.Fatalf("ScrubEnd events = %d, want 1", scrubEvents)
	}

	// A second scrub over the quarantined tree is clean.
	rep2, err := db.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.Findings) != 0 {
		t.Fatalf("second scrub still finds damage: %s", rep2)
	}

	// Writes still work (scrub must not degrade the engine), and a
	// restart keeps the quarantined file but never resurrects it.
	if err := db.Put([]byte("post-scrub"), []byte("v")); err != nil {
		t.Fatalf("put after quarantine: %v", err)
	}
}

// TestScrubSurvivesRestart checks the quarantine is durable: after a
// reopen the dropped table stays dropped, the .corrupt file survives
// the orphan sweep, and the store opens without error.
func TestScrubSurvivesRestart(t *testing.T) {
	base := vfs.NewMem()
	ffs := faultfs.New(base, 7)
	opts := DefaultOptions(ffs, "db")
	opts.BufferBytes = 4 << 10
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%03d", i)), make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	db.WaitIdle()
	var victim uint64
	for num := range db.Version().LiveFileNums() {
		victim = num
		break
	}
	if err := ffs.FlipBit(vfs.Join("db", manifest.FileName(victim)), 8*64); err != nil {
		t.Fatal(err)
	}
	if rep, err := db.Scrub(); err != nil || len(rep.Findings) != 1 {
		t.Fatalf("scrub: %v %v", rep, err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("close after scrub: %v", err)
	}

	db2, err := Open(DefaultOptions(base, "db"))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.Version().LiveFileNums()[victim] {
		t.Fatal("quarantined table resurrected by recovery")
	}
	if !base.Exists(vfs.Join("db", manifest.FileName(victim)+".corrupt")) {
		t.Fatal("quarantine evidence deleted by the orphan sweep")
	}
	for i := 0; i < 40; i++ {
		_, err := db2.Get([]byte(fmt.Sprintf("k%03d", i)))
		if err != nil && !errors.Is(err, ErrNotFound) {
			t.Fatalf("get after restart: %v", err)
		}
	}
}

// TestScrubDetectsVlogDamage checks the value-log leg: structural
// damage (a torn record) is reported, attributed to the segment, and
// NOT quarantined — pointers into the log cannot be re-homed.
func TestScrubDetectsVlogDamage(t *testing.T) {
	base := vfs.NewMem()
	opts := DefaultOptions(base, "db")
	opts.BufferBytes = 4 << 10
	opts.ValueSeparationThreshold = 64
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.vlog.SetMaxFileSize(1 << 10)
	for i := 0; i < 20; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%03d", i)), make([]byte, 200)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}

	// Tear the tail off a sealed segment.
	segs := db.vlog.SegmentNums()
	if len(segs) < 2 {
		t.Fatalf("expected rotated segments, got %v", segs)
	}
	name := vfs.Join("db", manifest.VLogName(segs[0]))
	f, err := base.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	size, _ := f.Size()
	buf := make([]byte, size-3)
	f.ReadAt(buf, 0)
	f.Close()
	nf, err := base.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	nf.Write(buf)
	nf.Close()

	rep, err := db.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, fd := range rep.Findings {
		if fd.Path == manifest.VLogName(segs[0]) {
			found = true
			if fd.Quarantined {
				t.Fatal("vlog segments must not be quarantined")
			}
		}
	}
	if !found {
		t.Fatalf("torn vlog segment not reported: %s", rep)
	}
	if rep.VlogSegments != len(segs) {
		t.Fatalf("vlog segments scanned = %d, want %d", rep.VlogSegments, len(segs))
	}
}

// TestScrubRereadsPinnedBlocks: bit rot in the index block of a table
// whose reader is already open — its index pinned in memory since Open —
// is found and quarantined by Scrub, not trusted from the pinned copy.
// Real files, because the damage must reach the open handle.
func TestScrubRereadsPinnedBlocks(t *testing.T) {
	dir := t.TempDir()
	opts := DefaultOptions(vfs.NewOS(), dir)
	opts.BufferBytes = 4 << 10
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 40; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%03d", i)), make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	db.WaitIdle()
	for i := 0; i < 40; i++ { // open every table's reader
		if _, err := db.Get([]byte(fmt.Sprintf("k%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	var victim uint64
	for num := range db.Version().LiveFileNums() {
		victim = num
		break
	}
	path := vfs.Join(dir, manifest.FileName(victim))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The footer's first handle (88 bytes from the end) is the index block.
	index := int64(binary.LittleEndian.Uint64(raw[len(raw)-88:]))
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, err = f.WriteAt([]byte{raw[index+1] ^ 0xff}, index+1)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}

	rep, err := db.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Findings) != 1 || rep.Findings[0].Path != manifest.FileName(victim) || !rep.Findings[0].Quarantined {
		t.Fatalf("scrub after an index-block flip: %s", rep)
	}
}

// TestVlogBitFlipDetected: a bit flipped at rest inside a separated
// value makes Get fail with the value log's ErrCorrupt instead of
// returning the damaged bytes, and Scrub reports the segment.
func TestVlogBitFlipDetected(t *testing.T) {
	base := vfs.NewMem()
	ffs := faultfs.New(base, 5)
	opts := DefaultOptions(ffs, "db")
	opts.ValueSeparationThreshold = 64
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	value := bytes.Repeat([]byte("v"), 200)
	if err := db.Put([]byte("big"), value); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if got, err := db.Get([]byte("big")); err != nil || !bytes.Equal(got, value) {
		t.Fatalf("clean get: %v", err)
	}
	seg := db.vlog.SegmentNums()[0]
	// Frame header, the two length varints (1 and 2 bytes), the key, then
	// 100 bytes into the value.
	if err := ffs.FlipBit(vfs.Join("db", manifest.VLogName(seg)), 8*(8+1+2+3+100)); err != nil {
		t.Fatal(err)
	}
	if got, err := db.Get([]byte("big")); !errors.Is(err, wisckey.ErrCorrupt) {
		t.Fatalf("get of a flipped value = %d bytes, %v; want wisckey.ErrCorrupt", len(got), err)
	}
	rep, err := db.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Findings) != 1 || rep.Findings[0].Path != manifest.VLogName(seg) || rep.Findings[0].Quarantined {
		t.Fatalf("scrub after a value flip: %s", rep)
	}
}

// TestENOSPCMidCompactionDegrades fills the fault budget so a
// background compaction runs out of space partway: the engine must
// degrade with the no-space classification, the version set must stay
// consistent (the half-written outputs never installed), reads keep
// serving, and a restart over a healthy device sweeps the partial
// outputs and loses nothing.
func TestENOSPCMidCompactionDegrades(t *testing.T) {
	base := vfs.NewMem()
	ffs := faultfs.New(base, 11)
	opts := DefaultOptions(ffs, "db")
	opts.BufferBytes = 4 << 10
	opts.Workers = 1
	opts.MaxBackgroundRetries = 1
	opts.Paranoid = true
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}

	model := map[string]bool{}
	put := func(round, i int) {
		k := fmt.Sprintf("r%d-k%03d", round, i)
		if err := db.Put([]byte(k), make([]byte, 100)); err != nil {
			t.Fatalf("put %s: %v", k, err)
		}
		model[k] = true
	}
	// Three clean flushes stack three L0 runs (TieredFirst K0=4).
	for round := 0; round < 3; round++ {
		for i := 0; i < 20; i++ {
			put(round, i)
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	db.WaitIdle()

	// Fourth buffer is written durably first (WAL writes must not eat
	// the budget), then the device runs nearly full: the flush (~3 KiB)
	// fits, the 4-run compaction (~12 KiB) cannot.
	for i := 0; i < 20; i++ {
		put(3, i)
	}
	ffs.SetWriteBudget(8 << 10)
	if err := db.Flush(); err == nil {
		t.Fatal("flush cycle on a nearly-full device must surface an error")
	}
	waitDegraded(t, db)
	h := db.Health()
	if h.Kind != "no-space" {
		t.Fatalf("kind = %s, want no-space (health %+v)", h.Kind, h)
	}
	if h.Op != "compaction" {
		t.Fatalf("op = %s, want compaction (health %+v)", h.Op, h)
	}

	// Version consistency: invariants hold and every live file exists.
	v := db.Version()
	if err := v.Check(); err != nil {
		t.Fatalf("version inconsistent after ENOSPC: %v", err)
	}
	for num := range v.LiveFileNums() {
		if !base.Exists(vfs.Join("db", manifest.FileName(num))) {
			t.Fatalf("live table %06d.sst missing after failed compaction", num)
		}
	}
	// Reads keep serving everything that was acknowledged.
	for k := range model {
		if _, err := db.Get([]byte(k)); err != nil {
			t.Fatalf("key %s unreadable while degraded: %v", k, err)
		}
	}
	db.Close()

	// Restart on a healthy device: partial outputs swept, data intact.
	ffs.SetWriteBudget(-1)
	db2, err := Open(DefaultOptions(base, "db"))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	for k := range model {
		if _, err := db2.Get([]byte(k)); err != nil {
			t.Fatalf("key %s lost across ENOSPC + recovery: %v", k, err)
		}
	}
	live := db2.Version().LiveFileNums()
	names, _ := base.List("db")
	for _, name := range names {
		if vfs.HasSuffix(name, ".sst") {
			var num uint64
			fmt.Sscanf(name, "%06d.sst", &num)
			if !live[num] {
				t.Errorf("orphan table %s survived recovery", name)
			}
		}
	}
}
