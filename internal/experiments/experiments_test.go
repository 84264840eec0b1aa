package experiments

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// smallScale keeps the smoke tests fast; shapes are asserted at full
// scale by the bench harness and EXPERIMENTS.md.
const smallScale = Scale(0.05)

func TestAllExperimentsProduceTables(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			tbl, err := e.Run(smallScale)
			if err != nil {
				t.Fatal(err)
			}
			if tbl.ID != e.ID {
				t.Errorf("table id %q", tbl.ID)
			}
			if len(tbl.Rows) == 0 {
				t.Fatal("no rows")
			}
			for i, r := range tbl.Rows {
				if len(r) != len(tbl.Columns) {
					t.Errorf("row %d has %d cells, want %d", i, len(r), len(tbl.Columns))
				}
			}
			var buf bytes.Buffer
			tbl.Fprint(&buf)
			if !strings.Contains(buf.String(), e.ID) || !strings.Contains(buf.String(), "claim:") {
				t.Error("rendered table missing header")
			}
		})
	}
}

func TestRunByID(t *testing.T) {
	tbl, err := Run("e10", smallScale) // case-insensitive
	if err != nil || tbl.ID != "E10" {
		t.Fatalf("%v %v", tbl, err)
	}
	if _, err := Run("E99", smallScale); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestScaleFloors(t *testing.T) {
	if Scale(0.0001).N(1000) != 100 {
		t.Error("scale floor")
	}
	if Scale(2).N(1000) != 2000 {
		t.Error("scale up")
	}
}

// cell parses a table cell as a float.
func cell(t *testing.T, tbl *Table, row int, col string) float64 {
	t.Helper()
	for i, c := range tbl.Columns {
		if c == col {
			v, err := strconv.ParseFloat(tbl.Rows[row][i], 64)
			if err != nil {
				t.Fatalf("cell %s[%d] = %q: %v", col, row, tbl.Rows[row][i], err)
			}
			return v
		}
	}
	t.Fatalf("no column %q", col)
	return 0
}

// findRow locates the row whose first cell equals name.
func findRow(t *testing.T, tbl *Table, name string) int {
	t.Helper()
	for i, r := range tbl.Rows {
		if r[0] == name {
			return i
		}
	}
	t.Fatalf("no row %q in %s", name, tbl.ID)
	return -1
}

// TestE1Shape verifies the headline tradeoff at a moderate scale:
// tiering writes less and reads worse than leveling.
func TestE1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("moderate-scale shape test")
	}
	tbl, err := E1CompactionPolicies(0.25)
	if err != nil {
		t.Fatal(err)
	}
	lev, tier := findRow(t, tbl, "leveling"), findRow(t, tbl, "tiering(4)")
	if wa := cell(t, tbl, tier, "write_amp"); wa >= cell(t, tbl, lev, "write_amp") {
		t.Errorf("tiering write amp %.2f should beat leveling %.2f",
			wa, cell(t, tbl, lev, "write_amp"))
	}
	// Short scans must probe more runs under tiering; compare simulated
	// scan cost, which is robust to background-scheduling interleavings
	// (final run counts are not deterministic).
	if sc := cell(t, tbl, tier, "scan_sim_us"); sc <= cell(t, tbl, lev, "scan_sim_us") {
		t.Errorf("tiering scan cost %.1f should exceed leveling %.1f",
			sc, cell(t, tbl, lev, "scan_sim_us"))
	}
}

// TestE3Shape: filters cut zero-result I/O; Monkey beats (or matches)
// the uniform allocation with the closest achieved filter memory.
func TestE3Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("moderate-scale shape test")
	}
	tbl, err := E3PointFilters(0.25)
	if err != nil {
		t.Fatal(err)
	}
	none := findRow(t, tbl, "none")
	u5 := findRow(t, tbl, "uniform-5")
	monkey := findRow(t, tbl, "monkey")
	if cell(t, tbl, u5, "zero_pages_per_lookup") >= cell(t, tbl, none, "zero_pages_per_lookup") {
		t.Error("filters must cut zero-result I/O")
	}
	// Fair comparison: the uniform row with achieved memory closest to
	// monkey's.
	mMem := cell(t, tbl, monkey, "filter_mem_KiB")
	best, bestDiff := -1, 0.0
	for _, name := range []string{"uniform-2", "uniform-5", "uniform-10"} {
		r := findRow(t, tbl, name)
		d := cell(t, tbl, r, "filter_mem_KiB") - mMem
		if d < 0 {
			d = -d
		}
		if best < 0 || d < bestDiff {
			best, bestDiff = r, d
		}
	}
	mp, up := cell(t, tbl, monkey, "zero_pages_per_lookup"), cell(t, tbl, best, "zero_pages_per_lookup")
	if mp > up*1.05+0.02 {
		t.Errorf("monkey (%.3f pages @%0.fKiB) should not lose to uniform (%.3f pages @%.0fKiB)",
			mp, mMem, up, cell(t, tbl, best, "filter_mem_KiB"))
	}
}

// TestE5Shape: separation cuts write amp for large values.
func TestE5Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("moderate-scale shape test")
	}
	tbl, err := E5KVSeparation(0.25)
	if err != nil {
		t.Fatal(err)
	}
	// Find the 4096-byte rows.
	var base, wisc int
	found := 0
	for i, r := range tbl.Rows {
		if r[0] == "4096" {
			if r[1] == "baseline" {
				base = i
			} else {
				wisc = i
			}
			found++
		}
	}
	if found != 2 {
		t.Fatal("missing 4096 rows")
	}
	bwa, wwa := cell(t, tbl, base, "write_amp"), cell(t, tbl, wisc, "write_amp")
	if wwa >= bwa {
		t.Errorf("wisckey write amp %.2f must beat baseline %.2f at 4 KiB values", wwa, bwa)
	}
}

// TestO1Shape: weakening the filters moves traced gets off the
// filter-skip path and onto the disk path. Shares are compared rather
// than percentiles — wall-clock tails are noisy under CI, the path
// mix is what the filter budget determines.
func TestO1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("moderate-scale shape test")
	}
	tbl, err := O1TraceAttribution(0.25)
	if err != nil {
		t.Fatal(err)
	}
	skip2 := cell(t, tbl, findRow(t, tbl, "2bpk/filter-skip"), "share")
	skip10 := cell(t, tbl, findRow(t, tbl, "10bpk/filter-skip"), "share")
	if skip10 <= skip2 {
		t.Errorf("strong filters must skip more: 10bpk share %.2f vs 2bpk %.2f", skip10, skip2)
	}
	disk2 := cell(t, tbl, findRow(t, tbl, "2bpk/disk"), "share")
	disk10 := cell(t, tbl, findRow(t, tbl, "10bpk/disk"), "share")
	if disk2 <= disk10 {
		t.Errorf("weak filters must leak to disk: 2bpk share %.2f vs 10bpk %.2f", disk2, disk10)
	}
}

// TestE11Shape: a tighter persistence threshold leaves fewer, younger
// tombstones.
func TestE11Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("moderate-scale shape test")
	}
	tbl, err := E11DeletePersistence(0.25)
	if err != nil {
		t.Fatal(err)
	}
	off := findRow(t, tbl, "off")
	tight := findRow(t, tbl, "2000")
	if cell(t, tbl, tight, "oldest_tombstone_age_ops") > cell(t, tbl, off, "oldest_tombstone_age_ops") {
		t.Error("threshold must bound tombstone age")
	}
	if cell(t, tbl, tight, "age_triggered") == 0 {
		t.Error("tight threshold must trigger age compactions")
	}
}

// TestO2Shape: the profiler must see the workload change — skew and
// hot-key share jump in the zipfian phase, scan shape appears in the
// scan-heavy phase — and the per-level byte attribution must track
// filesystem ground truth. The exact-attribution checks (writes, scan
// reads) get a tight bound; the sampled get-read check gets the 10%
// the design budgets for sampling error.
func TestO2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("moderate-scale shape test")
	}
	tbl, err := O2WorkloadProfile(0.25)
	if err != nil {
		t.Fatal(err)
	}
	uni, zipf, scan := findRow(t, tbl, "uniform-rw"), findRow(t, tbl, "zipf-read"), findRow(t, tbl, "scan-heavy")
	if zs, us := cell(t, tbl, zipf, "zipf_s"), cell(t, tbl, uni, "zipf_s"); zs < us+0.3 {
		t.Errorf("zipfian phase must raise the fitted skew: %.2f vs uniform %.2f", zs, us)
	}
	if zt, ut := cell(t, tbl, zipf, "top_share"), cell(t, tbl, uni, "top_share"); zt < ut {
		t.Errorf("zipfian phase must raise the hot-key share: %.2f vs uniform %.2f", zt, ut)
	}
	if ms := cell(t, tbl, scan, "mean_scan"); ms < 4 {
		t.Errorf("scan-heavy phase must show scan shape: mean_scan %.2f", ms)
	}
	if ms := cell(t, tbl, uni, "mean_scan"); ms != 0 {
		t.Errorf("uniform phase has no scans, mean_scan %.2f", ms)
	}
	for _, check := range []struct {
		row   string
		bound float64
	}{
		{"io-writes", 5}, {"io-scan-reads", 5}, {"io-get-reads", 10},
	} {
		raw := tbl.Rows[findRow(t, tbl, check.row)][len(tbl.Columns)-1]
		var profMiB, fsMiB, delta float64
		if _, err := fmt.Sscanf(raw, "prof=%fMiB fs=%fMiB Δ=%f%%", &profMiB, &fsMiB, &delta); err != nil {
			t.Fatalf("io_check cell %q: %v", raw, err)
		}
		if delta < -check.bound || delta > check.bound {
			t.Errorf("%s attribution off by %.1f%%, bound %.0f%% (%s)", check.row, delta, check.bound, raw)
		}
	}
}

// TestW1Shape: with a sync that costs something, eight closed-loop
// writers must share nearly every sync (mean commit group >= 6: the
// leader lingers for the members the last sync just acknowledged) and
// reach at least five times the one-writer rate — the bar
// EXPERIMENTS.md W1 states.
func TestW1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("moderate-scale shape test")
	}
	tbl, err := W1GroupCommit(0.2)
	if err != nil {
		t.Fatal(err)
	}
	one, eight := findRow(t, tbl, "1"), findRow(t, tbl, "8")
	if g := cell(t, tbl, eight, "avg_group"); g < 6 {
		t.Errorf("8 writers must share syncs: mean commit group %.2f, want >= 6", g)
	}
	if r1, r8 := cell(t, tbl, one, "ops_per_s"), cell(t, tbl, eight, "ops_per_s"); r8 < 5*r1 {
		t.Errorf("8 writers reach %.0f ops/s, want >= 5x the 1-writer %.0f", r8, r1)
	}
}

// TestN1Shape: eight synchronous connections must reach at least twice
// one connection's rate by sharing commit groups — the same bar as the
// server's own TestNetworkWritesFeedCommitGroups.
func TestN1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("moderate-scale shape test")
	}
	tbl, err := N1NetworkServing(0.2)
	if err != nil {
		t.Fatal(err)
	}
	one, eight := findRow(t, tbl, "1"), findRow(t, tbl, "8")
	if g := cell(t, tbl, eight, "net_group"); g <= 1 {
		t.Errorf("8 connections must coalesce: mean commit group %.2f", g)
	}
	if r1, r8 := cell(t, tbl, one, "net_ops_per_s"), cell(t, tbl, eight, "net_ops_per_s"); r8 < 2*r1 {
		t.Errorf("8 connections reach %.0f ops/s, want >= 2x one connection's %.0f", r8, r1)
	}
}
