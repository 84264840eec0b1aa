package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"lsmlab/internal/core"
	"lsmlab/internal/workload"
)

// The smoke test: every workload, untraced and traced, plus the probes,
// at 1/500 scale, checked against what BENCHMARK.json promises. It
// asserts structure and correctness only — no timing — so it can run
// anywhere tier-1 runs.

const specPath = "../BENCHMARK.json"

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestSpecShape(t *testing.T) {
	sp, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	b, _ := os.ReadFile(specPath)
	if err := json.Unmarshal(b, &raw); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := raw[k]; !ok {
			t.Errorf("BENCHMARK.json lacks %q", k)
		}
	}
	if len(raw) != 6 {
		t.Errorf("BENCHMARK.json has %d keys, want exactly 6", len(raw))
	}
	if sp.RunSeconds != runSeconds {
		t.Errorf("run_seconds is %g in BENCHMARK.json, --seconds defaults to %d", sp.RunSeconds, runSeconds)
	}
	if len(sp.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json names %d workloads, the code runs %d", len(sp.Workloads), len(workloadNames))
	}
	seen := map[string]bool{}
	for i, w := range sp.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the code", i, w.Name, workloadNames[i])
		}
		seen[w.Name] = true
	}
	if n := len(sp.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(sp.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	setup := false
	for _, m := range sp.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric with unit s and better lower")
	}
	for _, m := range append(append([]specMetric(nil), sp.EndToEnd...), sp.PerLayer...) {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("metric name %q is not allowed", m.Name)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q is not allowed", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
		if seen[m.Name] {
			t.Errorf("name %q is used twice", m.Name)
		}
		seen[m.Name] = true
	}
}

// checkMetrics asserts that got is exactly the metrics want names, once
// each, with the promised units and finite values.
func checkMetrics(t *testing.T, got []metric, want []specMetric) {
	t.Helper()
	units := map[string]string{}
	for _, m := range want {
		units[m.Name] = m.Unit
	}
	emitted := map[string]bool{}
	for _, m := range got {
		if emitted[m.name] {
			t.Errorf("%s emitted twice", m.name)
		}
		emitted[m.name] = true
		u, ok := units[m.name]
		if !ok {
			t.Errorf("%s is emitted but not in BENCHMARK.json", m.name)
			continue
		}
		if u != m.unit {
			t.Errorf("%s: unit %q, BENCHMARK.json says %q", m.name, m.unit, u)
		}
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			t.Errorf("%s = %v", m.name, m.value)
		}
	}
	for _, m := range want {
		if !emitted[m.Name] {
			t.Errorf("%s is in BENCHMARK.json but not emitted", m.Name)
		}
	}
}

func TestSmoke(t *testing.T) {
	sp, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: name, seed: 3, seconds: 0.3, trace: trace, scale: 1.0 / 500, outDir: out}
			res, err := runWorkload(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			o := res.output()
			if !o.Correct || o.Failed != 0 || o.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", name, trace, o.Correct, o.Failed, o.Attempted)
			}
			if _, err := json.Marshal(o); err != nil {
				t.Errorf("%s trace=%v: result does not marshal: %v", name, trace, err)
			}
			if !trace {
				checkMetrics(t, res.metrics(), sp.EndToEnd)
				for _, m := range res.metrics() {
					if m.value <= 0 {
						t.Errorf("%s: end-to-end %s = %v, must never be 0", name, m.name, m.value)
					}
				}
				continue
			}
			checkMetrics(t, res.metrics(), sp.PerLayer)
			var spans struct {
				Spans [][]any `json:"spans"`
			}
			raw, err := os.ReadFile(filepath.Join(out, "trace-"+name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(raw, &spans); err != nil {
				t.Fatalf("%s: span file: %v", name, err)
			}
			if len(spans.Spans) == 0 || len(spans.Spans) != res.sum.spans {
				t.Errorf("%s: span file holds %d spans, the run recorded %d", name, len(spans.Spans), res.sum.spans)
			}
			if len(res.sum.getSelf)+len(res.sum.applySelf)+len(res.sum.scanSelf) == 0 {
				t.Errorf("%s: traced phase recorded no engine span", name)
			}
		}
	}
}

// TestCompareVerdicts gives compare two made-up sets of runs: one row per
// verdict, and a file that lacks a row.
func TestCompareVerdicts(t *testing.T) {
	sp := &spec{EndToEnd: []specMetric{
		{Name: "ops_per_s", Better: "higher", Bound: 0.1},
		{Name: "p50_us", Better: "lower", Bound: 0.1},
	}}
	sp.Workloads = append(sp.Workloads, struct {
		Name string `json:"name"`
	}{"w"})
	mk := func(ops, p50 []float64) runs {
		return runs{"w": {"ops_per_s": ops, "p50_us": p50}}
	}
	steady := []float64{100, 101, 99, 100, 100}
	noisy := []float64{80, 120, 100, 70, 130}
	cases := []struct {
		name     string
		a, b     runs
		status   int
		verdicts []string // one per end-to-end metric, in order
	}{
		{"unchanged", mk(steady, steady), mk(steady, steady), 0, []string{verdictOK, verdictOK}},
		{"higher is better", mk(steady, steady), mk([]float64{120, 121, 119}, steady), 0, []string{verdictOK, verdictOK}},
		{"throughput lost", mk(steady, steady), mk([]float64{85, 86, 84}, steady), 1, []string{verdictRegression, verdictOK}},
		{"latency gained", mk(steady, steady), mk(steady, []float64{112, 113, 111}), 1, []string{verdictOK, verdictRegression}},
		{"inside the bound", mk(steady, steady), mk([]float64{92, 93, 91}, []float64{108, 109, 107}), 0, []string{verdictOK, verdictOK}},
		{"too noisy to tell", mk(steady, steady), mk(noisy, steady), 0, []string{verdictUnresolved, verdictOK}},
		{"metric missing from B", mk(steady, steady), runs{"w": {"ops_per_s": steady}}, 2, []string{verdictOK, verdictMissing}},
		{"workload missing from B", mk(steady, steady), runs{}, 2, []string{verdictMissing, verdictMissing}},
		{"zero parent median", mk([]float64{0, 0, 0}, steady), mk(steady, steady), 2, []string{verdictMissing, verdictOK}},
	}
	for _, c := range cases {
		var out bytes.Buffer
		if got := compare(&out, sp, c.a, c.b); got != c.status {
			t.Errorf("%s: status %d, want %d\n%s", c.name, got, c.status, out.String())
		}
		rows := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))[1:]
		for i, v := range c.verdicts {
			if i >= len(rows) || !bytes.Contains(rows[i], []byte(v)) {
				t.Errorf("%s: row %d lacks verdict %q\n%s", c.name, i, v, out.String())
			}
		}
	}
}

func TestKeysMatchWorkloadPackage(t *testing.T) {
	for _, i := range []int64{0, 7, 42, 999_999, 123_456_789_012} {
		k := appendKey(nil, i)
		if !bytes.Equal(k, workload.Key(i)) {
			t.Errorf("appendKey(%d) = %q, workload.Key = %q", i, k, workload.Key(i))
		}
		if j, ok := parseKey(append([]byte("t1/"), k...)); !ok || j != i {
			t.Errorf("parseKey(%q) = %d, %v", k, j, ok)
		}
	}
	if _, ok := parseKey([]byte("user00000000004x")); ok {
		t.Error("parseKey accepted a non-digit")
	}
}

// TestCheckerCatchesCorruption feeds the checkers deliberately wrong
// results: each must be refused, and the right ones accepted.
func TestCheckerCatchesCorruption(t *testing.T) {
	var scratch [valueLen]byte
	good := make([]byte, valueLen)
	fillValue(good, 17, 3)
	if ver, ok := checkValue(good, 17, &scratch); !ok || ver != 3 {
		t.Fatalf("checkValue refused a correct value (ver %d ok %v)", ver, ok)
	}
	for _, pos := range []int{0, 5, 8, 50, valueLen - 1} {
		bad := append([]byte(nil), good...)
		bad[pos] ^= 0x40
		if _, ok := checkValue(bad, 17, &scratch); ok {
			t.Errorf("a bit flipped at byte %d went unnoticed", pos)
		}
	}
	if _, ok := checkValue(good, 18, &scratch); ok {
		t.Error("a value of key 17 passed as key 18's")
	}
	if _, ok := checkValue(good[:valueLen-1], 17, &scratch); ok {
		t.Error("a truncated value passed")
	}

	live3, dead4 := mkState(3, false), mkState(4, true)
	cases := []struct {
		name          string
		found         bool
		value         []byte
		before, after keyState
		want          bool
	}{
		{"exact", true, good, live3, live3, true},
		{"stale version", true, good, mkState(4, false), mkState(4, false), false},
		{"future version", true, good, mkState(2, false), mkState(2, false), false},
		{"missing live key", false, nil, live3, live3, false},
		{"deleted key found", true, good, mkState(3, true), mkState(3, true), false},
		{"absent during delete", false, nil, live3, dead4, true},
		{"old value during delete", true, good, live3, dead4, true},
		{"absent, never written", false, nil, 0, 0, true},
	}
	for _, c := range cases {
		if got := consistent(17, c.found, c.value, c.before, c.after, &scratch); got != c.want {
			t.Errorf("%s: consistent = %v, want %v", c.name, got, c.want)
		}
	}

	// Scans: order, bounds, length, and keys left out.
	const lo, hi = 100, 100 + scanLen
	w := &mixedWorker{m: newVersions(1000, mkState(1, false)), n: 1000}
	var full []core.KV
	for i := uint32(lo); i < hi; i++ {
		w.before[i-lo] = mkState(1, false)
		v := make([]byte, valueLen)
		fillValue(v, i, 1)
		full = append(full, core.KV{Key: appendKey(nil, int64(i)), Value: v})
	}
	if !w.checkScan(full, lo, hi) {
		t.Fatal("checkScan refused a correct scan")
	}
	swapped := append([]core.KV(nil), full...)
	swapped[3], swapped[4] = swapped[4], swapped[3]
	if w.checkScan(swapped, lo, hi) {
		t.Error("checkScan accepted keys out of order")
	}
	if w.checkScan(append(full[:10:10], full[11:]...), lo, hi) {
		t.Error("checkScan accepted a scan that skipped a live key")
	}
	if w.checkScan(full[:scanLen-1], lo, hi) {
		t.Error("checkScan accepted a short scan")
	}
	outside := append([]core.KV(nil), full...)
	outside[scanLen-1] = core.KV{Key: appendKey(nil, hi), Value: full[0].Value}
	if w.checkScan(outside, lo, hi) {
		t.Error("checkScan accepted a key past the upper bound")
	}
}

func TestHistQuantiles(t *testing.T) {
	var h hist
	for v := int64(1); v <= 100_000; v++ {
		h.record(v)
	}
	for _, q := range []float64{0.5, 0.99, 0.999} {
		got, want := h.quantile(q), q*100_000
		if math.Abs(got-want)/want > 0.02 {
			t.Errorf("quantile(%g) = %g, want within 2%% of %g", q, got, want)
		}
	}
	// statistics.quantiles([1..10], n=4) is [2.75, 5.5, 8.25].
	xs := []float64{3, 1, 2, 10, 9, 8, 4, 5, 7, 6}
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 || median(xs) != 5.5 {
		t.Errorf("quartiles = %g, %g; median %g", q1, q3, median(xs))
	}
}
