package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
)

// Repeatability and comparison. `--repeat K` runs each workload on K
// successive seeds, prints median, quartiles and spread per metric, and
// with --out keeps every run in a file. `compare A B` lines two such
// files up row by row — every workload x end-to-end metric BENCHMARK.json
// names — under the bounds it fixes.

// spec is the part of BENCHMARK.json the tooling reads.
type spec struct {
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// runRecord is one run as kept in a --out file.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	output
}

type runFile struct {
	Runs []runRecord `json:"runs"`
}

// repeatRuns runs every named workload on seeds seed..seed+k-1, each run
// in a process of its own (this binary again), as the acceptance check
// does: memory and set-up time then start from the same place each time.
func repeatRuns(cfg config, names []string, modes []bool, k int, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var file runFile
	incorrect := false
	for _, name := range names {
		values := map[string][]float64{}
		units := map[string]string{}
		for i := 0; i < k; i++ {
			seed := cfg.seed + int64(i)
			for _, trace := range modes {
				flag := "0"
				if trace {
					flag = "1"
				}
				cmd := exec.Command(self, "--workload", name, "--seed", fmt.Sprint(seed),
					"--seconds", fmt.Sprint(cfg.seconds), "--trace", flag, "--outdir", cfg.outDir)
				cmd.Stderr = os.Stderr
				stdout, err := cmd.Output()
				lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
				var o output
				if jerr := json.Unmarshal(lines[len(lines)-1], &o); jerr != nil {
					return fmt.Errorf("%s seed %d: no result line (%v, exit: %v)", name, seed, jerr, err)
				}
				incorrect = incorrect || !o.Correct
				file.Runs = append(file.Runs, runRecord{Workload: name, Seed: seed, Trace: trace, output: o})
				for m, v := range o.Metrics {
					units[m] = v.Unit
					values[m] = append(values[m], v.Value)
				}
				fmt.Printf("%s seed %d trace %s: %d/%d failed\n", name, seed, flag, o.Failed, o.Attempted)
			}
		}
		order := make([]string, 0, len(units))
		for m := range units {
			order = append(order, m)
		}
		sort.Strings(order)
		fmt.Printf("== %s: %d runs, seeds %d..%d\n", name, k, cfg.seed, cfg.seed+int64(k)-1)
		fmt.Printf("   %-32s %14s %14s %14s %8s  %s\n", "metric", "median", "q1", "q3", "spread", "unit")
		for _, m := range order {
			xs := values[m]
			q1, q3 := xs[0], xs[0]
			if len(xs) > 1 {
				q1, q3 = quartiles(xs)
			}
			fmt.Printf("   %-32s %14.6g %14.6g %14.6g %7.2f%%  %s\n", m, median(xs), q1, q3, 100*spread(xs), units[m])
		}
	}
	if out != "" {
		raw, err := json.MarshalIndent(file, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(raw, '\n'), 0o644); err != nil {
			return err
		}
	}
	if incorrect {
		return errIncorrect
	}
	return nil
}

// runs holds the end-to-end values of one --out file: workload, then
// metric, then one value per run.
type runs map[string]map[string][]float64

func readRuns(path string) (runs, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f runFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	by := runs{}
	for _, r := range f.Runs {
		if r.Trace {
			continue
		}
		if !r.Correct {
			return nil, fmt.Errorf("%s: run of %s seed %d is marked incorrect", path, r.Workload, r.Seed)
		}
		if by[r.Workload] == nil {
			by[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			by[r.Workload][name] = append(by[r.Workload][name], m.Value)
		}
	}
	return by, nil
}

// compareMain implements `benchmark compare A.json B.json`: A is the
// parent, B the change. Exit status 1 means some end-to-end metric on
// some workload got worse by more than its bound; 2 means the
// comparison could not be made, a row missing from either file included.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition holding the bounds")
	fs.Parse(args)
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare [--spec BENCHMARK.json] A.json B.json")
		return 2
	}
	sp, err := loadSpec(*specPath)
	if err == nil {
		var a, b runs
		if a, err = readRuns(fs.Arg(0)); err == nil {
			b, err = readRuns(fs.Arg(1))
		}
		if err == nil {
			return compare(os.Stdout, sp, a, b)
		}
	}
	fmt.Fprintln(os.Stderr, "benchmark compare:", err)
	return 2
}

// Verdicts of one row.
const (
	verdictOK         = "ok"
	verdictRegression = "REGRESSION"
	verdictUnresolved = "unresolved (spread > bound)"
	verdictMissing    = "MISSING"
)

// compare prints one row per workload and end-to-end metric of sp and
// returns the exit status. A row either file lacks, or whose parent
// median is 0 (no end-to-end metric ever is), cannot be judged and makes
// the status 2: a crashed run or a renamed metric must not pass for "no
// regression".
func compare(w io.Writer, sp *spec, a, b runs) int {
	regressions, missing := 0, 0
	fmt.Fprintf(w, "%-18s %-12s %13s %13s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "A median", "B median", "change", "spreadA", "spreadB", "bound", "verdict")
	for _, wl := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			xa, xb := a[wl.Name][m.Name], b[wl.Name][m.Name]
			ma, mb := median(xa), median(xb)
			if len(xa) == 0 || len(xb) == 0 || ma == 0 {
				missing++
				fmt.Fprintf(w, "%-18s %-12s %13.6g %13.6g %8s %8s %8s %5.0f%%  %s (%d runs in A, %d in B)\n",
					wl.Name, m.Name, ma, mb, "", "", "", 100*m.Bound, verdictMissing, len(xa), len(xb))
				continue
			}
			change := (mb - ma) / ma
			worse := change
			if m.Better == "higher" {
				worse = -change
			}
			sa, sb := spread(xa), spread(xb)
			verdict := verdictOK
			switch {
			case worse > m.Bound:
				verdict = verdictRegression
				regressions++
			case sa > m.Bound || sb > m.Bound:
				verdict = verdictUnresolved
			}
			fmt.Fprintf(w, "%-18s %-12s %13.6g %13.6g %+7.2f%% %7.2f%% %7.2f%% %5.0f%%  %s\n",
				wl.Name, m.Name, ma, mb, 100*change, 100*sa, 100*sb, 100*m.Bound, verdict)
		}
	}
	switch {
	case missing > 0:
		fmt.Fprintf(w, "%d row(s) missing, %d regression(s)\n", missing, regressions)
		return 2
	case regressions > 0:
		fmt.Fprintf(w, "%d regression(s)\n", regressions)
		return 1
	}
	return 0
}
