// Package experiments regenerates the quantitative claims of the
// tutorial, one experiment per claim (see DESIGN.md §3 for the index).
// Each experiment returns a Table whose rows are the series the claim
// is about; cmd/lsmbench prints them and EXPERIMENTS.md records the
// measured shapes against the claims.
//
// The E and O experiments run on an in-memory accounting filesystem
// with a simulated SSD latency model, so results are deterministic and
// laptop-scale while preserving the read/write cost asymmetry the
// claims depend on. W1 and N1 are about wall-clock waiting (a sync that
// takes time, shared or not), so they run on the plain in-memory
// filesystem with a modelled sync delay and report wall-clock rates.
package experiments

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"text/tabwriter"

	"lsmlab/internal/core"
	"lsmlab/internal/metrics"
	"lsmlab/internal/vfs"
)

// Table is one experiment's result.
type Table struct {
	ID      string // e.g. "E1"
	Title   string
	Claim   string // the tutorial claim under test, with its section
	Columns []string
	Rows    [][]string
	// Tail holds the get/put tail-latency summary merged across every
	// engine the experiment opened (captured by Run; may be empty for
	// experiments that bypass the engine).
	Tail []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Fprint renders the table.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "%s — %s\n", t.ID, t.Title)
	fmt.Fprintf(w, "claim: %s\n", t.Claim)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(t.Columns, "\t"))
	for _, r := range t.Rows {
		fmt.Fprintln(tw, strings.Join(r, "\t"))
	}
	tw.Flush()
	if len(t.Tail) > 0 {
		fmt.Fprintln(w, "tail latency (wall clock, all configurations merged):")
		for _, line := range t.Tail {
			fmt.Fprintln(w, "  "+line)
		}
	}
	fmt.Fprintln(w)
}

// Scale shrinks or grows every experiment's workload: 1 is the full
// (documented) size, fractions run faster for tests and smoke runs.
type Scale float64

// N scales a base count, keeping at least a workable minimum.
func (s Scale) N(base int) int {
	n := int(float64(base) * float64(s))
	if n < 100 {
		n = 100
	}
	return n
}

// env is a fresh engine over a counting in-memory FS with SSD-shaped
// simulated latency.
type env struct {
	fs   *vfs.CountingFS
	opts core.Options
}

// newEnv builds the default experiment environment; mutate adjusts the
// engine options for the configuration under test.
func newEnv(mutate func(*core.Options)) env {
	fs := vfs.NewCountingWithLatency(vfs.NewMem(), vfs.SSDLatency())
	opts := core.DefaultOptions(fs, "db")
	opts.BufferBytes = 64 << 10
	opts.TargetFileSize = 128 << 10
	opts.BaseLevelBytes = 256 << 10
	opts.NumLevels = 5
	opts.SizeRatio = 4
	opts.CacheBytes = 0 // experiments opt in to caching explicitly
	// Tail-latency footers need the op histograms, which are off by
	// default to keep untimed runs clean.
	opts.RecordLatencies = true
	if mutate != nil {
		mutate(&opts)
	}
	return env{fs: fs, opts: opts}
}

func (e env) open() (*core.DB, error) {
	db, err := core.Open(e.opts)
	if err == nil {
		latMu.Lock()
		latDBs = append(latDBs, db)
		latMu.Unlock()
	}
	return db, err
}

// Latency capture: every engine opened through env.open during one Run
// is remembered; after the experiment finishes its histograms (valid
// even after Close — they are plain atomics) merge into the table's
// tail-latency footer.
var (
	latMu  sync.Mutex
	latDBs []*core.DB
)

// capturedTail drains the capture list and renders the merged get/put
// tails, or nil when no engine recorded operations.
func capturedTail() []string {
	latMu.Lock()
	dbs := latDBs
	latDBs = nil
	latMu.Unlock()
	var lat metrics.LatencySnapshot
	for _, db := range dbs {
		lat = lat.Merge(db.Latencies())
	}
	if lat.Get.Count()+lat.Put.Count() == 0 {
		return nil
	}
	return []string{"get  " + lat.Get.String(), "put  " + lat.Put.String()}
}

// simMillis converts simulated nanoseconds to milliseconds for display.
func simMillis(ns int64) string { return fmt.Sprintf("%.1f", float64(ns)/1e6) }

// f2 formats a float at two decimals.
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// Registry maps experiment ids to their runners, in presentation order.
type Runner func(Scale) (*Table, error)

// All lists every experiment in order.
func All() []struct {
	ID  string
	Run Runner
} {
	return []struct {
		ID  string
		Run Runner
	}{
		{"E1", E1CompactionPolicies},
		{"E2", E2Memtables},
		{"E3", E3PointFilters},
		{"E4", E4RangeFilters},
		{"E5", E5KVSeparation},
		{"E6", E6FilePicking},
		{"E7", E7BufferTuning},
		{"E8", E8Parallelism},
		{"E9", E9SizeRatio},
		{"E10", E10RobustTuning},
		{"E11", E11DeletePersistence},
		{"E12", E12CacheLeaper},
		{"E13", E13Partitioning},
		{"W1", W1GroupCommit},
		{"N1", N1NetworkServing},
		{"O1", O1TraceAttribution},
		{"O2", O2WorkloadProfile},
	}
}

// Run executes one experiment by id, attaching the tail-latency footer
// captured from every engine the experiment opened.
func Run(id string, s Scale) (*Table, error) {
	for _, e := range All() {
		if strings.EqualFold(e.ID, id) {
			latMu.Lock()
			latDBs = nil
			latMu.Unlock()
			tbl, err := e.Run(s)
			if err == nil && tbl != nil {
				tbl.Tail = capturedTail()
			}
			return tbl, err
		}
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q", id)
}
