package server_test

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"lsmlab/internal/admission"
	"lsmlab/internal/client"
	"lsmlab/internal/core"
	"lsmlab/internal/partition"
	"lsmlab/internal/replica"
	"lsmlab/internal/server"
	"lsmlab/internal/trace"
	"lsmlab/internal/vfs"
	"lsmlab/internal/vfs/faultfs"
)

// The operator-visible surfaces are pinned by committed goldens: the
// /metrics family list (name, TYPE, HELP) of four server
// configurations and the STATS text (digit runs masked) of a flat and
// a 2-shard store. The files under testdata/ were captured from the
// hand-written renderers of the commit before the descriptor table, so
// "the generic renderers are byte-compatible" is this test passing.
// Rewrite them only for an intended surface change:
//
//	go test ./internal/server -run TestSurface -update
var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from this build's output")

// serveEngine serves eng on a loopback listener until test cleanup.
func serveEngine(t *testing.T, eng server.Engine, opts server.Options) (*server.Server, string) {
	t.Helper()
	srv := server.New(eng, opts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Shutdown(5 * time.Second)
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return srv, ln.Addr().String()
}

// surface is one served configuration the goldens are captured from.
type surface struct {
	srv *server.Server
	cl  *client.Client
}

func (s surface) metrics(t *testing.T) string {
	t.Helper()
	rec := httptest.NewRecorder()
	s.srv.DebugHandler(nil, nil).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("/metrics: status %d", rec.Code)
	}
	return rec.Body.String()
}

func (s surface) stats(t *testing.T, verbose bool) string {
	t.Helper()
	text, err := s.cl.Stats(verbose)
	if err != nil {
		t.Fatal(err)
	}
	return text
}

// drive runs the same single-connection traffic against every
// configuration: sequential, so the profiler's sampling — and with it
// which optional lines and families appear — is deterministic.
func drive(t *testing.T, cl *client.Client, prefix string, flush func() error) {
	t.Helper()
	for i := 0; i < 400; i++ {
		err := cl.Put([]byte(fmt.Sprintf("%sk%04d", prefix, i%100)), []byte("value"))
		if err != nil && !errors.Is(err, client.ErrThrottled) {
			t.Fatal(err)
		}
	}
	if flush != nil {
		if err := flush(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		cl.Get([]byte(fmt.Sprintf("%sk%04d", prefix, i%120)))
	}
	cl.Delete([]byte(prefix + "k0003"))
	cl.Scan([]byte(prefix+"k00"), 20)
}

func dial(t *testing.T, addr string) *client.Client {
	t.Helper()
	cl, err := client.Dial(addr, client.Options{MaxRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// flatStore is a flat tree in either of its forms: a *core.DB, or the
// one-shard partition.Store every command opens. Both must render the
// same goldens.
type flatStore interface {
	server.Engine
	Flush() error
	Close() error
}

var flatForms = map[string]func(core.Options) (flatStore, error){
	"core.DB":         func(o core.Options) (flatStore, error) { return core.Open(o) },
	"one-shard store": func(o core.Options) (flatStore, error) { return partition.Open(o, 1) },
}

func flatSurface(t *testing.T, open func(core.Options) (flatStore, error)) surface {
	opts := core.DefaultOptions(vfs.NewMem(), "db")
	opts.RecordLatencies = true
	opts.Tracer = trace.New(trace.Options{SampleEvery: 1, RingSize: 64, Seed: 7})
	db, err := open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	srv, addr := serveEngine(t, db, server.Options{})
	s := surface{srv, dial(t, addr)}
	drive(t, s.cl, "", db.Flush)
	return s
}

func shardedSurface(t *testing.T) surface {
	opts := core.DefaultOptions(vfs.NewMem(), "db")
	opts.RecordLatencies = true
	store, err := partition.Open(opts, 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	srv, addr := serveEngine(t, store, server.Options{})
	s := surface{srv, dial(t, addr)}
	drive(t, s.cl, "", store.Flush)
	return s
}

func admissionSurface(t *testing.T) surface {
	db, err := core.Open(core.DefaultOptions(vfs.NewMem(), "db"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	srv, addr := serveEngine(t, db, server.Options{
		Admission: admission.NewController(admission.Config{
			Tenants: map[string]admission.Quota{"t0": {OpsPerSec: 10, BurstSec: 0.5}},
		}),
	})
	s := surface{srv, dial(t, addr)}
	drive(t, s.cl, "t0/", nil)
	drive(t, s.cl, "t1/", db.Flush)
	return s
}

func followerSurface(t *testing.T) surface {
	ldb, err := core.Open(core.DefaultOptions(vfs.NewMem(), "leader"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ldb.Close() })
	lead := replica.NewLeader([]*core.DB{ldb}, replica.LeaderOptions{
		Poll: 500 * time.Microsecond, Heartbeat: 20 * time.Millisecond,
	})
	_, laddr := serveEngine(t, ldb, server.Options{Repl: lead})

	ffs := vfs.NewMem()
	fopts := core.DefaultOptions(ffs, "follower")
	fopts.Replica = true
	fdb, err := core.Open(fopts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fdb.Close() })
	recv, err := replica.NewReceiver(replica.ReceiverOptions{
		Leader: laddr, ID: "f1", FS: ffs, Dir: "follower", Shards: []*core.DB{fdb},
		AckInterval: 10 * time.Millisecond, SessionLength: 2 * time.Second,
		StreamTimeout: time.Second, Backoff: 20 * time.Millisecond, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	recv.Start()
	t.Cleanup(recv.Stop)

	drive(t, dial(t, laddr), "", ldb.Flush)
	want := ldb.VisibleSeq()
	waitFor(t, "follower to catch up", func() bool { return recv.AppliedVector()[0] >= want })

	srv, addr := serveEngine(t, replica.NewEngine(fdb, recv), server.Options{})
	s := surface{srv, dial(t, addr)}
	for i := 0; i < 50; i++ {
		s.cl.Get([]byte(fmt.Sprintf("k%04d", i)))
	}
	return s
}

// golden compares got with testdata/<name>.golden (or rewrites it).
func golden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s differs from its golden:\n%s", name, lineDiff(string(want), got))
	}
}

// lineDiff lists the lines of want missing from got ("-") and the lines
// of got missing from want ("+"), each with its line number.
func lineDiff(want, got string) string {
	var b strings.Builder
	side := func(mark, from, other string) {
		have := map[string]int{}
		for _, l := range strings.Split(other, "\n") {
			have[l]++
		}
		for i, l := range strings.Split(from, "\n") {
			if have[l] == 0 {
				fmt.Fprintf(&b, "%s%d: %s\n", mark, i+1, l)
			}
			have[l]--
		}
	}
	side("-", want, got)
	side("+", got, want)
	if b.Len() == 0 {
		return "(same lines, different order)"
	}
	return b.String()
}

// families reduces a /metrics payload to its sorted "name type help"
// list. Family order carries no meaning in the exposition format, so
// the golden pins the set.
func families(payload string) string {
	help := map[string]string{}
	var out []string
	for _, line := range strings.Split(payload, "\n") {
		f := strings.SplitN(line, " ", 4)
		switch {
		case strings.HasPrefix(line, "# HELP ") && len(f) == 4:
			help[f[2]] = f[3]
		case strings.HasPrefix(line, "# TYPE ") && len(f) == 4:
			out = append(out, f[2]+" "+f[3]+" "+help[f[2]])
		}
	}
	sort.Strings(out)
	return strings.Join(out, "\n") + "\n"
}

var (
	maskQuoted   = regexp.MustCompile(`"[^"]*"`)
	maskDuration = regexp.MustCompile(`[0-9][0-9.]*(ns|µs|ms|s)\b`)
	maskNumber   = regexp.MustCompile(`[0-9]+(\.[0-9]+)?`)
)

// mask hides everything run-dependent in a STATS block — key names,
// durations, numbers — leaving its line structure and field names.
func mask(text string) string {
	text = maskQuoted.ReplaceAllString(text, `"…"`)
	text = maskDuration.ReplaceAllString(text, "<dur>")
	return maskNumber.ReplaceAllString(text, "N") + "\n"
}

var (
	reasonSuffix = regexp.MustCompile(`(?m)^(  LN: runs=.* compact_in=N)( [a-z-]+=N)+$`)
	shardedAdded = regexp.MustCompile(`(?m)^(  top keys:|commit group size:).*\n`)
)

// withoutShardedAdditions removes the lines a sharded store's block
// gained when it moved onto the flat store's renderer: per-level bytes
// by reason, top keys and the commit-group-size summary. What is left
// must still equal the capture of the old partition.FormatStats.
func withoutShardedAdditions(masked string) string {
	masked = reasonSuffix.ReplaceAllString(masked, "$1")
	return shardedAdded.ReplaceAllString(masked, "")
}

func TestSurfaceMetricsFamilies(t *testing.T) {
	for _, in := range []struct {
		name, golden string
		s            surface
	}{
		{"flat core.DB", "flat", flatSurface(t, flatForms["core.DB"])},
		{"flat one-shard store", "flat", flatSurface(t, flatForms["one-shard store"])},
		{"sharded", "sharded", shardedSurface(t)},
		{"admission", "admission", admissionSurface(t)},
		{"follower", "follower", followerSurface(t)},
	} {
		t.Run(in.name, func(t *testing.T) {
			payload := in.s.metrics(t)
			golden(t, "metrics_"+in.golden, families(payload))
			for _, problem := range lintProm(payload) {
				t.Errorf("/metrics: %s", problem)
			}
		})
	}
}

func TestSurfaceStatsText(t *testing.T) {
	for form, open := range flatForms {
		t.Run(form, func(t *testing.T) {
			flat := flatSurface(t, open)
			golden(t, "stats_flat", mask(flat.stats(t, false)))
			golden(t, "stats_flat_v", mask(flat.stats(t, true)))
		})
	}
	sharded := shardedSurface(t)
	golden(t, "stats_sharded", withoutShardedAdditions(mask(sharded.stats(t, false))))
	golden(t, "stats_sharded_v", withoutShardedAdditions(mask(sharded.stats(t, true))))
}

var (
	promName   = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	promType   = regexp.MustCompile(`^(counter|gauge|histogram|summary|untyped)$`)
	promSample = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)` +
		`(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"(?:,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")*\})?` +
		` (-?[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?|[+-]Inf|NaN)( [0-9]+)?$`)
	promSuffix = regexp.MustCompile(`_(sum|count|bucket)$`)
)

// lintProm checks a /metrics payload against the Prometheus text
// format grammar and returns one message per violation: HELP and TYPE
// are well-formed, name a valid family, use a known type and appear at
// most once per family; TYPE precedes the family's first sample; every
// sample parses as name{labels} value with quoted, escaped label
// values, belongs to a declared family (through _sum/_count/_bucket
// for summaries and histograms), and no series repeats.
func lintProm(payload string) []string {
	var problems []string
	helped, typed, sampled, series := map[string]bool{}, map[string]bool{}, map[string]bool{}, map[string]bool{}
	for i, line := range strings.Split(payload, "\n") {
		fail := func(msg string) {
			problems = append(problems, fmt.Sprintf("line %d: %s: %s", i+1, msg, line))
		}
		f := strings.Fields(line)
		switch {
		case line == "":
		case strings.HasPrefix(line, "# ") && len(f) < 3:
			fail("comment is neither HELP nor TYPE")
		case strings.HasPrefix(line, "# HELP "):
			switch name := f[2]; {
			case !promName.MatchString(name):
				fail("bad HELP metric name")
			case len(f) < 4:
				fail("HELP without text")
			case helped[name]:
				fail("duplicate HELP for family")
			default:
				helped[name] = true
			}
		case strings.HasPrefix(line, "# TYPE "):
			switch name := f[2]; {
			case !promName.MatchString(name):
				fail("bad TYPE metric name")
			case len(f) != 4:
				fail("TYPE without a type or with trailing garbage")
			case !promType.MatchString(f[3]):
				fail("unknown TYPE")
			case typed[name]:
				fail("duplicate TYPE for family")
			case sampled[name]:
				fail("TYPE after samples of its family")
			default:
				typed[name] = true
			}
		case strings.HasPrefix(line, "#"):
			fail("comment is neither HELP nor TYPE")
		default:
			m := promSample.FindStringSubmatch(line)
			if m == nil {
				fail("bad sample (name, label block or value)")
				continue
			}
			fam := m[1]
			if !typed[fam] {
				fam = promSuffix.ReplaceAllString(fam, "")
			}
			if !typed[fam] {
				fail("sample family has no TYPE declaration")
			}
			sampled[fam] = true
			if series[m[1]+m[2]] {
				fail("duplicate series")
			}
			series[m[1]+m[2]] = true
		}
	}
	return problems
}

// TestLintPromCatchesViolations feeds the checker one payload per rule
// so a rule that silently stops firing is noticed.
func TestLintPromCatchesViolations(t *testing.T) {
	const ok = "# HELP a_total x\n# TYPE a_total counter\na_total 1\n"
	if p := lintProm(ok + "# HELP s x\n# TYPE s summary\ns{quantile=\"0.5\"} 1\ns_sum 2\ns_count 1\n"); len(p) != 0 {
		t.Fatalf("valid payload rejected: %v", p)
	}
	for rule, payload := range map[string]string{
		"bad HELP metric name":      "# HELP 9a x\n",
		"HELP without text":         "# HELP a_total\n",
		"duplicate HELP":            ok + "# HELP a_total y\n",
		"bad TYPE metric name":      "# TYPE 9a counter\n",
		"trailing garbage":          "# TYPE a_total counter extra\n",
		"unknown TYPE":              "# TYPE a_total meter\n",
		"duplicate TYPE":            ok + "# TYPE a_total counter\n",
		"TYPE after samples":        "a_total 1\n# TYPE a_total counter\n",
		"neither HELP nor TYPE":     "# note\n",
		"bad sample":                ok + "a_total{l=unquoted} 1\n",
		"no TYPE declaration":       "b_total 1\n",
		"duplicate series":          ok + "a_total 2\n",
		"bad sample (name":          ok + "a_total one\n",
		"sample family has no TYPE": ok + "a_count 1\n",
	} {
		found := false
		for _, p := range lintProm(payload) {
			found = found || strings.Contains(p, rule)
		}
		if !found {
			t.Errorf("rule %q did not fire on %q: %v", rule, payload, lintProm(payload))
		}
	}
}

// TestShardedDegradedReachesEverySurface degrades one shard of two and
// checks the store-wide answer: the merged Degraded gauge, /metrics and
// the STATS block all say degraded (the hand-rolled cross-shard sum
// always said 0), the counters still sum exactly across the healthy
// and the degraded shard, and an interval keeps the current state.
func TestShardedDegradedReachesEverySurface(t *testing.T) {
	ffs := faultfs.New(vfs.NewMem(), 1)
	opts := core.DefaultOptions(ffs, "db")
	opts.MaxBackgroundRetries = -1 // degrade on the first failure
	store, err := partition.Open(opts, 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	srv, addr := serveEngine(t, store, server.Options{})
	s := surface{srv, dial(t, addr)}
	const puts = 40
	for i := 0; i < puts; i++ {
		if err := s.cl.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	healthy, doomed := store.Partition(0), store.Partition(1)
	if healthy.Metrics().Puts == 0 || doomed.Metrics().Puts == 0 {
		t.Fatal("the keys all hashed to one shard; pick different keys")
	}
	before := store.Metrics()
	if before.Degraded != 0 {
		t.Fatalf("healthy store reports degraded=%d", before.Degraded)
	}

	// Kill the device under tables and flush only shard 1 into it.
	ffs.AddRule(faultfs.Rule{
		Classes: faultfs.ClassSST, Ops: faultfs.OpWrite | faultfs.OpCreate,
		Countdown: 1, Sticky: true,
	})
	if err := doomed.Flush(); err == nil {
		t.Fatal("flush against a dead device must error")
	}
	waitFor(t, "shard 1 degraded", func() bool { return doomed.Health().Degraded })
	if healthy.Health().Degraded {
		t.Fatal("the fault leaked into shard 0")
	}

	m := store.Metrics()
	if m.Degraded != 1 {
		t.Errorf("merged Degraded = %d with one shard degraded, want 1", m.Degraded)
	}
	if m.Puts != puts || m.Puts != healthy.Metrics().Puts+doomed.Metrics().Puts {
		t.Errorf("merged puts = %d, shards have %d + %d", m.Puts, healthy.Metrics().Puts, doomed.Metrics().Puts)
	}
	if d := m.Sub(before); d.Degraded != 1 || d.Puts != 0 {
		t.Errorf("interval degraded=%d puts=%d, want the current state 1 and a zero delta", d.Degraded, d.Puts)
	}
	if payload := s.metrics(t); !strings.Contains(payload, "\nlsmlab_degraded 1\n") {
		t.Error("/metrics does not carry lsmlab_degraded 1")
	}
	text := s.stats(t, false)
	for _, want := range []string{"degraded=true op=shard-1/flush", "shard 000: ", "shard 001: "} {
		if !strings.Contains(text, want) {
			t.Errorf("STATS misses %q:\n%s", want, text)
		}
	}
	if strings.Count(text, "degraded=false") != 1 {
		t.Errorf("STATS should mark exactly shard 000 healthy:\n%s", text)
	}
}
