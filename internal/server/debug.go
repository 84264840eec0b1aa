// The HTTP debug plane: a second, read-only listener exposing the
// engine's live state to humans and scrapers — Prometheus-text
// /metrics, Go pprof profiles, a health probe, and JSON dumps of the
// event ring and the trace ring. It shares nothing with the data
// protocol: the wire stays binary and minimal, while operators get
// curl-able introspection on a separate port (lsmserved -debug-addr).

package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strings"

	"lsmlab/internal/admission"
	"lsmlab/internal/core"
	"lsmlab/internal/events"
	"lsmlab/internal/metrics"
	"lsmlab/internal/trace"
)

// DebugHandler returns the debug-plane HTTP handler for this server:
//
//	/metrics        Prometheus text exposition (counters, gauges,
//	                latency quantile summaries, per-level tree shape)
//	/healthz        engine health JSON; 503 once degraded
//	/events         the event ring, oldest first, as JSON
//	/traces         the captured span ring, oldest first, as JSON
//	/workload       the live workload profile (core.WorkloadProfile) as
//	                JSON: op mix, skew, hot keys, tenants, per-level RUM
//	/debug/pprof/*  the standard Go profiles
//
// ring and tr may be nil; the corresponding endpoints then serve empty
// lists. The handler only reads — it can be exposed on a port the data
// protocol never touches.
func (s *Server) DebugHandler(ring *events.Ring, tr *trace.Tracer) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		s.writeMetrics(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		s.writeHealth(w)
	})
	mux.HandleFunc("/events", func(w http.ResponseWriter, r *http.Request) {
		writeEvents(w, ring)
	})
	mux.HandleFunc("/traces", func(w http.ResponseWriter, r *http.Request) {
		writeTraces(w, tr)
	})
	mux.HandleFunc("/workload", func(w http.ResponseWriter, r *http.Request) {
		s.writeWorkload(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// promWriter accumulates Prometheus text exposition format. Every
// series carries the lsmlab_ prefix, and every family is opened by
// exactly one HELP/TYPE header before its samples, so the output
// parses under promtool and scrapes cleanly.
type promWriter struct{ b strings.Builder }

// family opens a family; its samples follow.
func (p *promWriter) family(name, help, typ string) {
	fmt.Fprintf(&p.b, "# HELP lsmlab_%s %s\n# TYPE lsmlab_%s %s\n", name, help, name, typ)
}

// sample writes one series of the open family. labels is empty or a
// rendered name="value" list; v is an int64 (printed exactly) or a
// float64 (shortest form).
func (p *promWriter) sample(name, labels string, v any) {
	if labels != "" {
		labels = "{" + labels + "}"
	}
	fmt.Fprintf(&p.b, "lsmlab_%s%s %v\n", name, labels, v)
}

func (p *promWriter) counter(name, help string, v int64) {
	p.family(name, help, "counter")
	p.sample(name, "", v)
}

func (p *promWriter) gauge(name, help string, v float64) {
	p.family(name, help, "gauge")
	p.sample(name, "", v)
}

// vec writes a labeled family with n series; row i is labeled
// label="key" and valued by at(i).
func (p *promWriter) vec(name, help, typ, label string, n int, at func(i int) (key string, v any)) {
	p.family(name, help, typ)
	for i := 0; i < n; i++ {
		key, v := at(i)
		p.sample(name, fmt.Sprintf("%s=%q", label, key), v)
	}
}

// summary renders one latency histogram as a Prometheus summary:
// quantile series plus _sum and _count.
func (p *promWriter) summary(name, help string, h metrics.HistogramSnapshot) {
	p.family(name, help, "summary")
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		p.sample(name, fmt.Sprintf("quantile=%q", fmt.Sprintf("%g", q)), h.Quantile(q))
	}
	p.sample(name+"_sum", "", h.Sum)
	p.sample(name+"_count", "", h.N)
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// writeMetrics renders the server's stats view as the /metrics payload:
// the counter, derived-gauge and histogram tables of internal/metrics
// (which own every such name and help string), then the labeled
// families for the view's structured parts — tenants, tree levels,
// shards, and the workload profile.
func (s *Server) writeMetrics(w http.ResponseWriter) {
	v := s.Stats()
	var p promWriter
	for _, d := range metrics.Counters {
		switch {
		case d.Name == "":
		case d.Kind == metrics.Flag:
			p.gauge(d.Name, d.Help, float64(d.Value(&v.Counters)))
		default:
			p.counter(d.Name, d.Help, d.Value(&v.Counters))
		}
	}
	for _, d := range metrics.Derived {
		p.gauge(d.Name, d.Help, d.Value(v.Counters))
	}
	p.gauge("space_amplification", "Disk bytes per unique live byte.", v.SpaceAmp)

	// Multi-tenancy: one row per tenant seen, labeled by namespace (the
	// default tenant — separator-free keys — is labeled "").
	if ts := v.Server.Tenants; len(ts) > 0 {
		tenant := func(name, help, typ string, at func(admission.TenantStats) any) {
			p.vec(name, help, typ, "tenant", len(ts), func(i int) (string, any) { return ts[i].Tenant, at(ts[i]) })
		}
		tenant("tenant_requests_total", "Admitted requests per tenant.", "counter", func(t admission.TenantStats) any { return t.Requests })
		tenant("tenant_throttled_total", "Requests throttled (quota-rejected or backpressure-shed) per tenant.", "counter", func(t admission.TenantStats) any { return t.Throttled })
		tenant("tenant_bytes_in_total", "Write payload bytes admitted per tenant.", "counter", func(t admission.TenantStats) any { return t.BytesIn })
		tenant("tenant_bytes_out_total", "Response bytes charged per tenant.", "counter", func(t admission.TenantStats) any { return t.BytesOut })
		tenant("tenant_throttling", "1 while the tenant is inside a throttle episode.", "gauge", func(t admission.TenantStats) any { return boolGauge(t.Throttling) })
	}

	// Tree shape, one row per level.
	ts := v.Tree
	p.gauge("memtable_entries", "Live memtable entries.", float64(ts.MemtableLen))
	p.gauge("immutable_memtables", "Immutable memtables awaiting flush.", float64(ts.Immutables))
	level := func(name, help string, at func(core.LevelStats) float64) {
		p.vec(name, help, "gauge", "level", len(ts.Levels), func(i int) (string, any) { return fmt.Sprint(ts.Levels[i].Level), at(ts.Levels[i]) })
	}
	level("level_runs", "Sorted runs per level.", func(l core.LevelStats) float64 { return float64(l.Runs) })
	level("level_files", "Files per level.", func(l core.LevelStats) float64 { return float64(l.Files) })
	level("level_bytes", "Bytes per level.", func(l core.LevelStats) float64 { return float64(l.Bytes) })
	p.gauge("total_bytes", "Total bytes across all levels.", float64(ts.TotalBytes))

	// Per-shard breakdown of a partitioned store: the figures an
	// operator needs to spot hot-shard skew.
	if len(v.Shards) > 0 {
		p.gauge("shards", "Shard count of the partitioned store.", float64(len(v.Shards)))
		shard := func(name, help string, at func(core.TreeStats) uint64) {
			p.vec(name, help, "gauge", "shard", len(v.Shards), func(i int) (string, any) { return fmt.Sprint(i), float64(at(v.Shards[i].Tree)) })
		}
		shard("shard_memtable_bytes", "Memtable footprint per shard.", func(t core.TreeStats) uint64 { return t.MemtableBytes })
		shard("shard_l0_runs", "Level-0 sorted runs per shard.", func(t core.TreeStats) uint64 { return uint64(t.L0Runs) })
		shard("shard_backlog_bytes", "Compaction debt per shard.", func(t core.TreeStats) uint64 { return t.BacklogBytes })
		shard("shard_total_bytes", "Bytes across all levels per shard.", func(t core.TreeStats) uint64 { return t.TotalBytes })
	}

	// Live workload characterization and per-level RUM attribution from
	// the engine profiler. Windowed figures decay with the profile
	// half-life, so they are gauges, not counters.
	if wp := v.Workload; wp.Enabled {
		p.gauge("workload_window_ops", "Sampling-weighted operations in the profile window.", float64(wp.WindowOps))
		p.gauge("workload_rotations", "Profile half-lives elapsed since open.", float64(wp.Rotations))
		ops := []struct {
			op string
			v  int64
		}{{"get", wp.Gets}, {"put", wp.Puts}, {"delete", wp.Deletes}, {"scan", wp.Scans}}
		p.vec("workload_ops", "Operations in the profile window by kind.", "gauge", "op", len(ops),
			func(i int) (string, any) { return ops[i].op, float64(ops[i].v) })
		p.gauge("workload_mean_scan_len", "Mean entries returned per range scan in the window.", wp.MeanScanLen)
		p.gauge("workload_distinct_keys", "Estimated distinct keys touched in the window.", float64(wp.DistinctKeys))
		p.gauge("workload_zipf_s", "Fitted zipf exponent of the window's key popularity (0 = uniform).", wp.ZipfS)
		p.gauge("workload_top_share", "Share of window traffic on the tracked hot keys.", wp.TopShare)
		p.gauge("workload_read_amp", "Measured runs probed per lookup over the window.", wp.ReadAmp)
		p.gauge("workload_write_amp", "Measured storage-write bytes per ingested byte over the window.", wp.WriteAmp)
		p.gauge("workload_space_amp", "Measured tree bytes per deepest-level byte.", wp.SpaceAmp)
		if len(wp.Tenants) > 0 {
			p.vec("workload_tenant_ops", "Sampled operations per tenant in the profile window.", "gauge", "tenant", len(wp.Tenants),
				func(i int) (string, any) { return wp.Tenants[i].Tenant, float64(wp.Tenants[i].Ops) })
		}
		window := func(name, help string, at func(core.LevelProfile) float64) {
			p.vec(name, help, "gauge", "level", len(wp.Levels), func(i int) (string, any) { return fmt.Sprint(wp.Levels[i].Level), at(wp.Levels[i]) })
		}
		window("level_runs_probed_window", "Runs consulted by lookups per level over the window.", func(l core.LevelProfile) float64 { return float64(l.RunsProbed) })
		window("level_read_amp", "Per-level contribution to read amplification over the window.", func(l core.LevelProfile) float64 { return l.ReadAmp })
		window("level_bytes_read_window", "Uncached data-block bytes read per level over the window.", func(l core.LevelProfile) float64 { return float64(l.BytesRead) })
		p.family("level_bytes_written_window", "Bytes written into each level over the window, by trigger.", "gauge")
		for _, lp := range wp.Levels {
			for reason, b := range lp.WriteByReason {
				p.sample("level_bytes_written_window", fmt.Sprintf("level=%q,reason=%q", fmt.Sprint(lp.Level), reason), float64(b))
			}
		}
		window("level_compaction_bytes_in_window", "Bytes read as compaction input per level over the window.", func(l core.LevelProfile) float64 { return float64(l.CompactionBytesIn) })
	}

	for _, d := range metrics.Histograms {
		if d.Name != "" {
			p.summary(d.Name, d.Help, d.Value(&v.Latency))
		}
	}
	if v.Server.Traced {
		p.counter("trace_spans_started_total", "Spans begun by the tracer.", int64(v.Server.SpansStarted))
		p.counter("trace_spans_retained_total", "Spans retained into the ring.", int64(v.Server.SpansRetained))
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprint(w, p.b.String())
}

// writeWorkload serves the live workload profile as JSON — the same
// payload the WORKLOAD wire verb returns, curl-able on the debug port.
func (s *Server) writeWorkload(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.db.Stats().Workload)
}

// writeHealth serves the engine health as JSON: HTTP 200 while
// healthy, 503 once degraded, so it plugs into load-balancer and
// orchestrator probes unchanged.
func (s *Server) writeHealth(w http.ResponseWriter) {
	h := s.db.Stats().Health
	w.Header().Set("Content-Type", "application/json")
	if h.Degraded {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(h)
}

// eventJSON is the wire shape of one ring event: the typed fields a
// program wants plus the human-readable line lsmctl already prints.
type eventJSON struct {
	Type   string `json:"type"`
	TimeNs int64  `json:"time_ns"`
	JobID  uint64 `json:"job_id,omitempty"`
	Err    string `json:"err,omitempty"`
	Line   string `json:"line"`
}

// writeEvents dumps the event ring, oldest first.
func writeEvents(w http.ResponseWriter, ring *events.Ring) {
	var evs []events.Event
	var total uint64
	if ring != nil {
		evs = ring.Events()
		total = ring.Total()
	}
	out := struct {
		Total  uint64      `json:"total"`
		Events []eventJSON `json:"events"`
	}{Total: total, Events: make([]eventJSON, 0, len(evs))}
	for _, e := range evs {
		ej := eventJSON{Type: e.Type.String(), TimeNs: e.TimeNs, JobID: e.JobID, Line: e.String()}
		if e.Err != nil {
			ej.Err = e.Err.Error()
		}
		out.Events = append(out.Events, ej)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

// writeTraces dumps the captured span ring, oldest first.
func writeTraces(w http.ResponseWriter, tr *trace.Tracer) {
	out := struct {
		Started  uint64       `json:"started"`
		Retained uint64       `json:"retained"`
		Spans    []trace.Span `json:"spans"`
	}{Started: tr.Started(), Retained: tr.Retained(), Spans: tr.Spans()}
	if out.Spans == nil {
		out.Spans = []trace.Span{}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}
