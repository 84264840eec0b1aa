// Command lsmbench does the two jobs nothing else in the repository
// does: it regenerates the experiment tables of DESIGN.md §3 (one table
// per claim: E1–E13, W1, N1, O1, O2), and it generates load against a
// running lsmserved. It measures and compares no performance:
// benchmark/ (bash benchmark/run.sh, BENCHMARK.json) is the one
// instrument for that.
//
// Usage:
//
//	lsmbench -exp all            # every table at full scale
//	lsmbench -exp E1,W1 -scale 0.25
//	lsmbench -addr 127.0.0.1:4700 -conns 8 -depth 4     # pipelined puts
//	lsmbench -addr 127.0.0.1:4700 -replicas 127.0.0.1:4701 -conns 8  # + replica readback
//	lsmbench -addr 127.0.0.1:4700 -tenants 2 -quota ops=200,burst=0.5  # overload isolation
//
// A flag that does not apply to the selected job is a usage error, never
// silently ignored.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"lsmlab/internal/admission"
	"lsmlab/internal/client"
	"lsmlab/internal/experiments"
	"lsmlab/internal/metrics"
	"lsmlab/internal/workload"
)

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	if err != nil {
		os.Exit(2)
	}
	switch {
	case cfg.addr == "":
		err = runExperiments(cfg.exp, experiments.Scale(cfg.scale))
	case cfg.tenants > 0:
		err = runNetTenants(cfg)
	default:
		err = runNet(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lsmbench:", err)
		os.Exit(1)
	}
}

// runExperiments prints the table of every listed experiment and
// reports failure after trying them all.
func runExperiments(exp string, scale experiments.Scale) error {
	var ids []string
	if exp == "all" {
		for _, e := range experiments.All() {
			ids = append(ids, e.ID)
		}
	} else {
		for _, id := range strings.Split(exp, ",") {
			ids = append(ids, strings.TrimSpace(id))
		}
	}
	failed := 0
	for _, id := range ids {
		start := time.Now()
		tbl, err := experiments.Run(id, scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
			failed++
			continue
		}
		tbl.Fprint(os.Stdout)
		fmt.Printf("(%s completed in %.1fs)\n\n", id, time.Since(start).Seconds())
	}
	if failed > 0 {
		return fmt.Errorf("%d experiment(s) failed", failed)
	}
	return nil
}

// benchResult is the machine-readable summary of a load run written by
// -json, so scripts need not scrape the human output.
type benchResult struct {
	Mode       string  `json:"mode"` // "net", "net-tenants"
	Conns      int     `json:"conns,omitempty"`
	Depth      int     `json:"depth,omitempty"`
	Ops        int     `json:"ops"`
	ValueBytes int     `json:"value_bytes"`
	ElapsedSec float64 `json:"elapsed_sec"`
	OpsPerSec  float64 `json:"ops_per_sec"`

	// Acknowledged-put latency percentiles, nanoseconds.
	P50Ns  int64 `json:"p50_ns"`
	P99Ns  int64 `json:"p99_ns"`
	P999Ns int64 `json:"p999_ns"`
	MaxNs  int64 `json:"max_ns"`

	// Multi-tenant overload run (-tenants): the per-tenant quota the
	// pacing assumed and one row per tenant.
	QuotaOpsPerSec float64        `json:"quota_ops_per_sec,omitempty"`
	Tenants        []tenantResult `json:"tenants,omitempty"`
}

// fillLatency copies the percentile summary from a histogram snapshot.
func (r *benchResult) fillLatency(h metrics.HistogramSnapshot) {
	r.P50Ns = h.Quantile(0.5)
	r.P99Ns = h.Quantile(0.99)
	r.P999Ns = h.Quantile(0.999)
	r.MaxNs = h.Max
}

// writeJSON persists the summary (no-op when -json was not given).
func (r *benchResult) writeJSON(path string) error {
	if path == "" {
		return nil
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runNet measures put throughput against the lsmserved at cfg.addr:
// cfg.conns connections, each keeping up to cfg.depth requests in
// flight.
func runNet(cfg config) error {
	conns, depth := cfg.conns, cfg.depth
	if conns < 1 {
		conns = 1
	}
	if depth < 1 {
		depth = 1
	}

	cl, err := client.Dial(cfg.addr, client.Options{PoolSize: conns})
	if err != nil {
		return err
	}
	defer cl.Close()

	perConn := cfg.ops / conns
	val := make([]byte, cfg.valueSize)
	var wg sync.WaitGroup
	errs := make([]error, conns)
	var lat metrics.Histogram
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			p, err := cl.Pipeline()
			if err != nil {
				errs[c] = err
				return
			}
			base := int64(c * perConn)
			// window holds in-flight futures; latency is enqueue→ack.
			type inflight struct {
				f       *client.Future
				startNs int64
			}
			window := make([]inflight, 0, depth)
			drainOne := func() error {
				in := window[0]
				window = window[1:]
				if err := in.f.Err(); err != nil {
					return err
				}
				lat.RecordSince(in.startNs, time.Now().UnixNano())
				return nil
			}
			for i := 0; i < perConn; i++ {
				if len(window) == depth {
					if err := drainOne(); err != nil {
						errs[c] = err
						return
					}
				}
				f := p.Put(workload.Key(base+int64(i)), val)
				window = append(window, inflight{f, time.Now().UnixNano()})
			}
			for len(window) > 0 {
				if err := drainOne(); err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	total := perConn * conns
	res := benchResult{
		Mode: "net", Conns: conns, Depth: depth, Ops: total, ValueBytes: cfg.valueSize,
		ElapsedSec: elapsed.Seconds(), OpsPerSec: float64(total) / elapsed.Seconds(),
	}
	res.fillLatency(lat.Snapshot())
	fmt.Printf("net conns=%d depth=%d ops=%d value=%dB addr=%s\n",
		conns, depth, total, cfg.valueSize, cfg.addr)
	fmt.Printf("elapsed=%.2fs throughput=%.0f ops/s\n",
		elapsed.Seconds(), float64(total)/elapsed.Seconds())
	fmt.Printf("put latency: %s\n", lat.Snapshot())
	if cfg.replicas != "" {
		if err := runReplicaReadback(cfg.addr, cfg.replicas, conns, total, cfg.valueSize); err != nil {
			return err
		}
	}
	return res.writeJSON(cfg.jsonPath)
}

// tenantResult is one tenant's row in the -tenants overload run:
// offered load, how much of it the server admitted, and the latency of
// the admitted portion.
type tenantResult struct {
	Tenant       string  `json:"tenant"`
	TargetRate   float64 `json:"target_ops_per_sec"`
	Attempted    int     `json:"attempted"`
	Acked        int     `json:"acked"`
	Throttled    int     `json:"throttled"`
	ThrottleRate float64 `json:"throttle_rate"`
	OpsPerSec    float64 `json:"ops_per_sec"` // acked throughput
	P99Ns        int64   `json:"p99_ns"`      // acked put latency

	// RetryAfterNs is the first retry-after hint the server attached to
	// a throttled response (0 when the tenant was never throttled).
	RetryAfterNs int64 `json:"retry_after_ns,omitempty"`
}

// runNetTenants measures overload isolation instead of raw throughput:
// every tenant writes into its own key-prefix namespace against the
// same per-tenant quota, tenant t0 offering 4x its quota and the rest
// staying at half of theirs. A healthy server throttles t0's excess
// (with retry-after hints the run surfaces rather than sleeps out —
// retries are disabled so every rejection is counted) while the polite
// tenants see no throttles at all. -quota only sets the pacing targets:
// the server's own configuration must match it for the numbers to mean
// anything.
func runNetTenants(cfg config) error {
	addr, tenants, ops, valueSize := cfg.addr, cfg.tenants, cfg.ops, cfg.valueSize
	quotaSpec := cfg.quota
	if quotaSpec == "" {
		quotaSpec = "ops=200"
	}
	q, err := admission.ParseQuota(quotaSpec)
	if err != nil {
		return fmt.Errorf("-quota: %w", err)
	}
	if q.OpsPerSec <= 0 {
		return fmt.Errorf("-quota must set ops=N for the -tenants run")
	}

	// Offered rates: t0 hammers, everyone else stays comfortably under
	// quota. The attempt counts are sized so the total offered load is
	// roughly -ops spread over one shared wall-clock window.
	rates := make([]float64, tenants)
	rates[0] = 4 * q.OpsPerSec
	var sum float64
	for i := range rates {
		if i > 0 {
			rates[i] = q.OpsPerSec / 2
		}
		sum += rates[i]
	}
	window := float64(ops) / sum // seconds

	results := make([]tenantResult, tenants)
	var agg metrics.Histogram
	var wg sync.WaitGroup
	errs := make([]error, tenants)
	start := time.Now()
	for tn := 0; tn < tenants; tn++ {
		wg.Add(1)
		go func(tn int) {
			defer wg.Done()
			// One connection per tenant; retries disabled so every
			// StatusThrottled is observed and counted, not slept out.
			cl, err := client.Dial(addr, client.Options{PoolSize: 1, MaxRetries: -1})
			if err != nil {
				errs[tn] = err
				return
			}
			defer cl.Close()
			rate := rates[tn]
			attempts := int(rate * window)
			if attempts < 1 {
				attempts = 1
			}
			interval := time.Duration(float64(time.Second) / rate)
			prefix := fmt.Sprintf("t%d/", tn)
			val := make([]byte, valueSize)
			var lat metrics.Histogram
			acked, throttled := 0, 0
			var hint time.Duration
			t0 := time.Now()
			for i := 0; i < attempts; i++ {
				// Absolute schedule: pacing does not drift when puts or
				// throttle round-trips are slow.
				if d := time.Until(t0.Add(time.Duration(i) * interval)); d > 0 {
					time.Sleep(d)
				}
				key := append([]byte(prefix), workload.Key(int64(i))...)
				sentNs := time.Now().UnixNano()
				err := cl.Put(key, val)
				switch {
				case errors.Is(err, client.ErrThrottled):
					throttled++
					var te *client.ThrottledError
					if hint == 0 && errors.As(err, &te) {
						hint = te.RetryAfter
					}
				case err != nil:
					errs[tn] = fmt.Errorf("tenant t%d put %d: %w", tn, i, err)
					return
				default:
					acked++
					now := time.Now().UnixNano()
					lat.RecordSince(sentNs, now)
					agg.RecordSince(sentNs, now)
				}
			}
			elapsed := time.Since(t0).Seconds()
			results[tn] = tenantResult{
				Tenant:       fmt.Sprintf("t%d", tn),
				TargetRate:   rate,
				Attempted:    attempts,
				Acked:        acked,
				Throttled:    throttled,
				ThrottleRate: float64(throttled) / float64(attempts),
				OpsPerSec:    float64(acked) / elapsed,
				P99Ns:        lat.Snapshot().Quantile(0.99),
				RetryAfterNs: int64(hint),
			}
		}(tn)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	total, acked := 0, 0
	for _, r := range results {
		total += r.Attempted
		acked += r.Acked
	}
	fmt.Printf("net-tenants tenants=%d quota_ops=%.0f attempted=%d acked=%d value=%dB addr=%s\n",
		tenants, q.OpsPerSec, total, acked, valueSize, addr)
	fmt.Printf("elapsed=%.2fs acked throughput=%.0f ops/s\n",
		elapsed.Seconds(), float64(acked)/elapsed.Seconds())
	for _, r := range results {
		fmt.Printf("tenant %s: target=%.0f/s attempted=%d acked=%d throttled=%d throttle_rate=%.2f retry_after=%s acked_rate=%.0f/s p99=%s\n",
			r.Tenant, r.TargetRate, r.Attempted, r.Acked, r.Throttled,
			r.ThrottleRate, time.Duration(r.RetryAfterNs), r.OpsPerSec, time.Duration(r.P99Ns))
	}

	res := benchResult{
		Mode: "net-tenants", Ops: total, ValueBytes: valueSize,
		ElapsedSec: elapsed.Seconds(), OpsPerSec: float64(acked) / elapsed.Seconds(),
		QuotaOpsPerSec: q.OpsPerSec, Tenants: results,
	}
	res.fillLatency(agg.Snapshot())
	return res.writeJSON(cfg.jsonPath)
}

// runReplicaReadback reads the just-written key space back through the
// replica fan-out client and reports where the reads landed: served by
// a fresh-enough follower, retried on the leader after a stale answer,
// or fallen back after a replica error. Read-your-writes holds
// throughout — a follower answer is only used when its watermark
// dominates the client's write token.
func runReplicaReadback(addr, replicas string, conns, total, valueSize int) error {
	addrs := strings.Split(replicas, ",")
	rcl, err := client.Dial(addr, client.Options{Replicas: addrs, PoolSize: conns})
	if err != nil {
		return err
	}
	defer rcl.Close()
	// One write refreshes the token so the readback is constrained by
	// everything this process wrote.
	if err := rcl.Put(workload.Key(0), make([]byte, valueSize)); err != nil {
		return err
	}
	reads := total
	if reads > 50000 {
		reads = 50000
	}
	perConn := reads / conns
	if perConn == 0 {
		perConn = 1
	}
	var wg sync.WaitGroup
	errs := make([]error, conns)
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perConn; i++ {
				key := workload.Key(int64((c*perConn + i) % total))
				if _, err := rcl.Get(key); err != nil {
					errs[c] = fmt.Errorf("readback %s: %w", key, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	st := rcl.ReplicaStats()
	n := perConn * conns
	fmt.Printf("replica readback: reads=%d elapsed=%.2fs throughput=%.0f ops/s replicas=%d\n",
		n, elapsed.Seconds(), float64(n)/elapsed.Seconds(), len(addrs))
	fmt.Printf("replica readback: served=%d stale_fallback=%d errors=%d\n",
		st.Served, st.Stale, st.Errors)
	return nil
}
