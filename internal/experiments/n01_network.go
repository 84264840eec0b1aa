package experiments

import (
	"fmt"
	"time"
)

// N1NetworkServing puts the serving layer (DESIGN §2c) beside the
// engine it wraps: the same sync'd-put sweep in-process and over
// loopback TCP, one synchronous caller per goroutine or connection.
// Each connection's reader goroutine is one more committer at the
// pipeline's door, so connections should coalesce into commit groups as
// goroutines do and the wire should cost a factor, not a ceiling.
func N1NetworkServing(s Scale) (*Table, error) {
	t := &Table{
		ID:    "N1",
		Title: "Network serving vs. in-process writes (sync'd single puts, 200 µs modelled fsync, loopback TCP)",
		Claim: "over-the-wire writers feed the same commit pipeline: connections coalesce into shared WAL syncs as in-process goroutines do, and the wire tax stays a constant factor (DESIGN §2c)",
		Columns: []string{"concurrency", "inproc_ops_per_s", "inproc_group", "net_ops_per_s",
			"net_group", "net_speedup", "wire_tax_pct", "net_put_p50_ms"},
	}
	perCaller := s.N(1000)
	var base float64
	for _, n := range []int{1, 8, 64} {
		in, err := syncedPuts(n, perCaller, 200*time.Microsecond, false)
		if err != nil {
			return nil, err
		}
		wire, err := syncedPuts(n, perCaller, 200*time.Microsecond, true)
		if err != nil {
			return nil, err
		}
		if base == 0 {
			base = wire.opsPerSec
		}
		t.AddRow(
			fmt.Sprint(n),
			fmt.Sprintf("%.0f", in.opsPerSec),
			f2(in.m.AvgCommitGroupSize()),
			fmt.Sprintf("%.0f", wire.opsPerSec),
			f2(wire.m.AvgCommitGroupSize()),
			f2(wire.opsPerSec/base),
			fmt.Sprintf("%.0f", 100*(1-wire.opsPerSec/in.opsPerSec)),
			f2(wire.p50.Seconds()*1e3),
		)
	}
	return t, nil
}
