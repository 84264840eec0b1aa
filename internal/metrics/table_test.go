package metrics

import (
	"reflect"
	"regexp"
	"sync/atomic"
	"testing"
)

// distinct fills every int64 field of a Snapshot with base+index+1, so
// a row that reaches the wrong field, or no field, shows in the values.
func distinct(base int64) Snapshot {
	var s Snapshot
	v := reflect.ValueOf(&s).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetInt(base + int64(i) + 1)
	}
	return s
}

// TestCountersCoverEveryField is the completeness gate: adding a field
// to Metrics or Snapshot without its row in Counters (or with two, or
// with a row whose two accessors name different fields) fails here.
func TestCountersCoverEveryField(t *testing.T) {
	s := distinct(0)
	rows := map[int64]int{}
	for _, d := range Counters {
		rows[d.Value(&s)]++
	}
	st := reflect.TypeOf(s)
	for i := 0; i < st.NumField(); i++ {
		if st.Field(i).Type.Kind() != reflect.Int64 {
			t.Errorf("Snapshot.%s is not an int64", st.Field(i).Name)
		}
		if n := rows[int64(i)+1]; n != 1 {
			t.Errorf("Snapshot.%s has %d rows in Counters, want 1", st.Field(i).Name, n)
		}
	}
	if len(Counters) != st.NumField() {
		t.Errorf("%d rows for %d Snapshot fields", len(Counters), st.NumField())
	}

	// Every atomic.Int64 of Metrics lands in the Snapshot field of the
	// same name.
	var m Metrics
	mv := reflect.ValueOf(&m).Elem()
	want := map[string]int64{}
	for i := 0; i < mv.NumField(); i++ {
		if c, ok := mv.Field(i).Addr().Interface().(*atomic.Int64); ok {
			c.Store(int64(i) + 1)
			want[mv.Type().Field(i).Name] = int64(i) + 1
		}
	}
	got := reflect.ValueOf(m.Snapshot())
	if len(want) != got.NumField() {
		t.Errorf("Metrics has %d counters, Snapshot %d fields", len(want), got.NumField())
	}
	for name, v := range want {
		f := got.FieldByName(name)
		if !f.IsValid() || f.Int() != v {
			t.Errorf("Metrics.%s does not reach Snapshot.%s through the table", name, name)
		}
	}
}

func TestHistogramsCoverEveryField(t *testing.T) {
	var m Metrics
	mv := reflect.ValueOf(&m).Elem()
	live := 0
	for i := 0; i < mv.NumField(); i++ {
		if h, ok := mv.Field(i).Addr().Interface().(*Histogram); ok {
			live++
			h.RecordNs(int64(live))
		}
	}
	set := m.Latencies()
	seen := map[int64]int{}
	for _, d := range Histograms {
		seen[d.Value(&set).Max]++
	}
	sv := reflect.ValueOf(set)
	if live != sv.NumField() || live != len(Histograms) {
		t.Fatalf("Metrics has %d histograms, LatencySnapshot %d fields, Histograms %d rows",
			live, sv.NumField(), len(Histograms))
	}
	for i := 1; i <= live; i++ {
		if seen[int64(i)] != 1 {
			t.Errorf("histogram #%d of Metrics is reached by %d rows, want 1", i, seen[int64(i)])
		}
	}
	merged := set.Merge(set)
	for _, d := range Histograms {
		if h := d.Value(&merged); h.N != 2 {
			t.Errorf("%q: merged N = %d, want 2", d.Help, h.N)
		}
	}
}

// TestExpositionNames checks what /metrics will print: valid, unique
// family names, each with help text.
func TestExpositionNames(t *testing.T) {
	valid := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	seen := map[string]bool{}
	check := func(name, help string) {
		if help == "" {
			t.Errorf("%q has no help text", name)
		}
		if name == "" {
			return // kept off /metrics
		}
		if !valid.MatchString(name) {
			t.Errorf("%q is not a valid metric name", name)
		}
		if seen[name] {
			t.Errorf("%q is declared twice", name)
		}
		seen[name] = true
	}
	for _, d := range Counters {
		check(d.Name, d.Help)
	}
	for _, d := range Derived {
		check(d.Name, d.Help)
	}
	for _, d := range Histograms {
		check(d.Name, d.Help)
	}
}

// TestAddSubRoundTrip checks the derived arithmetic on snapshots with a
// distinct value per field: a skipped field breaks the round trip.
func TestAddSubRoundTrip(t *testing.T) {
	a, b := distinct(1000), distinct(0)
	sum := a.Add(b)
	back := sum.Sub(b)
	for _, d := range Counters {
		av, bv := d.Value(&a), d.Value(&b)
		switch d.Kind {
		case Counter:
			if got := d.Value(&sum); got != av+bv {
				t.Errorf("%q: Add = %d, want %d", d.Help, got, av+bv)
			}
			if got := d.Value(&back); got != av {
				t.Errorf("%q: Add then Sub = %d, want %d", d.Help, got, av)
			}
		case Flag:
			if got := d.Value(&sum); got != av { // a's values are the larger
				t.Errorf("%q: Add = %d, want max %d", d.Help, got, av)
			}
			if got := d.Value(&back); got != av {
				t.Errorf("%q: Sub changed a flag: %d, want the current %d", d.Help, got, av)
			}
		}
	}
}

// TestAddCarriesDegraded is the cross-shard bug the table fixes: summing
// a degraded shard into a healthy total must leave the total degraded.
func TestAddCarriesDegraded(t *testing.T) {
	var total Snapshot
	total = total.Add(Snapshot{Puts: 2})
	total = total.Add(Snapshot{Degraded: 1, Puts: 3})
	total = total.Add(Snapshot{Puts: 4})
	if total.Degraded != 1 || total.Puts != 9 {
		t.Fatalf("merged degraded=%d puts=%d, want 1 and 9", total.Degraded, total.Puts)
	}
}
