package admission

import (
	"encoding/json"
	"testing"
)

// FuzzParseConfig: the quota file is operator input read at startup.
// No input may panic the parser; an accepted config never carries a
// negative tenant rate and survives a JSON round trip unchanged.
func FuzzParseConfig(f *testing.F) {
	f.Add([]byte(`{"default": {"ops_per_sec": 100}, "tenants": {"acme": {"ops_per_sec": 2000, "burst_sec": 0.5}}}`))
	f.Add([]byte(`{"global": {"bytes_per_sec": 1e6}, "max_tenants": 3}`))
	f.Add([]byte(`{"tenants": {"x": {"ops_per_sec": -1}}}`))
	f.Add([]byte(`{"typo": 1}`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, err := ParseConfig(data)
		if err != nil {
			return
		}
		for name, q := range cfg.Tenants {
			if q.OpsPerSec < 0 || q.BytesPerSec < 0 || q.BurstSec < 0 {
				t.Fatalf("accepted a negative rate for tenant %q: %+v", name, q)
			}
		}
		enc, err := json.Marshal(cfg)
		if err != nil {
			t.Fatalf("accepted config does not marshal: %v", err)
		}
		again, err := ParseConfig(enc)
		if err != nil {
			t.Fatalf("re-encoded config %s rejected: %v", enc, err)
		}
		if again.Default != cfg.Default || again.Global != cfg.Global ||
			again.MaxTenants != cfg.MaxTenants || len(again.Tenants) != len(cfg.Tenants) {
			t.Fatalf("round trip: %+v → %+v", cfg, again)
		}
		for name, q := range cfg.Tenants {
			if again.Tenants[name] != q {
				t.Fatalf("round trip: tenant %q %+v → %+v", name, q, again.Tenants[name])
			}
		}
	})
}
