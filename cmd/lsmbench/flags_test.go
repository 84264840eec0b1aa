package main

import (
	"flag"
	"strings"
	"testing"
)

func TestParseFlags(t *testing.T) {
	cases := []struct {
		name    string
		args    string
		wantErr string // substring; empty = no error
	}{
		{"no flags prints every table", "", ""},
		{"experiment tables", "-exp E1,W1 -scale 0.25", ""},
		{"load generator", "-addr 127.0.0.1:1 -conns 2 -depth 4 -ops 10 -value 8 -json out.json", ""},
		{"replica readback", "-addr 127.0.0.1:1 -replicas 127.0.0.1:2 -conns 2", ""},
		{"tenant overload", "-addr 127.0.0.1:1 -tenants 2 -quota ops=60,burst=0.5 -ops 240 -json out.json", ""},

		{"tables and load are different jobs", "-exp E1 -addr 127.0.0.1:1", "-exp selects experiment tables"},
		{"scale with addr", "-addr 127.0.0.1:1 -scale 0.5", "-scale selects experiment tables"},
		{"conns without a server", "-conns 4", "-conns needs -addr"},
		{"json without a server", "-exp E1 -json out.json", "-json needs -addr"},
		{"tenants without a server", "-tenants 2", "-tenants needs -addr"},
		{"quota without tenants", "-addr 127.0.0.1:1 -quota ops=60", "-quota requires -tenants"},
		{"depth in a tenants run", "-addr 127.0.0.1:1 -tenants 2 -depth 4", "-depth does not apply"},
		{"stray argument", "-exp E1 E2", "unexpected argument"},
	}
	// Measuring moved to benchmark/: the flags of the removed modes are
	// unknown, not ignored.
	for _, f := range []string{"writers", "batch", "shards", "sync", "syncdelay", "dir", "serve",
		"mode", "readers", "keys", "dist", "warm", "bits", "scanlen",
		"baseline", "compare", "threshold-scale", "markdown"} {
		cases = append(cases, struct{ name, args, wantErr string }{
			"removed -" + f, "-" + f + "=1", "flag provided but not defined"})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parseFlags(strings.Fields(tc.args))
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %v does not contain %q", err, tc.wantErr)
			}
		})
	}
}

// TestEveryFlagHasAHome: a flag either selects a job or is listed as
// load-shaping, so the validator knows where it applies.
func TestEveryFlagHasAHome(t *testing.T) {
	home := map[string]bool{"exp": true, "scale": true, "addr": true}
	for _, f := range addrOnly {
		home[f] = true
	}
	defined := 0
	newFlagSet(new(config)).VisitAll(func(f *flag.Flag) {
		defined++
		if !home[f.Name] {
			t.Errorf("flag -%s belongs to neither job", f.Name)
		}
	})
	if defined != len(home) {
		t.Errorf("%d flags defined, %d have a home", defined, len(home))
	}
}
