package main

import (
	"flag"
	"fmt"
)

// config is the parsed command line. lsmbench has two jobs: experiment
// tables (-exp, -scale) and load against a running server (-addr and
// the flags listed in addrOnly).
type config struct {
	exp   string
	scale float64

	addr      string
	conns     int
	depth     int
	ops       int
	valueSize int
	replicas  string
	tenants   int
	quota     string
	jsonPath  string
}

// addrOnly lists the flags that shape the load sent to -addr.
var addrOnly = []string{"conns", "depth", "ops", "value", "replicas", "tenants", "quota", "json"}

func newFlagSet(cfg *config) *flag.FlagSet {
	fs := flag.NewFlagSet("lsmbench", flag.ContinueOnError)
	fs.StringVar(&cfg.exp, "exp", "all", "comma-separated experiment ids (E1..E13, W1, N1, O1, O2) or 'all'")
	fs.Float64Var(&cfg.scale, "scale", 1.0, "experiment workload scale factor (1.0 = documented size)")

	fs.StringVar(&cfg.addr, "addr", "", "generate load against the lsmserved at this address instead of printing tables")
	fs.IntVar(&cfg.conns, "conns", 1, "with -addr: number of client connections")
	fs.IntVar(&cfg.depth, "depth", 1, "with -addr: pipelined requests in flight per connection (1 = synchronous)")
	fs.IntVar(&cfg.ops, "ops", 100000, "with -addr: total puts")
	fs.IntVar(&cfg.valueSize, "value", 100, "with -addr: value size in bytes")
	fs.StringVar(&cfg.replicas, "replicas", "", "with -addr: comma-separated follower addresses; after the put phase, reads fan out across them with read-your-writes enforced")
	fs.IntVar(&cfg.tenants, "tenants", 0, "with -addr: overload run with this many tenants; tenant t0 offers 4x its quota, the rest stay under it")
	fs.StringVar(&cfg.quota, "quota", "", "with -tenants: the per-tenant quota 'ops=N[,bytes=N][,burst=SEC]' the server enforces, which sets the pacing targets")
	fs.StringVar(&cfg.jsonPath, "json", "", "with -addr: write a machine-readable result summary to this file")
	return fs
}

// parseFlags parses args and rejects any explicitly set flag that does
// not apply to the selected job. Like the flag package's own errors,
// every error it returns has already been reported on standard error.
func parseFlags(args []string) (config, error) {
	var cfg config
	fs := newFlagSet(&cfg)
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	set := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	err := validateFlags(set)
	if err == nil && fs.NArg() > 0 {
		err = fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if err != nil {
		fmt.Fprintf(fs.Output(), "lsmbench: %v\n", err)
	}
	return cfg, err
}

func validateFlags(set map[string]bool) error {
	if !set["addr"] {
		for _, f := range addrOnly {
			if set[f] {
				return fmt.Errorf("-%s needs -addr (lsmbench generates load only against a running lsmserved)", f)
			}
		}
		return nil
	}
	for _, f := range []string{"exp", "scale"} {
		if set[f] {
			return fmt.Errorf("-%s selects experiment tables and cannot be combined with -addr", f)
		}
	}
	if set["quota"] && !set["tenants"] {
		return fmt.Errorf("-quota requires -tenants")
	}
	if set["tenants"] {
		for _, f := range []string{"conns", "depth", "replicas"} {
			if set[f] {
				return fmt.Errorf("-%s does not apply to the -tenants overload run", f)
			}
		}
	}
	return nil
}
