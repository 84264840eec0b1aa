// Command lsmctl opens an lsmlab database directory on the local
// filesystem and runs basic operations against it — the smallest
// end-to-end way to poke at a store.
//
// Usage:
//
//	lsmctl -db /tmp/demo [-strategy tiering(4)/partial/min-overlap] <command>
//
//	lsmctl -db /tmp/demo put <key> <value>
//	lsmctl -db /tmp/demo get <key>
//	lsmctl -db /tmp/demo delete <key>
//	lsmctl -db /tmp/demo scan <start> <end> [limit]
//	lsmctl -db /tmp/demo shape          # print the LSM-tree structure
//	lsmctl -db /tmp/demo stats [-v]     # engine counters (-v adds latency percentiles)
//	lsmctl -db /tmp/demo workload       # live workload profile + per-level RUM attribution
//	lsmctl -db /tmp/demo events [compact]  # dump this session's engine events
//	lsmctl -db /tmp/demo compact        # full manual compaction
//	lsmctl -db /tmp/demo scrub          # verify every checksum; quarantine corrupt tables
//	lsmctl -db /tmp/demo health         # degraded-mode status and last background error
//	lsmctl -db /tmp/demo retune <strategy> [T]  # reshape online, then drain
//	lsmctl -db /tmp/demo checkpoint <dir>       # consistent online backup
//	lsmctl -db /tmp/demo bench <n>      # quick ingest of n keys
//
// With -addr instead of -db, commands run against a live lsmserved
// over the wire (put, get, delete, scan, stats, compact, health):
//
//	lsmctl -addr 127.0.0.1:4700 put <key> <value>
//	lsmctl -addr 127.0.0.1:4700 scan <prefix> [limit]
//	lsmctl -addr 127.0.0.1:4700 stats [-v]
//	lsmctl -addr 127.0.0.1:4700 workload
//	lsmctl -addr 127.0.0.1:4700 top [-interval 1s] [-count n] [-plain]
//	lsmctl -addr 127.0.0.1:4700 repl status   # per-follower replication lag
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"time"

	"lsmlab/internal/client"
	"lsmlab/internal/compaction"
	"lsmlab/internal/core"
	"lsmlab/internal/events"
	"lsmlab/internal/partition"
	"lsmlab/internal/replica"
	"lsmlab/internal/vfs"
	"lsmlab/internal/workload"
)

func main() {
	dbPath := flag.String("db", "", "database directory (opens the store locally)")
	addr := flag.String("addr", "", "lsmserved address (runs commands over the wire instead)")
	strategy := flag.String("strategy", "", "compaction strategy, e.g. 'lazy-leveling(4)/partial/tombstone-density'")
	sizeRatio := flag.Int("T", 0, "size ratio between level capacities (default 10)")
	flag.Parse()
	args := flag.Args()
	if (*dbPath == "") == (*addr == "") || len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: lsmctl {-db DIR | -addr HOST:PORT} [-strategy S] [-T n] {put|get|delete|scan|shape|stats|workload|top|events|compact|scrub|health|retune|bench} ...")
		os.Exit(2)
	}
	if *addr != "" {
		remote(*addr, args)
		return
	}

	opts := core.DefaultOptions(vfs.NewOS(), *dbPath)
	// Every session records its engine events in a bounded ring; the
	// events command dumps it, and bench reports how many were seen.
	ring := events.NewRing(4096)
	opts.EventListener = ring
	if *strategy != "" {
		s, err := compaction.ParseStrategy(*strategy)
		if err != nil {
			fatal(err)
		}
		opts.Layout = s.Layout
		opts.Granularity = s.Granularity
		opts.MovePolicy = s.MovePolicy
	}
	if *sizeRatio > 1 {
		opts.SizeRatio = *sizeRatio
	}
	// Whatever the directory holds: a flat tree or a sharded store.
	db, err := partition.Open(opts, 0)
	if err != nil {
		fatal(err)
	}
	defer db.Close()

	switch args[0] {
	case "put":
		need(args, 3)
		if err := db.Put([]byte(args[1]), []byte(args[2])); err != nil {
			fatal(err)
		}
	case "get":
		need(args, 2)
		v, err := db.Get([]byte(args[1]))
		if errors.Is(err, core.ErrNotFound) {
			fmt.Println("(not found)")
			return
		}
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n", v)
	case "delete":
		need(args, 2)
		if err := db.Delete([]byte(args[1])); err != nil {
			fatal(err)
		}
	case "scan":
		need(args, 3)
		limit := 100
		if len(args) > 3 {
			limit, _ = strconv.Atoi(args[3])
		}
		kvs, err := db.Scan([]byte(args[1]), []byte(args[2]), limit)
		if err != nil {
			fatal(err)
		}
		for _, kvp := range kvs {
			fmt.Printf("%s = %s\n", kvp.Key, kvp.Value)
		}
	case "shape":
		fmt.Println(db.Stats().Tree)
	case "stats":
		verbose := len(args) > 1 && (args[1] == "-v" || args[1] == "v")
		if verbose {
			// Histograms are per-process; probe a sample of live keys so
			// the get percentiles reflect this store's current read path
			// (puts stay untouched — stats never mutates).
			if kvs, err := db.Scan(nil, nil, 512); err == nil {
				for _, kvp := range kvs {
					_, _ = db.Get(kvp.Key)
				}
			}
		}
		fmt.Println(db.Stats().Text(verbose))
	case "workload":
		renderWorkload(os.Stdout, db.Stats().Workload)
	case "events":
		// Events are recorded per process; the dump covers this session
		// (open + WAL recovery, plus an optional manual compaction).
		if len(args) > 1 && args[1] == "compact" {
			if err := db.Compact(); err != nil {
				fatal(err)
			}
		}
		evs := ring.Events()
		for _, e := range evs {
			fmt.Println(e)
		}
		if dropped := ring.Total() - uint64(len(evs)); dropped > 0 {
			fmt.Printf("(%d older events dropped by the ring bound)\n", dropped)
		}
	case "compact":
		if err := db.Compact(); err != nil {
			fatal(err)
		}
		fmt.Println(db.Stats().Tree)
	case "scrub":
		reps, err := db.ScrubShards()
		if err != nil {
			fatal(err)
		}
		// A sharded store reports one row per shard, then the total —
		// merged from the reports in hand: scrubbing again would miss
		// the tables this pass already quarantined.
		total := ""
		if len(reps) > 1 {
			for i, rep := range reps {
				fmt.Printf("shard %03d %s\n", i, rep)
			}
			total = "total "
		}
		fmt.Printf("%s%s\n", total, partition.MergeScrubReports(reps))
	case "health":
		h := db.Stats().Health
		printHealth(h.Degraded, h.Op, h.Kind, h.Cause)
		if h.BgErr != "" {
			fmt.Printf("last_bg_err op=%s: %s\n", h.BgErrOp, h.BgErr)
		}
	case "checkpoint":
		need(args, 2)
		if err := db.Checkpoint(args[1]); err != nil {
			fatal(err)
		}
		fmt.Printf("checkpoint written to %s\n", args[1])
	case "retune":
		need(args, 2)
		s, err := compaction.ParseStrategy(args[1])
		if err != nil {
			fatal(err)
		}
		ratio := 0
		if len(args) > 2 {
			ratio, _ = strconv.Atoi(args[2])
		}
		if err := db.SetShape(s.Layout, ratio); err != nil {
			fatal(err)
		}
		db.WaitIdle()
		name, T := db.Shape()
		fmt.Printf("reshaped to %s (T=%d)\n%s\n", name, T, db.Stats().Tree)
	case "bench":
		need(args, 2)
		n, err := strconv.Atoi(args[1])
		if err != nil {
			fatal(err)
		}
		gen := workload.New(workload.Config{Seed: time.Now().UnixNano(), KeySpace: int64(n), ValueLen: 100})
		start := time.Now()
		for i := 0; i < n; i++ {
			op := gen.Next()
			if err := db.Put(op.Key, op.Value); err != nil {
				fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			fatal(err)
		}
		// Read a sample back so the get histogram has data too.
		for i := 0; i < n/10+1; i++ {
			op := gen.Next()
			if _, err := db.Get(op.Key); err != nil && !errors.Is(err, core.ErrNotFound) {
				fatal(err)
			}
		}
		el := time.Since(start)
		fmt.Printf("%d puts in %v (%.0f ops/s)\n%s\nevents recorded: %d (run 'lsmctl events' style dumps in-session)\n",
			n, el, float64(n)/el.Seconds(), db.Stats().Text(true), ring.Total())
	default:
		fatal(fmt.Errorf("unknown command %q", args[0]))
	}
}

// remote runs one command against a live lsmserved over the wire.
func remote(addr string, args []string) {
	cl, err := client.Dial(addr, client.Options{})
	if err != nil {
		fatal(err)
	}
	defer cl.Close()
	switch args[0] {
	case "put":
		need(args, 3)
		if err := cl.Put([]byte(args[1]), []byte(args[2])); err != nil {
			fatal(err)
		}
	case "get":
		need(args, 2)
		v, err := cl.Get([]byte(args[1]))
		if errors.Is(err, client.ErrNotFound) {
			fmt.Println("(not found)")
			return
		}
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n", v)
	case "delete":
		need(args, 2)
		if err := cl.Delete([]byte(args[1])); err != nil {
			fatal(err)
		}
	case "scan":
		// Over the wire, scan is prefix-based: scan <prefix> [limit].
		need(args, 2)
		limit := 100
		if len(args) > 2 {
			limit, _ = strconv.Atoi(args[2])
		}
		kvs, err := cl.Scan([]byte(args[1]), limit)
		if err != nil {
			fatal(err)
		}
		for _, kvp := range kvs {
			fmt.Printf("%s = %s\n", kvp.Key, kvp.Value)
		}
	case "stats":
		verbose := len(args) > 1 && (args[1] == "-v" || args[1] == "v")
		text, err := cl.Stats(verbose)
		if err != nil {
			fatal(err)
		}
		fmt.Println(text)
	case "workload":
		wp, err := fetchWorkload(cl)
		if err != nil {
			fatal(err)
		}
		renderWorkload(os.Stdout, wp)
	case "compact":
		if err := cl.Compact(); err != nil {
			fatal(err)
		}
		fmt.Println("compaction complete")
	case "health":
		h, err := cl.Health()
		if err != nil {
			fatal(err)
		}
		printHealth(h.Degraded, h.Op, h.Kind, h.Cause)
	case "top":
		if err := topCmd(cl, args[1:], os.Stdout); err != nil {
			fatal(err)
		}
	case "repl":
		if len(args) < 2 || args[1] != "status" {
			fatal(fmt.Errorf("usage: repl status"))
		}
		raw, err := cl.ReplStatus()
		if err != nil {
			fatal(err)
		}
		st, err := replica.ParseStatus(raw)
		if err != nil {
			fatal(err)
		}
		printReplStatus(st)
	default:
		fatal(fmt.Errorf("command %q is not available over -addr (remote commands: put get delete scan stats workload top compact health repl)", args[0]))
	}
}

// printReplStatus renders the leader's view of its followers: each
// follower's acked watermark vector against the leader's own, the
// total sequence lag, and how stale the last ack is.
func printReplStatus(st *replica.Status) {
	fmt.Printf("leader  watermark=%s\n", vecString(st.Leader))
	if len(st.Followers) == 0 {
		fmt.Println("followers: none")
		return
	}
	for i := range st.Followers {
		f := &st.Followers[i]
		fmt.Printf("follower %-16s acked=%s lag=%d last_ack=%s ago\n",
			f.ID, vecString(f.Acked), f.Lag(st.Leader),
			time.Duration(f.AckAgeNs).Round(time.Millisecond))
	}
}

func vecString(vec []uint64) string {
	s := "["
	for i, v := range vec {
		if i > 0 {
			s += " "
		}
		s += strconv.FormatUint(v, 10)
	}
	return s + "]"
}

// printHealth renders the shared health line for both the local and the
// wire form of the command.
func printHealth(degraded bool, op, kind, cause string) {
	if degraded {
		fmt.Printf("degraded=true op=%s kind=%s cause=%s\n", op, kind, cause)
		return
	}
	fmt.Println("degraded=false")
}

func need(args []string, n int) {
	if len(args) < n {
		fatal(fmt.Errorf("%s needs %d arguments", args[0], n-1))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lsmctl:", err)
	os.Exit(1)
}
