// Command lsmserved serves an lsmlab database over TCP, speaking the
// length-prefixed binary protocol of internal/wire. Pipelined writes
// from many connections funnel into the engine's leader-based group
// commit, so network concurrency turns directly into WAL batching.
//
// Usage:
//
//	lsmserved -db /var/lib/lsm -addr :4700
//
// On SIGTERM or SIGINT the server drains gracefully: it stops
// accepting, finishes every in-flight request, optionally writes a
// checkpoint, and closes the store.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"lsmlab/internal/admission"
	"lsmlab/internal/compaction"
	"lsmlab/internal/core"
	"lsmlab/internal/events"
	"lsmlab/internal/partition"
	"lsmlab/internal/replica"
	"lsmlab/internal/server"
	"lsmlab/internal/trace"
	"lsmlab/internal/vfs"
)

func main() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	if err := run(os.Args[1:], sig, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "lsmserved:", err)
		os.Exit(1)
	}
}

// run is main minus the process glue, so tests can drive the full
// serve → signal → drain → checkpoint → close lifecycle in-process.
func run(args []string, sig <-chan os.Signal, out io.Writer) error {
	fs := flag.NewFlagSet("lsmserved", flag.ContinueOnError)
	var (
		dbPath        = fs.String("db", "", "database directory (required)")
		shards        = fs.Int("shards", 0, "shard count: 0 opens whatever -db holds (a fresh directory becomes one flat tree), N>1 creates or requires N hash-routed LSM shards, 1 requires the flat single tree; a count that disagrees with the directory is refused")
		follow        = fs.String("follow", "", "run as a read replica of the leader at this address: the store opens read-only, streams the leader's WAL, and converges through Merkle anti-entropy")
		followID      = fs.String("follow-id", "", "stable follower identity reported to the leader (default: the -db path)")
		followSession = fs.Duration("follow-session", 0, "replication session length: periodic anti-entropy (silent bit-rot detection and repair) runs at each session boundary (default 30s)")
		addr          = fs.String("addr", "127.0.0.1:4700", "listen address (host:port; port 0 picks one)")
		addrFile      = fs.String("addr-file", "", "write the bound address to this file (for port-0 discovery)")
		maxConns      = fs.Int("max-conns", 256, "maximum concurrent connections")
		maxReqBytes   = fs.Int("max-request-bytes", 0, "maximum request frame size (default 4MiB)")
		writeTimeout  = fs.Duration("write-timeout", 10*time.Second, "per-write slow-client timeout")
		reqTimeout    = fs.Duration("request-timeout", 0, "per-request execution budget (0 = unlimited)")
		idleTimeout   = fs.Duration("idle-timeout", 0, "drop connections idle this long (0 = never)")
		grace         = fs.Duration("grace", 30*time.Second, "drain budget on shutdown before severing connections")
		checkpointDir = fs.String("checkpoint-dir", "", "write a checkpoint here after draining (optional)")
		strategy      = fs.String("strategy", "", "compaction strategy, e.g. 'lazy-leveling(4)/partial/tombstone-density'")
		sizeRatio     = fs.Int("T", 0, "size ratio between level capacities (default 10)")
		syncWAL       = fs.Bool("sync-wal", true, "fsync the WAL on commit (group commit amortizes the cost)")
		bufferBytes   = fs.Int("buffer-bytes", 0, "memtable size that triggers a flush (default 1MiB; tiny values force churn for tests)")
		cacheBytes    = fs.Int("cache-bytes", -1, "block cache capacity (-1 = engine default 8MiB, 0 = disabled)")
		recordLat     = fs.Bool("record-latencies", true, "maintain per-operation latency histograms (stats -v, /metrics)")
		debugAddr     = fs.String("debug-addr", "", "HTTP debug listener: /metrics, /healthz, /events, /traces, /debug/pprof (off when empty)")
		debugAddrFile = fs.String("debug-addr-file", "", "write the bound debug address to this file (for port-0 discovery)")
		traceSample   = fs.Int("trace-sample", 0, "retain every Nth request span (1 = all, 0 = only slow/wire-traced)")
		traceSlow     = fs.Duration("trace-slow", 0, "always retain spans at least this slow (0 = off)")
		traceRing     = fs.Int("trace-ring", 1024, "capacity of the captured-span ring served at /traces")
		quotaFile     = fs.String("quota-file", "", "JSON quota config file: {\"default\":{...},\"global\":{...},\"tenants\":{name:{...}}} with ops_per_sec/bytes_per_sec/burst_sec fields")
		stallTimeout  = fs.Duration("stall-timeout", 0, "abort writes stalled on backpressure longer than this, answering them with a retryable throttle instead of blocking the connection (0 = block until room)")
	)
	var tenantQuotas []string
	fs.Func("tenant-quota", "per-tenant quota 'name:ops=N,bytes=N[,burst=SEC]' (repeatable; the names 'default' and 'global' set the per-tenant default and the server-wide cap)", func(v string) error {
		tenantQuotas = append(tenantQuotas, v)
		return nil
	})
	fs.SetOutput(out)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dbPath == "" {
		return fmt.Errorf("-db is required")
	}

	// Quotas: the file (if any) is the base, -tenant-quota flags layer
	// on top so one tenant can be tweaked without rewriting the file.
	var admCfg admission.Config
	if *quotaFile != "" {
		data, err := os.ReadFile(*quotaFile)
		if err != nil {
			return err
		}
		if admCfg, err = admission.ParseConfig(data); err != nil {
			return fmt.Errorf("-quota-file: %w", err)
		}
	}
	for _, spec := range tenantQuotas {
		name, qs, ok := strings.Cut(spec, ":")
		if !ok {
			return fmt.Errorf("-tenant-quota %q: want name:ops=N,bytes=N", spec)
		}
		q, err := admission.ParseQuota(qs)
		if err != nil {
			return fmt.Errorf("-tenant-quota %q: %w", spec, err)
		}
		switch name {
		case "default":
			admCfg.Default = q
		case "global":
			admCfg.Global = q
		default:
			if admCfg.Tenants == nil {
				admCfg.Tenants = make(map[string]admission.Quota)
			}
			admCfg.Tenants[name] = q
		}
	}
	controller := admission.NewController(admCfg)

	opts := core.DefaultOptions(vfs.NewOS(), *dbPath)
	opts.StallTimeout = *stallTimeout
	opts.SyncWAL = *syncWAL
	opts.RecordLatencies = *recordLat
	if *bufferBytes > 0 {
		opts.BufferBytes = *bufferBytes
	}
	if *cacheBytes >= 0 {
		opts.CacheBytes = *cacheBytes
	}
	ring := events.NewRing(4096)
	opts.EventListener = ring
	// The tracer is always attached: with no sampling and no slow
	// threshold it retains nothing on its own, but wire-propagated
	// trace ids from clients still land spans in the /traces ring.
	tracer := trace.New(trace.Options{
		SampleEvery: *traceSample,
		SlowNs:      int64(*traceSlow),
		RingSize:    *traceRing,
	})
	opts.Tracer = tracer
	if *strategy != "" {
		s, err := compaction.ParseStrategy(*strategy)
		if err != nil {
			return err
		}
		opts.Layout = s.Layout
		opts.Granularity = s.Granularity
		opts.MovePolicy = s.MovePolicy
	}
	if *sizeRatio > 1 {
		opts.SizeRatio = *sizeRatio
	}
	if *follow != "" {
		if opts.ValueSeparationThreshold > 0 {
			return fmt.Errorf("-follow does not support value separation (the leader's value-log pointers are local to it)")
		}
		opts.Replica = true
	}
	db, err := partition.Open(opts, *shards)
	if err != nil {
		return err
	}
	defer db.Close()

	var (
		serveDB server.Engine = db
		repl    server.Replicator
		recv    *replica.Receiver
	)
	if *follow == "" {
		// Every leader can be followed; the hook is idle until a
		// follower subscribes.
		repl = replica.NewLeader(db.Shards(), replica.LeaderOptions{})
	} else {
		recv, err = replica.NewReceiver(replica.ReceiverOptions{
			Leader:        *follow,
			ID:            *followID,
			SessionLength: *followSession,
			FS:            opts.FS,
			Dir:           *dbPath,
			Shards:        db.Shards(),
			Logf: func(format string, args ...any) {
				fmt.Fprintf(out, "lsmserved: "+format+"\n", args...)
			},
		})
		if err != nil {
			return err
		}
		recv.Start()
		defer recv.Stop()
		// Serve reads through the receiver's applied vector so client
		// read-your-writes tokens compare against leader sequences.
		serveDB = replica.NewEngine(db, recv)
	}

	srv := server.New(serveDB, server.Options{
		MaxConns:        *maxConns,
		MaxRequestBytes: *maxReqBytes,
		WriteTimeout:    *writeTimeout,
		RequestTimeout:  *reqTimeout,
		IdleTimeout:     *idleTimeout,
		Repl:            repl,
		EventListener:   ring,
		Admission:       controller,
	})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound), 0o644); err != nil {
			ln.Close()
			return err
		}
	}
	fmt.Fprintf(out, "lsmserved: serving %s on %s\n", *dbPath, bound)
	if controller.Enforcing() {
		fmt.Fprintln(out, "lsmserved: admission control enforcing tenant quotas")
	}
	if *follow != "" {
		fmt.Fprintf(out, "lsmserved: read replica following %s\n", *follow)
	}

	// The debug plane listens separately so operators can firewall it
	// apart from the data port; it only reads, so it drains trivially.
	var debugSrv *http.Server
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			ln.Close()
			return fmt.Errorf("debug listener: %w", err)
		}
		debugBound := dln.Addr().String()
		if *debugAddrFile != "" {
			if err := os.WriteFile(*debugAddrFile, []byte(debugBound), 0o644); err != nil {
				ln.Close()
				dln.Close()
				return err
			}
		}
		debugSrv = &http.Server{Handler: srv.DebugHandler(ring, tracer)}
		go debugSrv.Serve(dln)
		fmt.Fprintf(out, "lsmserved: debug plane on http://%s\n", debugBound)
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case s := <-sig:
		fmt.Fprintf(out, "lsmserved: %v: draining (grace %v)\n", s, *grace)
	}

	// Drain: stop accepting, finish in-flight requests, flush
	// responses; then checkpoint (if asked) and close the store.
	if err := srv.Shutdown(*grace); err != nil {
		fmt.Fprintf(out, "lsmserved: drain: %v\n", err)
	}
	if debugSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		debugSrv.Shutdown(ctx)
		cancel()
	}
	if err := <-serveErr; err != nil {
		return err
	}
	if recv != nil {
		// Stop replication before the store closes: the final ack cycle
		// syncs the WAL and persists the applied watermark.
		recv.Stop()
	}
	if *checkpointDir != "" {
		if err := db.Checkpoint(*checkpointDir); err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
		fmt.Fprintf(out, "lsmserved: checkpoint written to %s\n", *checkpointDir)
	}
	if err := db.Close(); err != nil {
		return err
	}
	fmt.Fprintln(out, "lsmserved: closed cleanly")
	return nil
}
