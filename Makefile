# lsmlab build and reproduction targets. Everything is stdlib Go and
# runs offline.

GO ?= go

.PHONY: all build test race bench bench-write bench-smoke bench-gate tables examples cover serve-smoke fuzz-wire torture torture-repl clean

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test ./internal/... -race

# One testing.B target per experiment plus micro/ablation benches.
bench:
	$(GO) test -bench=. -benchmem ./...

# Write-path focus: group-commit scaling and batch-reuse allocations.
bench-write:
	$(GO) test -run '^$$' -bench 'BenchmarkPutParallel|BenchmarkBatchReuse' -benchmem .

# Quick benchmark smoke (CI): one iteration of every testing.B bench
# (the benchmark's own smoke test runs under `go test ./...`).
bench-smoke:
	$(GO) test -bench=. -benchtime=1x ./...
	# Profiler cost gates: the always-on workload profiler must keep the
	# get hot path allocation-free and within 3% of a profiler-off build.
	$(GO) test ./internal/core -run 'TestGetHotZeroAllocs' -count=1
	PROFILER_GUARD=1 $(GO) test ./internal/core -run 'TestProfilerOverheadGuard' -count=1 -v

# The performance gate (what CI's bench-gate job runs): BENCHMARK.json's
# four workloads on ten interleaved parent/change pairs, judged by
# `benchmark compare`; the table lands in bench_gate.txt. About 35 min.
bench-gate:
	./scripts/bench_gate.sh

# Regenerate every experiment table at full scale (EXPERIMENTS.md data).
tables:
	$(GO) run ./cmd/lsmbench -exp all | tee bench_tables.txt

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/timeseries
	$(GO) run ./examples/privacy
	$(GO) run ./examples/tuning
	$(GO) run ./examples/counters

# End-to-end smoke of the serving layer: lsmserved + lsmctl -addr
# round trips, graceful SIGTERM drain, checkpoint, durability.
serve-smoke:
	./scripts/serve_smoke.sh

# Randomized crash+fault torture: 250 seeded iterations of inject one
# fault, crash, reopen, verify no acknowledged write was lost.
torture:
	TORTURE_ITERS=250 $(GO) test ./internal/core -run 'TestTorture' -count=1 -v

# Replication torture: 50 seeded crash+bit-rot storms against a live
# leader/follower pair. Each storm crashes the follower mid-stream,
# corrupts or deletes its replication state, and flips bits in its
# tables; convergence means identical Merkle roots and every
# acknowledged leader write readable on the follower.
torture-repl:
	TORTURE_REPL_ITERS=50 $(GO) test ./internal/replica -race -run TestReplicationTortureConvergence -count=1 -v

# Short fuzz runs over every decoder of outside bytes: the wire-protocol
# codec (CI runs 30s), the store descriptor (16 bytes; 10s), the WAL
# frame + batch decoder a follower runs on shipped bytes (10s), then 5s
# each for the decoders of bytes at rest — record framing and sealing,
# the manifest snapshot, sstable blocks (with iteration), properties and
# range tombstones, the value-log record and the replication state —
# and 5s each for the server's request handling (arbitrary frames over
# a pipe), the replication repair request and page, and the quota
# config file. Each target's seed corpus also runs under plain
# `go test`.
fuzz-wire:
	$(GO) test ./internal/wire -run '^$$' -fuzz FuzzDecodeFrame -fuzztime 30s
	$(GO) test ./internal/partition -run '^$$' -fuzz FuzzDecodeDescriptor -fuzztime 10s
	$(GO) test ./internal/wal -run '^$$' -fuzz FuzzDecodeFrame -fuzztime 10s
	$(GO) test ./internal/record -run '^$$' -fuzz FuzzRecord -fuzztime 5s
	$(GO) test ./internal/manifest -run '^$$' -fuzz FuzzDecodeState -fuzztime 5s
	$(GO) test ./internal/sstable -run '^$$' -fuzz FuzzDecodeBlock -fuzztime 5s
	$(GO) test ./internal/sstable -run '^$$' -fuzz FuzzDecodeProperties -fuzztime 5s
	$(GO) test ./internal/sstable -run '^$$' -fuzz FuzzDecodeRangeTombstones -fuzztime 5s
	$(GO) test ./internal/wisckey -run '^$$' -fuzz FuzzParseRecord -fuzztime 5s
	$(GO) test ./internal/replica -run '^$$' -fuzz FuzzDecodeState -fuzztime 5s
	$(GO) test ./internal/server -run '^$$' -fuzz FuzzHandle -fuzztime 5s
	$(GO) test ./internal/replica -run '^$$' -fuzz FuzzParseRepairReq -fuzztime 5s
	$(GO) test ./internal/replica -run '^$$' -fuzz FuzzParseRepairPage -fuzztime 5s
	$(GO) test ./internal/admission -run '^$$' -fuzz FuzzParseConfig -fuzztime 5s

# Coverage over the engine packages: per-package summary (the `ok`
# lines), then a blocking floor on the combined total. CI fails the
# cover job below COVER_FLOOR.
COVER_FLOOR ?= 70
cover:
	$(GO) test -coverprofile=coverage.out ./internal/...
	@total=$$($(GO) tool cover -func=coverage.out | tail -n 1 | awk '{gsub(/%/,""); print $$NF}'); \
	echo "total coverage: $$total% (floor: $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit !(t+0 >= f+0) }' \
		|| { echo "FAIL: total coverage $$total% is below the $(COVER_FLOOR)% floor"; exit 1; }

clean:
	rm -f bench_tables.txt coverage.out bench_gate.txt
