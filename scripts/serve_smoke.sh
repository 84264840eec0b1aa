#!/usr/bin/env bash
# End-to-end smoke of the serving layer: build lsmserved + lsmctl,
# start a server, round-trip put/get/scan/stats/compact over the wire
# with lsmctl -addr, then SIGTERM the server and verify it drains,
# checkpoints, exits cleanly, and left a durable store behind.
set -euo pipefail

cd "$(dirname "$0")/.."
work="$(mktemp -d)"
bin="$work/bin"
mkdir -p "$bin"
srv_pid=""
lead_pid=""

cleanup() {
  for p in "$srv_pid" "$lead_pid"; do
    if [[ -n "$p" ]] && kill -0 "$p" 2>/dev/null; then
      kill -9 "$p" 2>/dev/null || true
    fi
  done
  rm -rf "$work"
}
trap cleanup EXIT

echo "== build =="
go build -o "$bin/lsmserved" ./cmd/lsmserved
go build -o "$bin/lsmctl" ./cmd/lsmctl
go build -o "$bin/lsmbench" ./cmd/lsmbench

echo "== start server =="
"$bin/lsmserved" -db "$work/db" -addr 127.0.0.1:0 -addr-file "$work/addr" \
  -debug-addr 127.0.0.1:0 -debug-addr-file "$work/debug-addr" \
  -trace-sample 1 \
  -checkpoint-dir "$work/ckpt" -grace 10s >"$work/server.log" 2>&1 &
srv_pid=$!

for _ in $(seq 1 100); do
  [[ -s "$work/addr" && -s "$work/debug-addr" ]] && break
  kill -0 "$srv_pid" || { cat "$work/server.log"; echo "server died"; exit 1; }
  sleep 0.05
done
[[ -s "$work/addr" ]] || { echo "server never published its address"; exit 1; }
[[ -s "$work/debug-addr" ]] || { echo "server never published its debug address"; exit 1; }
addr="$(cat "$work/addr")"
debug="http://$(cat "$work/debug-addr")"
echo "server at $addr, debug plane at $debug"

ctl() { "$bin/lsmctl" -addr "$addr" "$@"; }

echo "== round trips =="
ctl put alpha 1
ctl put alphabet 2
ctl put beta 3
[[ "$(ctl get alpha)" == "1" ]] || { echo "get alpha mismatch"; exit 1; }
ctl delete beta
[[ "$(ctl get beta)" == "(not found)" ]] || { echo "deleted key still readable"; exit 1; }

scan_out="$(ctl scan alpha)"
echo "$scan_out"
[[ "$(echo "$scan_out" | wc -l)" -eq 2 ]] || { echo "scan expected 2 rows"; exit 1; }
echo "$scan_out" | grep -q '^alphabet = 2$' || { echo "scan missing alphabet"; exit 1; }

stats_out="$(ctl stats -v)"
echo "$stats_out" | grep -q 'server: conns_open=' || { echo "stats missing server block"; exit 1; }
echo "$stats_out" | grep -q 'request' || { echo "stats -v missing request latency"; exit 1; }
ctl compact

echo "== debug plane =="
metrics="$(curl -fsS "$debug/metrics")"
echo "$metrics" | grep -q '^lsmlab_puts_total ' || { echo "/metrics missing puts counter"; exit 1; }
echo "$metrics" | grep -q '^lsmlab_degraded 0$' || { echo "/metrics missing degraded gauge"; exit 1; }
echo "$metrics" | grep -q 'lsmlab_get_latency_ns{quantile="0.99"}' || { echo "/metrics missing get quantiles"; exit 1; }
echo "$metrics" | grep -q '^lsmlab_scrubbed_tables_total ' || { echo "/metrics missing scrub counters"; exit 1; }
echo "$metrics" | grep -q 'lsmlab_level_runs{level="0"}' || { echo "/metrics missing level gauges"; exit 1; }
echo "$metrics" | grep -q 'lsmlab_workload_ops{op="put"}' || { echo "/metrics missing workload op mix"; exit 1; }
echo "$metrics" | grep -q '^lsmlab_workload_read_amp ' || { echo "/metrics missing windowed read amp"; exit 1; }
echo "$metrics" | grep -q 'lsmlab_level_bytes_written_window{level="0",reason="flush"}' || { echo "/metrics missing per-level write attribution"; exit 1; }

echo "== workload profile =="
workload_json="$(curl -fsS "$debug/workload")"
echo "$workload_json" | grep -q '"enabled":true' || { echo "/workload profiler not enabled"; exit 1; }
echo "$workload_json" | grep -q '"levels":' || { echo "/workload missing per-level attribution"; exit 1; }
wl_out="$(ctl workload)"
echo "$wl_out"
echo "$wl_out" | grep -q '^window:' || { echo "lsmctl workload missing window line"; exit 1; }
echo "$wl_out" | grep -q '^rum:' || { echo "lsmctl workload missing rum line"; exit 1; }
echo "$wl_out" | grep -q '^L0 ' || { echo "lsmctl workload missing per-level rows"; exit 1; }

curl -fsS "$debug/healthz" | grep -c '"degraded":false' >/dev/null || { echo "/healthz not healthy"; exit 1; }
curl -fsS "$debug/events" | grep -c '"type":"conn-open"' >/dev/null || { echo "/events missing conn lifecycle"; exit 1; }
traces="$(curl -fsS "$debug/traces")"
echo "$traces" | grep -q '"op":"put"' || { echo "/traces missing put spans"; exit 1; }
echo "$traces" | grep -q '"stages"' || { echo "/traces spans carry no stages"; exit 1; }
prof_bytes="$(curl -fsS "$debug/debug/pprof/profile?seconds=1" | wc -c)"
[[ "$prof_bytes" -gt 0 ]] || { echo "pprof profile came back empty"; exit 1; }
echo "debug plane OK (cpu profile ${prof_bytes}B)"

echo "== bench json =="
"$bin/lsmbench" -addr "$addr" -conns 2 -ops 2000 -json "$work/bench.json" >/dev/null
grep -q '"mode": "net"' "$work/bench.json" || { echo "bench json missing mode"; exit 1; }
grep -q '"ops_per_sec"' "$work/bench.json" || { echo "bench json missing throughput"; exit 1; }
grep -q '"p99_ns"' "$work/bench.json" || { echo "bench json missing percentiles"; exit 1; }

echo "== graceful shutdown =="
kill -TERM "$srv_pid"
for _ in $(seq 1 200); do
  kill -0 "$srv_pid" 2>/dev/null || break
  sleep 0.05
done
if kill -0 "$srv_pid" 2>/dev/null; then
  cat "$work/server.log"; echo "server ignored SIGTERM"; exit 1
fi
wait "$srv_pid" || { cat "$work/server.log"; echo "server exited non-zero"; exit 1; }
srv_pid=""

grep -q 'draining' "$work/server.log" || { cat "$work/server.log"; echo "no drain line"; exit 1; }
grep -q 'checkpoint written' "$work/server.log" || { cat "$work/server.log"; echo "no checkpoint line"; exit 1; }
grep -q 'closed cleanly' "$work/server.log" || { cat "$work/server.log"; echo "no clean close line"; exit 1; }

echo "== durability =="
[[ "$("$bin/lsmctl" -db "$work/db" get alpha)" == "1" ]] || { echo "store lost alpha"; exit 1; }
# The workload command also works against a local open (fresh window).
"$bin/lsmctl" -db "$work/db" workload | grep -q '^window:' || { echo "local lsmctl workload failed"; exit 1; }
[[ "$("$bin/lsmctl" -db "$work/ckpt" get alphabet)" == "2" ]] || { echo "checkpoint lost alphabet"; exit 1; }

echo "== scrub =="
scrub_out="$("$bin/lsmctl" -db "$work/db" scrub)"
echo "$scrub_out"
echo "$scrub_out" | grep -q 'corrupt=0' || { echo "clean store reported corruption"; exit 1; }

# Corrupt a live table in place (4 bytes inside the first data block)
# and require the scrubber to detect and quarantine it without crashing.
sst="$(ls "$work/db"/*.sst | head -n 1)"
printf '\xde\xad\xbe\xef' | dd of="$sst" bs=1 seek=16 conv=notrunc status=none
scrub_out="$("$bin/lsmctl" -db "$work/db" scrub)"
echo "$scrub_out"
echo "$scrub_out" | grep -q 'corrupt=1' || { echo "scrub missed the corrupted table"; exit 1; }
echo "$scrub_out" | grep -q 'quarantined=true' || { echo "corrupted table not quarantined"; exit 1; }
ls "$work/db"/*.corrupt >/dev/null || { echo "no quarantined .corrupt file on disk"; exit 1; }

# Reads after quarantine degrade to honest not-found, never a crash.
post="$("$bin/lsmctl" -db "$work/db" get alpha)"
[[ "$post" == "1" || "$post" == "(not found)" ]] || { echo "read after quarantine returned garbage: $post"; exit 1; }

echo "== live degradation on the debug plane =="
# A second server over a churn-heavy store: tiny memtables force many
# flushes and background compactions. Corrupting the live tables makes
# the next compaction fail with a corruption error, which degrades the
# engine — visible as /healthz 503 and the degraded gauge flipping.
"$bin/lsmserved" -db "$work/db2" -addr 127.0.0.1:0 -addr-file "$work/addr2" \
  -debug-addr 127.0.0.1:0 -debug-addr-file "$work/debug-addr2" \
  -buffer-bytes 2048 -cache-bytes 0 -grace 5s >"$work/server2.log" 2>&1 &
srv_pid=$!
for _ in $(seq 1 100); do
  [[ -s "$work/addr2" && -s "$work/debug-addr2" ]] && break
  kill -0 "$srv_pid" || { cat "$work/server2.log"; echo "server2 died"; exit 1; }
  sleep 0.05
done
addr2="$(cat "$work/addr2")"
debug2="http://$(cat "$work/debug-addr2")"

"$bin/lsmbench" -addr "$addr2" -conns 2 -ops 1000 >/dev/null
for _ in $(seq 1 100); do
  ls "$work/db2"/*.sst >/dev/null 2>&1 && break
  sleep 0.05
done
for sst in "$work/db2"/*.sst; do
  printf '\xde\xad\xbe\xef' | dd of="$sst" bs=1 seek=16 conv=notrunc status=none
done
# More writes trigger fresh flushes and compactions over the now-bad
# tables; tolerate write failures once the engine turns read-only.
"$bin/lsmbench" -addr "$addr2" -conns 2 -ops 2000 >/dev/null 2>&1 || true

degraded_seen=""
for _ in $(seq 1 200); do
  code="$(curl -s -o "$work/healthz2.json" -w '%{http_code}' "$debug2/healthz")"
  if [[ "$code" == "503" ]]; then degraded_seen=1; break; fi
  "$bin/lsmbench" -addr "$addr2" -conns 2 -ops 500 >/dev/null 2>&1 || true
  sleep 0.05
done
[[ -n "$degraded_seen" ]] || { cat "$work/server2.log"; echo "engine never degraded"; exit 1; }
grep -q '"degraded":true' "$work/healthz2.json" || { echo "/healthz 503 without degraded flag"; exit 1; }
grep -q '"kind":"corruption"' "$work/healthz2.json" || { echo "degradation not classified as corruption"; exit 1; }
# Capture before grepping: under pipefail, grep -q quitting at the
# first match would fail curl with a broken pipe.
metrics2="$(curl -fsS "$debug2/metrics")"
echo "$metrics2" | grep -q '^lsmlab_degraded 1$' || { echo "degraded gauge not 1"; exit 1; }
curl -fsS "$debug2/events" | grep -c '"type":"degraded"' >/dev/null || { echo "/events missing degraded transition"; exit 1; }
kill -9 "$srv_pid" 2>/dev/null || true
srv_pid=""
echo "degradation visible on the debug plane"

echo "== sharded serving =="
# A third server over 4 hash-routed shards: round trips route by key,
# scans merge the shards into one ordered stream, stats carry per-shard
# rows, and the layout survives a restart with the count read from the
# store's SHARDS descriptor.
"$bin/lsmserved" -db "$work/db3" -shards 4 -addr 127.0.0.1:0 -addr-file "$work/addr3" \
  -grace 10s >"$work/server3.log" 2>&1 &
srv_pid=$!
for _ in $(seq 1 100); do
  [[ -s "$work/addr3" ]] && break
  kill -0 "$srv_pid" || { cat "$work/server3.log"; echo "sharded server died"; exit 1; }
  sleep 0.05
done
addr3="$(cat "$work/addr3")"
ctl3() { "$bin/lsmctl" -addr "$addr3" "$@"; }

for i in $(seq 1 32); do ctl3 put "sh-key-$i" "val-$i"; done
[[ "$(ctl3 get sh-key-7)" == "val-7" ]] || { echo "sharded get mismatch"; exit 1; }
ctl3 delete sh-key-7
[[ "$(ctl3 get sh-key-7)" == "(not found)" ]] || { echo "sharded delete not visible"; exit 1; }

scan3="$(ctl3 scan sh-)"
[[ "$(echo "$scan3" | wc -l)" -eq 31 ]] || { echo "$scan3"; echo "sharded scan expected 31 rows"; exit 1; }
echo "$scan3" | LC_ALL=C sort -c || { echo "sharded scan not globally ordered"; exit 1; }

stats3="$(ctl3 stats)"
echo "$stats3" | grep -q 'shard 000:' || { echo "stats missing per-shard rows"; exit 1; }
echo "$stats3" | grep -q 'shard 003:' || { echo "stats missing shard 003 row"; exit 1; }

"$bin/lsmbench" -addr "$addr3" -conns 2 -ops 2000 >/dev/null

# The workload profile aggregates across shards over the wire: the op
# counts sum the per-shard windows and the per-level rows merge.
wl3="$(ctl3 workload)"
echo "$wl3" | grep -q '^window:' || { echo "sharded workload missing window line"; exit 1; }
echo "$wl3" | grep -q '^L0 ' || { echo "sharded workload missing merged level rows"; exit 1; }
echo "$wl3" | grep -Eq '^mix: +get' || { echo "sharded workload missing mix line"; exit 1; }
ctl3 stats | grep -q '^workload: ' || { echo "sharded stats missing workload line"; exit 1; }

kill -TERM "$srv_pid"
for _ in $(seq 1 200); do
  kill -0 "$srv_pid" 2>/dev/null || break
  sleep 0.05
done
wait "$srv_pid" || { cat "$work/server3.log"; echo "sharded server exited non-zero"; exit 1; }
srv_pid=""
grep -q 'closed cleanly' "$work/server3.log" || { cat "$work/server3.log"; echo "sharded server no clean close"; exit 1; }

echo "== sharded durability + layout guard =="
ls -d "$work/db3"/part-000 "$work/db3"/part-003 "$work/db3"/SHARDS >/dev/null || { echo "shard directories or descriptor missing"; exit 1; }
[[ ! -e "$work/db3/MANIFEST" ]] || { echo "a flat tree appeared beside the shards"; exit 1; }
# lsmctl -db opens the store with the count its descriptor records.
[[ "$("$bin/lsmctl" -db "$work/db3" get sh-key-12)" == "val-12" ]] || { echo "sharded store lost sh-key-12"; exit 1; }
# So does a restart with no -shards flag: 4 shards, and a key from
# before the restart.
rm -f "$work/addr3"
"$bin/lsmserved" -db "$work/db3" -addr 127.0.0.1:0 -addr-file "$work/addr3" \
  -grace 10s >"$work/server3b.log" 2>&1 &
srv_pid=$!
for _ in $(seq 1 100); do
  [[ -s "$work/addr3" ]] && break
  kill -0 "$srv_pid" || { cat "$work/server3b.log"; echo "restarted sharded server died"; exit 1; }
  sleep 0.05
done
addr3="$(cat "$work/addr3")"
ctl3 stats | grep -q '^shards=4$' || { ctl3 stats; echo "restart without -shards did not come back with 4 shards"; exit 1; }
[[ "$(ctl3 get sh-key-12)" == "val-12" ]] || { echo "restart without -shards lost sh-key-12"; exit 1; }
kill -TERM "$srv_pid"
wait "$srv_pid" || { cat "$work/server3b.log"; echo "restarted sharded server exited non-zero"; exit 1; }
srv_pid=""
# A reopen with the wrong count must be refused, never silently misroute.
if timeout 10 "$bin/lsmserved" -db "$work/db3" -shards 2 -addr 127.0.0.1:0 >"$work/server4.log" 2>&1; then
  echo "server accepted a mismatched shard count"; exit 1
fi
grep -q 'shard count' "$work/server4.log" || { cat "$work/server4.log"; echo "mismatched reopen gave no shard-count error"; exit 1; }

echo "== sharded scrub =="
# Flush everything to tables, corrupt one inside a single shard, and
# require the scrubber to pin the damage to that shard's row while the
# other shards stay clean — then quarantine it without crashing reads.
"$bin/lsmctl" -db "$work/db3" compact >/dev/null
sst="$(ls "$work/db3"/part-*/*.sst | head -n 1)"
shard_dir="$(basename "$(dirname "$sst")")"
idx="${shard_dir#part-}"
printf '\xde\xad\xbe\xef' | dd of="$sst" bs=1 seek=16 conv=notrunc status=none
scrub3="$("$bin/lsmctl" -db "$work/db3" scrub)"
echo "$scrub3"
echo "$scrub3" | grep -q "^shard $idx scrub: .*corrupt=1" || { echo "scrub missed corruption in $shard_dir"; exit 1; }
[[ "$(echo "$scrub3" | grep -c '^shard .*corrupt=1')" -eq 1 ]] || { echo "corruption bled across shard rows"; exit 1; }
echo "$scrub3" | grep -q "corrupt $shard_dir/.*quarantined=true" || { echo "finding not quarantined under $shard_dir"; exit 1; }
echo "$scrub3" | grep -q '^total scrub: .*corrupt=1' || { echo "total row lost the corruption count"; exit 1; }
ls "$work/db3/$shard_dir"/*.corrupt >/dev/null || { echo "no quarantined .corrupt file in $shard_dir"; exit 1; }
post3="$("$bin/lsmctl" -db "$work/db3" get sh-key-12)"
[[ "$post3" == "val-12" || "$post3" == "(not found)" ]] || { echo "sharded read after quarantine returned garbage: $post3"; exit 1; }
echo "sharded serving OK"

echo "== multi-tenant overload =="
# A sharded sync-WAL server with a per-tenant token-bucket quota. The
# overload bench hammers tenant t0 at 4x its quota while t1 stays
# polite: t0's excess must come back as throttles carrying retry-after
# hints, t1 must not see a single rejection, and the per-tenant
# counters must reach both STATS and /metrics.
"$bin/lsmserved" -db "$work/db5" -shards 2 -addr 127.0.0.1:0 -addr-file "$work/addr5" \
  -debug-addr 127.0.0.1:0 -debug-addr-file "$work/debug-addr5" \
  -tenant-quota 'default:ops=60,burst=0.5' -stall-timeout 500ms \
  -grace 10s >"$work/server5.log" 2>&1 &
srv_pid=$!
for _ in $(seq 1 100); do
  [[ -s "$work/addr5" && -s "$work/debug-addr5" ]] && break
  kill -0 "$srv_pid" || { cat "$work/server5.log"; echo "quota server died"; exit 1; }
  sleep 0.05
done
addr5="$(cat "$work/addr5")"
debug5="http://$(cat "$work/debug-addr5")"
grep -q 'admission control enforcing' "$work/server5.log" || { cat "$work/server5.log"; echo "no admission banner"; exit 1; }

"$bin/lsmbench" -addr "$addr5" -tenants 2 -quota ops=60,burst=0.5 -ops 240 \
  -json "$work/tenants.json" | tee "$work/tenants.txt"
grep -Eq 'tenant t0: .*throttled=[1-9]' "$work/tenants.txt" || { echo "overloaded tenant never throttled"; exit 1; }
grep -Eq 'tenant t0: .*retry_after=[1-9]' "$work/tenants.txt" || { echo "throttles carried no retry-after hint"; exit 1; }
grep -Eq 'tenant t1: .*throttled=0 ' "$work/tenants.txt" || { echo "polite tenant was throttled"; exit 1; }
grep -q '"mode": "net-tenants"' "$work/tenants.json" || { echo "tenants json missing mode"; exit 1; }
grep -q '"throttle_rate"' "$work/tenants.json" || { echo "tenants json missing throttle rate"; exit 1; }

"$bin/lsmctl" -addr "$addr5" stats >"$work/stats5.txt"
grep -q 'tenant t0:' "$work/stats5.txt" || { cat "$work/stats5.txt"; echo "stats missing tenant t0 row"; exit 1; }
grep -Eq 'server: .*throttled=[1-9]' "$work/stats5.txt" || { cat "$work/stats5.txt"; echo "server stats line missing throttle count"; exit 1; }

# The profiler's per-tenant breakdown reaches the workload command and
# the tenant label family stays on /metrics under the cardinality cap.
# Tenant rows come from sampled observations (1-in-32), so push more
# quota-paced traffic until they surface (expected on the first try).
tenant_rows=""
for _ in $(seq 1 10); do
  wl5="$("$bin/lsmctl" -addr "$addr5" workload)"
  if echo "$wl5" | grep -q '^tenant t[01] '; then tenant_rows=1; break; fi
  "$bin/lsmbench" -addr "$addr5" -tenants 2 -quota ops=60,burst=0.5 -ops 120 >/dev/null 2>&1 || true
done
[[ -n "$tenant_rows" ]] || { echo "$wl5"; echo "workload missing per-tenant rows"; exit 1; }

# Capture before grepping (pipefail + grep -q would break curl's pipe).
metrics5="$(curl -fsS "$debug5/metrics")"
echo "$metrics5" | grep -Eq 'lsmlab_workload_tenant_ops\{tenant="t[01]"\}' || { echo "/metrics missing workload tenant gauge"; exit 1; }
echo "$metrics5" | grep -Eq 'lsmlab_tenant_throttled_total\{tenant="t0"\} [1-9]' || { echo "/metrics missing t0 throttle counter"; exit 1; }
echo "$metrics5" | grep -q 'lsmlab_tenant_requests_total{tenant="t1"}' || { echo "/metrics missing t1 request counter"; exit 1; }
echo "$metrics5" | grep -Eq '^lsmlab_net_throttled_total [1-9]' || { echo "/metrics net throttle total did not move"; exit 1; }

kill -TERM "$srv_pid"
for _ in $(seq 1 200); do
  kill -0 "$srv_pid" 2>/dev/null || break
  sleep 0.05
done
wait "$srv_pid" || { cat "$work/server5.log"; echo "quota server exited non-zero"; exit 1; }
srv_pid=""
echo "multi-tenant overload OK"

echo "== replication =="
# A leader and a -follow read replica as separate processes: writes
# through the leader become readable on the follower, the client pool
# enforces read-your-writes across the replica over the wire, direct
# follower writes are refused with the typed read-only error, and a
# dd-corrupted follower table is quarantined and re-shipped by Merkle
# anti-entropy.
"$bin/lsmserved" -db "$work/rldr" -addr 127.0.0.1:0 -addr-file "$work/raddr" \
  -grace 10s >"$work/leader.log" 2>&1 &
lead_pid=$!
for _ in $(seq 1 100); do
  [[ -s "$work/raddr" ]] && break
  kill -0 "$lead_pid" || { cat "$work/leader.log"; echo "repl leader died"; exit 1; }
  sleep 0.05
done
raddr="$(cat "$work/raddr")"

start_follower() {
  "$bin/lsmserved" -db "$work/rfol" -follow "$raddr" -follow-session 2s \
    -addr 127.0.0.1:0 -addr-file "$work/faddr" "$@" \
    -grace 10s >>"$work/follower.log" 2>&1 &
  srv_pid=$!
  for _ in $(seq 1 100); do
    [[ -s "$work/faddr" ]] && break
    kill -0 "$srv_pid" || { cat "$work/follower.log"; echo "follower died"; exit 1; }
    sleep 0.05
  done
  faddr="$(cat "$work/faddr")"
}
start_follower -buffer-bytes 8192
grep -q 'read replica following' "$work/follower.log" || { cat "$work/follower.log"; echo "follower did not announce follow mode"; exit 1; }

ctlr() { "$bin/lsmctl" -addr "$raddr" "$@"; }
ctlf() { "$bin/lsmctl" -addr "$faddr" "$@"; }

ctlr put repl-key repl-value
caught=""
for _ in $(seq 1 200); do
  [[ "$(ctlf get repl-key)" == "repl-value" ]] && { caught=1; break; }
  sleep 0.05
done
[[ -n "$caught" ]] || { cat "$work/follower.log"; echo "write never replicated to the follower"; exit 1; }

# Direct follower writes are refused as replica writes.
if ctlf put nope nope 2>"$work/fput.err"; then
  echo "follower accepted a direct write"; exit 1
fi
grep -q 'read replica' "$work/fput.err" || { cat "$work/fput.err"; echo "refusal lacks the read-replica error"; exit 1; }

# The leader's status block shows the acked follower.
ctlr repl status | grep -q 'follower' || { echo "repl status missing the follower row"; exit 1; }

# Read-your-writes over the wire: lsmbench writes through the leader,
# then fans reads across the follower with every read checked against
# the freshness token (a stale replica answer would fail the run).
"$bin/lsmbench" -addr "$raddr" -replicas "$faddr" -conns 2 -ops 4000 >"$work/replbench.txt"
grep -q 'replica readback' "$work/replbench.txt" || { cat "$work/replbench.txt"; echo "bench missing replica readback"; exit 1; }

# The leader's repl counters moved.
ctlr stats | grep -q 'repl: subscribes=' || { echo "leader stats missing repl line"; exit 1; }

# At-rest corruption heals: stop the follower, flip bytes inside one of
# its tables, restart cold (no block cache), and require anti-entropy to
# quarantine the damage and re-ship the range.
kill -TERM "$srv_pid"
for _ in $(seq 1 200); do
  kill -0 "$srv_pid" 2>/dev/null || break
  sleep 0.05
done
wait "$srv_pid" || { cat "$work/follower.log"; echo "follower exited non-zero"; exit 1; }
srv_pid=""
ls "$work/rfol"/*.sst >/dev/null 2>&1 || { echo "follower never flushed a table"; exit 1; }
fsst="$(ls "$work/rfol"/*.sst | head -n 1)"
printf '\xde\xad\xbe\xef' | dd of="$fsst" bs=1 seek=16 conv=notrunc status=none
ctlr put repl-after after-value
rm -f "$work/faddr"
start_follower -cache-bytes 0
repaired=""
for _ in $(seq 1 400); do
  if ls "$work/rfol"/*.corrupt >/dev/null 2>&1 \
    && [[ "$(ctlf get repl-key)" == "repl-value" ]] \
    && [[ "$(ctlf get repl-after)" == "after-value" ]]; then
    repaired=1; break
  fi
  sleep 0.05
done
[[ -n "$repaired" ]] || { cat "$work/follower.log"; echo "anti-entropy never repaired the corrupted follower"; exit 1; }

kill -TERM "$srv_pid"; wait "$srv_pid" || true; srv_pid=""
kill -TERM "$lead_pid"; wait "$lead_pid" || true; lead_pid=""
echo "replication OK"

echo "serve smoke OK"
