#!/usr/bin/env bash
# bench_gate.sh — the one performance gate: the benchmark of
# BENCHMARK.json on interleaved parent/change pairs, judged by
# `benchmark compare` under the bounds BENCHMARK.json fixes.
#
# Usage: bench_gate.sh [parent-ref]
#
# The change is this checkout as it stands; the parent is parent-ref
# (default: the merge base with origin/main, or HEAD~1 when HEAD is on
# it), unpacked into a temporary directory. Ten pairs of
# `benchmark/run.sh --trace 0 --seed i` are run, the side that goes first
# alternating, because the host has slow spells that outlast a set
# (benchmark/calibration.txt: never two sets run apart). A workload with
# an "unresolved (spread > bound)" row is run for ten more pairs once; a
# row that stays unresolved is printed as such, not passed silently.
# The final table is left in bench_gate.txt, followed by ops_per_s pair
# by pair (a claimed gain has to win nine pairs of ten, which medians do
# not show). A regression or a missing row is a non-zero exit.
set -euo pipefail
cd "$(dirname "$0")/.."
repo="$PWD"
pairs=10 # the choosing-metrics guide's number

parent_ref="${1:-}"
if [ -z "$parent_ref" ]; then
    parent_ref="$(git merge-base HEAD origin/main)"
    if [ "$parent_ref" = "$(git rev-parse HEAD)" ]; then
        parent_ref="HEAD~1"
    fi
fi

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
mkdir "$work/parent"
git archive "$parent_ref" | tar -x -C "$work/parent"
echo "== parent $(git rev-parse --short "$parent_ref") in $work/parent, change in $repo =="

# run_pairs TAG [benchmark args]: $pairs interleaved runs per side, each
# side's runs merged into $work/parent-TAG.json and $work/change-TAG.json.
run_pairs() {
    local tag="$1" i side order
    shift
    for i in $(seq 1 "$pairs"); do
        order="parent change"
        if [ $((i % 2)) -eq 0 ]; then
            order="change parent"
        fi
        for side in $order; do
            local dir="$repo"
            if [ "$side" = parent ]; then
                dir="$work/parent"
            fi
            echo "-- pair $i/$pairs: $side $*"
            bash "$dir/benchmark/run.sh" --trace 0 --seed "$i" "$@" \
                --out "$work/$side-$tag-$i.json" >"$work/$side-$tag-$i.log" ||
                { cat "$work/$side-$tag-$i.log"; echo "bench_gate.sh: $side run failed" >&2; exit 1; }
        done
    done
    for side in parent change; do
        jq -s '{runs: map(.runs) | add}' "$work/$side-$tag"-*.json >"$work/$side-$tag.json"
    done
}

compare() { bash benchmark/run.sh compare "$work/parent.json" "$work/change.json"; }

run_pairs all
cp "$work/parent-all.json" "$work/parent.json"
cp "$work/change-all.json" "$work/change.json"
status=0
compare | tee bench_gate.txt || status=$?

# Workloads (column 1) with an unresolved row, unless the table already
# fails: ten more pairs of that workload replace its runs on both sides.
unresolved=""
if [ "$status" -eq 0 ]; then
    unresolved="$(awk '/unresolved/ {print $1}' bench_gate.txt | sort -u)"
fi
for wl in $unresolved; do
    echo "== $wl has unresolved rows: running it again =="
    run_pairs "$wl" --workload "$wl"
    for side in parent change; do
        jq -s --arg wl "$wl" \
            '{runs: ((.[0].runs | map(select(.workload != $wl))) + .[1].runs)}' \
            "$work/$side.json" "$work/$side-$wl.json" >"$work/$side.tmp"
        mv "$work/$side.tmp" "$work/$side.json"
    done
done
if [ -n "$unresolved" ]; then
    compare | tee bench_gate.txt || status=$?
    if grep -q unresolved bench_gate.txt; then
        echo "== still unresolved after a second set of pairs: spread wider than the bound, neither passed nor failed =="
        grep unresolved bench_gate.txt
    fi
fi

# ops_per_s of each pair, and who won it.
jq -rs '(.[0].runs | map({key: "\(.workload) \(.seed)", value: .metrics.ops_per_s.value}) | from_entries) as $parent
    | .[1].runs[] | .metrics.ops_per_s.value as $change | $parent["\(.workload) \(.seed)"] as $p
    | "\(.workload) pair \(.seed): parent \($p | round) change \($change | round) \(if $change > $p then "change" else "parent" end)"' \
    "$work/parent.json" "$work/change.json" | sort -s -k1,1 -k3,3n | tee -a bench_gate.txt
exit "$status"
