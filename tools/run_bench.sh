#!/usr/bin/env bash
# Builds the tree (if needed) and runs the perf-trajectory smoke benchmark,
# leaving BENCH_PR10.json next to this script's repo root. The JSON carries
# the batch-query QPS rows, the snapshot cold-start block, the two-lane
# serving block (per-lane sojourn p50/p99 plus the warm serving wall time),
# the streaming block, the caching block (Zipf trace
# replay through the result cache plus block-cache eviction pressure; this
# script fails if a cached answer ever differs from re-execution), the
# network block (the socket front-end over 100+ loopback connections —
# sustained QPS and client-observed interactive p95 vs the in-process
# baseline; this script fails if any wire response differs byte-for-byte
# from the in-process answer), the updates block, the recovery block, and
# the peeling block (the incremental butterfly counter vs per-round
# recounts; this script fails if the answers are not bit-identical) —
# see BENCH_PR9.json for the lineage — plus a check_overhead block: the serving block is re-run from a
# second build configured with -DBCCS_STRIP_CHECKS=ON (BCCS_CHECK compiled
# out) and the two warm wall times are compared, best of $RUNS runs each,
# to price the always-on invariant checks. Future PRs append their own
# BENCH_PR<N>.json and compare.
#
# usage: tools/run_bench.sh [extra perf_smoke args...]
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${BUILD_DIR:-$repo_root/build}"
strip_dir="${STRIP_BUILD_DIR:-$repo_root/build-nocheck}"
out="$repo_root/BENCH_PR10.json"
runs="${RUNS:-3}"

cmake -B "$build_dir" -S "$repo_root" >/dev/null
cmake --build "$build_dir" --target perf_smoke -j >/dev/null

"$build_dir/perf_smoke" --out "$out" "$@"

# Price the always-on BCCS_CHECKs: same serving workload, one binary with
# checks compiled in (the shipping configuration) and one with them stripped.
cmake -B "$strip_dir" -S "$repo_root" -DBCCS_STRIP_CHECKS=ON >/dev/null
cmake --build "$strip_dir" --target perf_smoke -j >/dev/null

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
for i in $(seq "$runs"); do
  "$build_dir/perf_smoke" --serving-only --queries 192 --out "$tmp/on.$i.json" >/dev/null
  "$strip_dir/perf_smoke" --serving-only --queries 192 --out "$tmp/off.$i.json" >/dev/null
done

python3 - "$out" "$tmp" "$runs" <<'EOF'
import json, sys

out_path, tmp, runs = sys.argv[1], sys.argv[2], int(sys.argv[3])

def best_wall(prefix):
    walls = []
    for i in range(1, runs + 1):
        with open(f"{tmp}/{prefix}.{i}.json") as f:
            walls.append(json.load(f)["serving"]["wall_seconds"])
    return min(walls)

on, off = best_wall("on"), best_wall("off")
overhead = (on - off) / off * 100.0 if off > 0 else 0.0

with open(out_path) as f:
    bench = json.load(f)

# Hard gate: a result-cache hit must be indistinguishable from re-executing
# the query at its epoch. perf_smoke already fails on this, but the bench
# script enforces it too so a future refactor of the exit-code chain cannot
# silently drop the guarantee.
caching = bench["caching"]
if not caching["identical_to_uncached"]:
    sys.exit("caching: cached answers differ from uncached replay")
if not caching["block_cache"]["identical_to_unbounded"]:
    sys.exit("caching: budget-capped block cache served wrong counts")

# Same for the socket front-end: a response crossing the wire must be the
# byte-exact answer the engine computed in-process.
if not bench["network"]["identical_to_in_process"]:
    sys.exit("network: wire responses differ from in-process answers")

# And for the incremental peel counter: maintained chi must yield exactly
# the communities a per-round recount yields, and it must actually replace
# recounts (fewer full counting calls than the flag-off run).
peeling = bench["peeling"]
if not peeling["identical_to_recount"]:
    sys.exit("peeling: incremental-counter answers differ from recount")
if peeling["incremental_counting_calls"] >= peeling["recount_counting_calls"]:
    sys.exit("peeling: incremental counter did not reduce counting calls")

bench["check_overhead"] = {
    "serving_wall_seconds_checks_on": on,
    "serving_wall_seconds_checks_off": off,
    "overhead_percent": round(overhead, 3),
    "runs_per_config": runs,
    "under_one_percent": overhead < 1.0,
}
with open(out_path, "w") as f:
    json.dump(bench, f, indent=2)
    f.write("\n")
print(f"check_overhead: on={on:.4f}s off={off:.4f}s -> {overhead:+.3f}% "
      f"(best of {runs})")
EOF
