#!/usr/bin/env bash
# Runs the repository benchmark (BENCHMARK.json + perfbench/) on the working
# tree against a base revision and writes BENCH_PR<N>.json at the repo root.
#
# usage: tools/run_bench.sh N [BASE]      (BASE defaults to HEAD)
#        RUNS=10 (default) seeds per workload
#
# For every BENCHMARK.json workload and seeds 1..RUNS, the benchmark command
# runs once in the working tree ("head") and once in a `git archive BASE`
# copy ("base"), alternating which runs first by seed parity so that the
# machine's drift cancels within a pair. The same seed then runs in a third
# copy of the working tree whose build has -DBCCS_STRIP_CHECKS=ON
# ("stripped", BCCS_CHECK compiled out): its ratio to head prices the
# always-on checks. Workloads, metrics, bounds and the run length all come
# from BENCHMARK.json. The JSON carries every run value, each side's median
# and quartiles, head's wins out of RUNS, and each end-to-end metric's
# verdict against its bound (head median vs base median).
#
# Exits non-zero when any run reports a wrong answer or a failed request,
# or when any metric is worse than its bound.
set -euo pipefail

if [[ $# -lt 1 || $# -gt 2 || ! $1 =~ ^[0-9]+$ ]]; then
  echo "usage: $0 N [BASE]   (RUNS=10 seeds per workload)" >&2
  exit 2
fi
pr="$1"
base_rev="${2:-HEAD}"
runs="${RUNS:-10}"
if [[ ! $runs =~ ^[1-9][0-9]*$ ]]; then
  echo "$0: RUNS must be a positive integer" >&2
  exit 2
fi

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo_root"
base_sha="$(git rev-parse --verify "$base_rev^{commit}")"
head_sha="$(git rev-parse HEAD)"
dirty=false
[[ -n "$(git status --porcelain)" ]] && dirty=true

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/base" "$tmp/stripped"
git archive "$base_sha" | tar -x -C "$tmp/base"
# Tracked plus untracked-but-not-ignored files, minus deletions not yet
# committed: the working tree as `git add -A` would see it.
git ls-files -z --cached --others --exclude-standard |
  while IFS= read -r -d '' f; do if [[ -e $f ]]; then printf '%s\0' "$f"; fi; done |
  tar --null -T - -cf - | tar -x -C "$tmp/stripped"
# run.py configures .bench_build only when it has no CMake cache, so this
# configuration is the one every stripped run builds with.
cmake -S "$tmp/stripped/perfbench" -B "$tmp/stripped/.bench_build" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo -DBCCS_STRIP_CHECKS=ON >/dev/null

python3 - "$repo_root" "$tmp" "$pr" "$runs" "$base_sha" "$head_sha" "$dirty" <<'EOF'
import json, os, re, statistics, subprocess, sys

root, tmp, pr, runs, base_sha, head_sha, dirty = sys.argv[1:]
runs = int(runs)
with open(os.path.join(root, "BENCHMARK.json")) as f:
    spec = json.load(f)
dirs = {"head": root, "base": os.path.join(tmp, "base"),
        "stripped": os.path.join(tmp, "stripped")}
metrics = spec["end_to_end"]
record_line = None
failures = []


def run(side, workload, seed):
    global record_line
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    log = os.path.join(tmp, f"{side}.{workload}.{seed}.log")
    with open(log, "w") as err:
        proc = subprocess.run(cmd, cwd=dirs[side], stdout=subprocess.PIPE, stderr=err, text=True)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        with open(log) as err:
            sys.stderr.write(err.read()[-4000:])
        sys.exit(f"{side} {workload} seed {seed}: no result line (exit {proc.returncode})")
    if side == "head" and record_line is None:
        record_line = next((l for l in lines if l.startswith("record: ")), "")
    if not result["correct"] or result["failed"] > 0:
        failures.append(f"{side} {workload} seed {seed}: correct={result['correct']} "
                        f"failed={result['failed']}")
    values = {m["name"]: result["metrics"][m["name"]]["value"] for m in metrics}
    print(f"{workload} seed {seed} {side:8s} correct={result['correct']} "
          f"failed={result['failed']} " +
          " ".join(f"{k}={v:.4g}" for k, v in values.items()), file=sys.stderr, flush=True)
    return values


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive") \
        if len(values) > 1 else (values[0],) * 3
    return {"values": [round(v, 4) for v in values], "median": round(med, 4),
            "q1": round(q1, 4), "q3": round(q3, 4)}


def better(m, a, b):
    return a < b if m["better"] == "lower" else a > b


out = {"workloads": {}}
all_pass = True
for w in spec["workloads"]:
    name = w["name"]
    vals = {side: [] for side in dirs}
    for seed in range(1, runs + 1):
        order = ["base", "head"] if seed % 2 else ["head", "base"]
        for side in order + ["stripped"]:
            vals[side].append(run(side, name, seed))
    entry = {}
    for m in metrics:
        sides = {side: summary([v[m["name"]] for v in vals[side]]) for side in dirs}
        base, head = sides["base"], sides["head"]
        wins = sum(better(m, h, b) for h, b in zip(head["values"], base["values"]))
        change = (head["median"] - base["median"]) / base["median"] if base["median"] else 0.0
        worse = change if m["better"] == "lower" else -change
        passed = worse <= m["bound"]
        all_pass = all_pass and passed
        spread = (base["q3"] - base["q1"]) / base["median"] if base["median"] else 0.0
        entry[m["name"]] = {"unit": m["unit"], "better": m["better"], "bound": m["bound"],
                            **sides, "wins": wins, "change": round(change, 4), "pass": passed,
                            "base_spread_wider_than_bound": spread > m["bound"]}

    def ratio(k):
        shipping = entry[k]["head"]["median"]
        return round(entry[k]["stripped"]["median"] / shipping, 4) if shipping else None
    out["workloads"][name] = {
        "metrics": entry,
        "check_overhead": {"qps_stripped_over_shipping": ratio("qps"),
                           "query_p50_ms_stripped_over_shipping": ratio("query_p50_ms")},
    }

fields = dict(re.findall(r'(\w+)=("[^"]*"|\S+)', record_line or ""))
record = {"nproc": int(fields.get("nproc", os.cpu_count())),
          "cpu": fields.get("cpu", "").strip('"'), "build_type": fields.get("build_type", ""),
          "compiler": fields.get("compiler", "").strip('"'),
          "run_seconds": spec["run_seconds"], "runs": runs, "base": base_sha,
          "head": head_sha, "dirty": dirty == "true"}
out = {"record": record, **out, "failures": failures, "pass": all_pass and not failures}


def dump(v, indent=0):
    # A dict holding dicts gets one key per line; anything else one line.
    if isinstance(v, dict) and any(isinstance(x, dict) for x in v.values()):
        pad = "  " * (indent + 1)
        items = [f"{pad}{json.dumps(k)}: {dump(x, indent + 1)}" for k, x in v.items()]
        return "{\n" + ",\n".join(items) + "\n" + "  " * indent + "}"
    return json.dumps(v)


path = os.path.join(root, f"BENCH_PR{pr}.json")
with open(path, "w") as f:
    f.write(dump(out) + "\n")
print(f"wrote {path}", file=sys.stderr)
for w, body in out["workloads"].items():
    for k, e in body["metrics"].items():
        print(f"{w:16s} {k:13s} base {e['base']['median']:.4g} head {e['head']['median']:.4g} "
              f"({e['change']:+.1%}, bound {e['bound']:.0%}) wins {e['wins']}/{runs} "
              f"{'pass' if e['pass'] else 'FAIL'}", file=sys.stderr)
    print(f"{w:16s} check_overhead {body['check_overhead']}", file=sys.stderr)
for line in failures:
    print("FAILED RUN: " + line, file=sys.stderr)
sys.exit(0 if out["pass"] else 1)
EOF
