#!/usr/bin/env bash
# A/A check: run every workload of BENCHMARK.json on this commit in
# SETS sets of RUNS runs (a fresh seed per run, workload order reversed
# every other run), then print each end-to-end metric's median,
# quartiles and spread per workload and set, and fail if
#   - a spread (interquartile range / median, quartiles as Python's
#     statistics.quantiles(values, n=4) gives them) exceeds the metric's
#     bound (setup_s excepted, as in the acceptance rule), or
#   - a later set's median is worse than the first set's by more than
#     the bound.
# Every run's values are kept in benchmark/out/aa-values.json.
# The same script is the tool for parent/child pairs: run it in each
# checkout with the same SEED_BASE and compare the printed medians.
#
# usage: benchmark/aa.sh [RUNS=10] [SETS=2] [SEED_BASE=1000] [WORKLOAD,...]
set -euo pipefail
cd "$(dirname "$0")/.."
exec python3 - "${1:-10}" "${2:-2}" "${3:-1000}" "${4:-}" <<'PY'
import json, statistics, subprocess, sys

runs, sets, seed_base = (int(a) for a in sys.argv[1:4])
spec = json.load(open("BENCHMARK.json"))
workloads = [w["name"] for w in spec["workloads"] if not sys.argv[4] or w["name"] in sys.argv[4].split(",")]
metrics = spec["end_to_end"]

def run(workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} failed")
    return {name: m["value"] for name, m in result["metrics"].items()}

# values[set][workload][metric] -> list over runs
values = [{w: {m["name"]: [] for m in metrics} for w in workloads} for _ in range(sets)]
for s in range(sets):
    for r in range(runs):
        seed = seed_base + s * runs + r
        for w in (workloads if r % 2 == 0 else reversed(workloads)):
            print(f"set {s + 1}/{sets} run {r + 1}/{runs}: {w} --seed {seed}", file=sys.stderr)
            for name, v in run(w, seed).items():
                values[s][w][name].append(v)

json.dump(values, open("benchmark/out/aa-values.json", "w"))
bad = []
for w in workloads:
    print(f"\n{w}")
    print(f"  {'metric':<22}{'set':>4}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>7}")
    for m in metrics:
        name, bound = m["name"], m["bound"]
        first = None
        for s in range(sets):
            v = values[s][w][name]
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (med, med, med)
            spread = (q3 - q1) / med
            print(f"  {name:<22}{s + 1:>4}{med:>14.5g}{q1:>14.5g}{q3:>14.5g}{spread:>9.3f}{bound:>7.2f}")
            if spread > bound and name != "setup_s":
                bad.append(f"{w} {name} set {s + 1}: spread {spread:.3f} > bound {bound}")
            if first is None:
                first = med
            else:
                worse = (med - first) / first if m["better"] == "lower" else (first - med) / first
                if worse > bound:
                    bad.append(f"{w} {name}: set {s + 1} median {med:.5g} is {worse:.1%} worse "
                               f"than set 1's {first:.5g} (bound {bound})")
if bad:
    print("\nNOT STEADY:\n  " + "\n  ".join(bad))
    sys.exit(1)
print("\nsteady: every spread and every set-to-set median is within its bound")
PY
