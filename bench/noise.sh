#!/usr/bin/env bash
# Noise harness: two independent sets of runs of every workload, each run
# with its own seed, alternating the workload order from run to run. Prints
# each metric's median and quartiles per set, the interquartile spread as a
# share of the median, and the set-to-set gap of the medians — the numbers
# the bounds in BENCHMARK.json are set from. Run from the repository root:
#
#   bash bench/noise.sh [runs-per-set] [seconds]     # defaults: 10 10
#
# Set A uses seeds 1..runs, set B seeds 1001..1000+runs. Raw outputs are kept
# in .bench_build/noise/.
set -euo pipefail

runs=${1:-10}
secs=${2:-10}
dir=.bench_build/noise
rm -rf "$dir"
mkdir -p "$dir"
workloads=(dnn-fleet dnn-batch llm-colocated autoscale-diurnal)

for set in a b; do
	base=0
	[[ $set == b ]] && base=1000
	for ((r = 1; r <= runs; r++)); do
		order=("${workloads[@]}")
		if ((r % 2 == 0)); then
			order=(autoscale-diurnal llm-colocated dnn-batch dnn-fleet)
		fi
		for w in "${order[@]}"; do
			seed=$((base + r))
			bash bench/run.sh --workload "$w" --seed "$seed" --seconds "$secs" --trace 0 \
				>"$dir/$set.$w.$seed.out"
			echo "set $set run $r $w seed $seed: $(tail -n 1 "$dir/$set.$w.$seed.out" | cut -c1-80)..." >&2
		done
	done
done

python3 - "$dir" <<'EOF'
import glob, json, os, statistics, sys

runs = {}  # (set, workload) -> list of {metric: value}
for path in sorted(glob.glob(os.path.join(sys.argv[1], "*.out"))):
    s, w, _seed, _ = os.path.basename(path).split(".", 3)
    lines = open(path).read().splitlines()
    res = json.loads(lines[-1])
    vals = {k: v["value"] for k, v in res["metrics"].items()}
    for ln in lines[:-1]:
        f = ln.split()
        if len(f) >= 2 and f[0] in ("sim.raw_host_s", "bench.calib_s"):
            vals[f[0]] = float(f[1])
    if not res["correct"] or res["failed"]:
        print("RUN NOT CORRECT:", path)
    runs.setdefault((s, w), []).append(vals)

def stats(xs):
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0

workloads = sorted({w for _, w in runs})
for w in workloads:
    a, b = runs.get(("a", w), []), runs.get(("b", w), [])
    print(f"\n{w}: {len(a)} + {len(b)} runs")
    print(f"  {'metric':16} {'A median':>12} {'A q1..q3':>25} {'A spread':>9} {'B median':>12} {'B spread':>9} {'gap B/A-1':>10}")
    for m in sorted(a[0]):
        xa = [r[m] for r in a if m in r]
        xb = [r[m] for r in b if m in r]
        if len(xa) < 2 or len(xb) < 2:
            continue
        ma, qa1, qa3, sa = stats(xa)
        mb, _, _, sb = stats(xb)
        gap = mb / ma - 1 if ma else 0.0
        print(f"  {m:16} {ma:12.6g} {qa1:12.6g}..{qa3:<12.6g} {sa:9.2%} {mb:12.6g} {sb:9.2%} {gap:10.2%}")
EOF
