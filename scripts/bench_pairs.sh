#!/usr/bin/env bash
# Alternating fresh-process benchmark pairs: <parent-rev> against the working tree.
#
#   scripts/bench_pairs.sh <parent-rev> <workload>[,<workload>...] [pairs=10] [seconds=20]
#
# Builds the benchmark of <parent-rev> from a `git archive` of it in a temporary
# directory with its own target directory (offline), and the working tree's in
# place, once for all the workloads; then, workload by workload, runs <pairs> pairs
# of fresh processes, one per side, alternating which side goes first, with a new
# seed per pair (SEED_BASE + pair number; SEED_BASE defaults to 101). Prints every
# run, then per workload and end-to-end metric of BENCHMARK.json each side's median
# [q1, q3], the shift of the median, the pairs the change won (ties count for
# neither) and a verdict, the first of these that holds:
#   gain          at least 10 pairs ran, the change won at least 9 in 10 of them,
#                 and its median is better than the parent's by more than the
#                 parent's IQR (q3 - q1);
#   worse         the change's median is worse than the parent's by more than the
#                 metric's bound in BENCHMARK.json (a share of the parent's median);
#   unresolved    the parent's IQR is wider than that bound, and not every run of
#                 the change reads better than every run of the parent;
#   within bound  anything else, marked "too few pairs for a gain" where the gain
#                 rule held on fewer than 10 pairs.
# Exits non-zero if any run fails its own checks.
set -euo pipefail

if [ $# -lt 2 ]; then
    sed -n '2,5p' "$0" >&2
    exit 2
fi
parent_rev=$1
IFS=, read -r -a workloads <<<"$2"
pairs=${3:-10}
seconds=${4:-20}
seed_base=${SEED_BASE:-101}

root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
tmp=$(mktemp -d "${TMPDIR:-/tmp}/bench_pairs.XXXXXX")
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/parent"
git -C "$root" archive "$parent_rev" | tar -x -C "$tmp/parent"
echo "building parent $(git -C "$root" rev-parse --short "$parent_rev") and the working tree ..." >&2
CARGO_TARGET_DIR="$tmp/target" cargo build --release --quiet --offline \
    --manifest-path "$tmp/parent/benchmark/Cargo.toml"
cargo build --release --quiet --offline --manifest-path "$root/benchmark/Cargo.toml"
parent_bin="$tmp/target/release/factorlog-benchmark"
change_bin="$root/benchmark/target/release/factorlog-benchmark"

# One fresh-process run of <workload>; appends "<pair> <side> <seed> <last line: the
# JSON result>" to that workload's runs.
run_side() {
    local workload=$1 side=$2 pair=$3 seed=$4 bin dir
    if [ "$side" = parent ]; then bin=$parent_bin dir=$tmp/parent; else bin=$change_bin dir=$root; fi
    if ! (cd "$dir" && "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds") \
        >"$tmp/run.out" 2>&1; then
        cat "$tmp/run.out" >&2
        echo "$workload pair $pair: the $side run failed (seed $seed)" >&2
        exit 1
    fi
    echo "$pair $side $seed $(tail -n 1 "$tmp/run.out")" >>"$tmp/runs.$workload"
}

# Every run of <workload>, then its summary.
summarize() {
    python3 - "$root/BENCHMARK.json" "$tmp/runs.$1" "$1" "$seconds" <<'PY'
import json, statistics, sys

contract, runs_path, workload, seconds = sys.argv[1:5]
metrics = json.load(open(contract))["end_to_end"]
runs = {}  # pair -> side -> metrics
for line in open(runs_path):
    pair, side, seed, result = line.split(" ", 3)
    result = json.loads(result)
    assert result["correct"], line
    values = {name: m["value"] for name, m in result["metrics"].items()}
    runs.setdefault(int(pair), {})[side] = values
    shown = "  ".join(f"{m['name']}={values[m['name']]:.4g}" for m in metrics)
    print(f"pair {pair} seed {seed} {side:6}  {shown}")

def spread(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3

print(f"\n{workload}, {len(runs)} alternating pair(s) of {seconds} s runs: median [q1, q3]")
def verdict(parent, change, pm, iqr, cm, won, bound, lower):
    better = (pm - cm) if lower else (cm - pm)
    would_gain = 10 * won >= 9 * len(parent) and better > iqr
    if would_gain and len(parent) >= 10:
        return "gain"
    if -better > bound * abs(pm):
        return "worse"
    beats_all = max(change) < min(parent) if lower else min(change) > max(parent)
    if iqr > bound * abs(pm) and not beats_all:
        return "unresolved"
    return "within bound (too few pairs for a gain)" if would_gain else "within bound"

for m in metrics:
    name, lower = m["name"], m["better"] == "lower"
    parent = [runs[p]["parent"][name] for p in sorted(runs)]
    change = [runs[p]["change"][name] for p in sorted(runs)]
    won = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    (pm, p1, p3), (cm, c1, c3) = spread(parent), spread(change)
    shift = 100.0 * (cm - pm) / pm if pm else 0.0
    said = verdict(parent, change, pm, p3 - p1, cm, won, m["bound"], lower)
    print(
        f"  {name} ({m['unit']}, {m['better']} is better): "
        f"parent {pm:.4g} [{p1:.4g}, {p3:.4g}]  change {cm:.4g} [{c1:.4g}, {c3:.4g}]  "
        f"median shift {shift:+.1f} %  pairs won {won}/{len(parent)}  "
        f"verdict: {said} (bound {100 * m['bound']:.0f} %)"
    )
PY
}

for workload in "${workloads[@]}"; do
    for pair in $(seq 1 "$pairs"); do
        seed=$((seed_base + pair))
        if [ $((pair % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
        for side in $order; do
            run_side "$workload" "$side" "$pair" "$seed"
        done
    done
    summarize "$workload"
done
