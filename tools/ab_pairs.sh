#!/usr/bin/env bash
# Compare two source trees on one benchmark workload in alternating pairs.
#
# Runs bench/run.py of PARENT and of CHANGE one after the other, PAIRS
# times, with the order flipped on every pair (PARENT first on even
# pairs, CHANGE first on odd ones), so that a slow spell of the host hits
# both sides alike. Each run's result line is printed as it comes. At the
# end, for every end-to-end metric of CHANGE's BENCHMARK.json: each
# side's median and quartiles, the median over the pairs of the ratio
# change / parent (a slow spell that spans several pairs moves both
# sides' medians but not the ratios of those pairs), the pairs the change
# won (ties count for neither side) and whether the gain rule holds: the
# change wins at least nine tenths of the pairs and the medians differ by
# more than the distance between the parent's quartiles.
#
# usage: tools/ab_pairs.sh PARENT CHANGE WORKLOAD [PAIRS]   (PAIRS = 10)
# environment: AB_SECONDS (default: run_seconds of BENCHMARK.json),
#              AB_SEED (default 1)
set -u
if [ $# -lt 3 ] || [ $# -gt 4 ]; then
    echo "usage: $0 PARENT CHANGE WORKLOAD [PAIRS]" >&2
    exit 2
fi
parent=$(cd "$1" && pwd) || exit 2
change=$(cd "$2" && pwd) || exit 2
workload=$3
pairs=${4:-10}
if ! [[ $pairs =~ ^[0-9]+$ ]] || ((pairs < 2)); then
    echo "error: PAIRS must be an integer of at least 2, got $pairs" >&2
    exit 2
fi
spec="$change/BENCHMARK.json"
seconds=${AB_SECONDS:-$(python3 -c \
    'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
    "$spec")} || exit 2
seed=${AB_SEED:-1}
results=$(mktemp -d) || exit 2
trap 'rm -rf "$results"' EXIT

# bench SIDE TREE PAIR: one run of TREE's benchmark into $results/SIDE.PAIR
bench() {
    local line
    line=$(cd "$2" && python3 bench/run.py --workload "$workload" \
        --seed "$seed" --seconds "$seconds" --trace 0 2>/dev/null | tail -n 1)
    if ! python3 -c 'import json, sys; json.loads(sys.argv[1])["metrics"]' \
            "$line" 2>/dev/null; then
        echo "error: the $1 run of pair $3 gave no result" >&2
        exit 1
    fi
    echo "pair $3 $1: $line"
    echo "$line" > "$results/$1.$3"
}

echo "$workload: $pairs pairs, --seed $seed --seconds $seconds"
for ((i = 0; i < pairs; i++)); do
    if ((i % 2 == 0)); then
        bench parent "$parent" "$i"
        bench change "$change" "$i"
    else
        bench change "$change" "$i"
        bench parent "$parent" "$i"
    fi
done

python3 - "$spec" "$results" "$pairs" <<'EOF'
import json
import os
import statistics
import sys

spec, results, pairs = sys.argv[1], sys.argv[2], int(sys.argv[3])


def runs(side):
    out = []
    for i in range(pairs):
        with open(os.path.join(results, f"{side}.{i}"), encoding="utf-8") as fh:
            out.append(json.load(fh))
    return out


def quartiles(xs):
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


parent, change = runs("parent"), runs("change")
for side, rs in (("parent", parent), ("change", change)):
    bad = sum(1 for r in rs if r["correct"] is not True or r["failed"])
    print(f"{side}: {bad} of {pairs} runs incorrect or with failed items")
with open(spec, encoding="utf-8") as fh:
    metrics = json.load(fh)["end_to_end"]
print(f"{'metric':<12} {'parent q1/median/q3':>30} "
      f"{'change q1/median/q3':>30}  ratio  wins  gain")
for m in metrics:
    name, lower = m["name"], m["better"] == "lower"
    a = [r["metrics"][name]["value"] for r in parent]
    b = [r["metrics"][name]["value"] for r in change]
    wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
    qa, qb = quartiles(a), quartiles(b)
    ratio = statistics.median(y / x for x, y in zip(a, b))
    gain = (wins >= 0.9 * pairs
            and ((qa[1] - qb[1]) if lower else (qb[1] - qa[1])) > qa[2] - qa[0])
    print(f"{name:<12} {'/'.join(f'{v:.4g}' for v in qa):>30} "
          f"{'/'.join(f'{v:.4g}' for v in qb):>30}  {ratio:5.3f}  {wins:>2}/{pairs}"
          f"  {'yes' if gain else 'no'}")
EOF
