#!/usr/bin/env bash
# Run every stillwave subcommand on every shipped config of the source
# tree TREE, plus diagnose on each state that solve writes, and record
# what each run leaves under TREE/OUT/<config>/<run>/: the report, the
# CSV and state outputs, stdout, stderr, the exit code and the manifest
# without its creation time. OUT is taken relative to TREE, so the paths
# that reports name (the solve report's state_file) are the same strings
# for any two trees, and `diff -r A/OUT B/OUT` compares two trees'
# outputs byte for byte.
#
# usage: tools/shipped_reports.sh TREE OUT    (e.g. OUT = shipped_out)
set -u
if [ $# -ne 2 ]; then
    echo "usage: $0 TREE OUT" >&2
    exit 2
fi
cd "$1" || exit 2
out=$2
rm -rf "$out"
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

# record CONFIG RUN SUBCOMMAND [ARGS...]: one CLI run into $out/CONFIG/RUN
record() {
    local cfg=$1 dir="$out/$(basename "$1" .json)/$2" sub=$3
    shift 3
    mkdir -p "$dir"
    python3 -m stillwave "$sub" --config "$cfg" --out "$dir/report.json" \
        --manifest "$dir/manifest.json" "$@" > "$dir/stdout" 2> "$dir/stderr"
    echo $? > "$dir/exit_code"
    if [ -f "$dir/manifest.json" ]; then
        grep -v '"created_utc"' "$dir/manifest.json" > "$dir/manifest"
        rm "$dir/manifest.json"
    fi
}

for cfg in configs/*.json; do
    dir="$out/$(basename "$cfg" .json)"
    record "$cfg" stream stream --csv "$dir/stream/profile.csv"
    for sub in depths check sweep dispersion diagnose; do
        record "$cfg" "$sub" "$sub"
    done
    record "$cfg" solve solve --csv "$dir/solve/surface.csv" \
        --state-out "$dir/solve/state.json"
    record "$cfg" diagnose_state diagnose --state "$dir/solve/state.json"
done
