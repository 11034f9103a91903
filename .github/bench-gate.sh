#!/bin/sh
# The baseline gate: hold a benchmark run's simulated-clock and
# paper-accuracy rows to benchmark/baseline.json, except for workloads a
# PR declared moved in .github/bench-moved.txt — those may differ, but no
# sim_* row of theirs may be worse. Host-clock rows (and `compare`'s own
# exit status, which they drive) are informational on shared runners.
#
#   .github/bench-gate.sh [results.json]      (default benchmark/out/results.json)
set -eu
cd "$(dirname "$0")/.."
results="${1:-benchmark/out/results.json}"
table="$(mktemp)"
trap 'rm -f "$table"' EXIT
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    compare benchmark/baseline.json "$results" | tee "$table" || true
grep -q "ratios are B over A" "$table" # the table was printed
# Rows are: workload metric A B B/A bound verdict [DIFFERS]
awk '
    FNR == NR { if ($1 !~ /^#/ && NF) moved[$1] = 1; next }
    /DIFFERS/ && !($1 in moved) { print "moved but not declared in .github/bench-moved.txt: " $0; bad = 1 }
    ($1 in moved) && $2 ~ /^sim_/ && $7 == "worse" { print "declared moved, but worse: " $0; bad = 1 }
    END { exit bad }
' .github/bench-moved.txt "$table"
