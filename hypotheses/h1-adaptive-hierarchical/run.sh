#!/bin/sh
# h1-adaptive-hierarchical: measured-time cut moves balance the
# hierarchical clustering scenario that the static cost cut cannot.
#
# Decision rule: at every p in {4, 8}, 10 rounds of partition.MoveCuts
# must bring the max/mean insert skew to <= 1.10, where the static cost
# cut sits at >= 1.25. Fully deterministic (seed 7, synthetic measured
# costs), so the report is byte-identical across reruns.
cd "$(dirname "$0")"
. ../lib/harness.sh
pt_init

drv="$PT_TMP/h1driver"
pt_run 120 "$GO" build -o "$drv" ./driver
pt_run 120 "$drv" -n 4000 -seed 7 -p 4,8 -rounds 10 -radius 0.2 \
    -report results/report.json

# Determinism: a second run must emit the same bytes.
pt_run 120 "$drv" -n 4000 -seed 7 -p 4,8 -rounds 10 -radius 0.2 \
    -report "$PT_TMP/report2.json"
cmp results/report.json "$PT_TMP/report2.json" || {
    echo "h1: report is not byte-deterministic" >&2
    exit 1
}

ok=$(jq -r '.confirmed and ([.cells[].adaptive_skew] | max) <= 1.10 and ([.cells[].static_skew] | min) >= 1.25' results/report.json)
jq -r '.cells[] | "p=\(.p)  static=\(.static_skew)  moved=\(.adaptive_skew)  within 1.10 after round \(.rounds_to_bound)"' \
    results/report.json

if [ "$ok" = "true" ]; then
    pt_confirm "cut moves reach max/mean <= 1.10 within 10 rounds at p=4 and p=8, where the static cost cut sits at >= 1.25"
else
    pt_refute "cut moves did not balance the hierarchical scenario within 10 rounds (see results/report.json)"
    exit 1
fi
