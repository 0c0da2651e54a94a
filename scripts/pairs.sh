#!/usr/bin/env bash
# pairs.sh — alternating parent/change pairs of the repository benchmark,
# every run stamped with the host's effective core count.
#
#   scripts/pairs.sh [-s seconds] [-o history] <parent-rev> <workload> <seed>...
#
# The change side is this checkout's working tree; the parent side is
# <parent-rev>, unpacked with git archive under .bench_build/pairs/. For
# each seed both sides run `benchmark/run.sh --workload W --seed S
# --seconds N --trace 0` (N = run_seconds of BENCHMARK.json unless -s),
# alternating which side goes first, and scripts/spinprobe.go is read
# before and after every run. A pair whose four readings differ by more
# than 0.3 straddled two host regimes and is refused: printed, never
# averaged (the probe's own spread within one regime is ≈ 0.1). For every end-to-end metric of BENCHMARK.json the script then
# prints each side's median and quartiles over the kept pairs and in how
# many of them the change read better — ending the row with "unresolved"
# when the parent's own interquartile spread exceeds the metric's bound —
# then the same for the milliseconds each run's log prints as `raw` lines
# (lower is better; a row that reads 0, a time the workload does not take,
# is skipped), and appends one line per side to the history file (default
# BENCH_HISTORY.ndjson): commit, cores, GOMAXPROCS, Go version, the
# probe's median, the metric medians and the raw medians.
set -euo pipefail

usage() {
    echo "usage: scripts/pairs.sh [-s seconds] [-o history] <parent-rev> <workload> <seed>..." >&2
    exit 2
}

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
seconds="" history="$root/BENCH_HISTORY.ndjson"
while getopts s:o: opt; do
    case $opt in
    s) seconds=$OPTARG ;;
    o) history=$OPTARG ;;
    *) usage ;;
    esac
done
shift $((OPTIND - 1))
[ $# -ge 3 ] || usage
rev=$1 workload=$2
shift 2

cd "$root"
seconds=${seconds:-$(jq .run_seconds BENCHMARK.json)}
parent=$(git rev-parse --short "$rev^{commit}")
change=$(git describe --always --dirty --abbrev=7)
work="$root/.bench_build/pairs"
mkdir -p "$work"
if [ ! -d "$work/$parent" ]; then
    rm -rf "$work/$parent.tmp" && mkdir "$work/$parent.tmp"
    git archive "$parent" | tar -x -C "$work/$parent.tmp"
    mv "$work/$parent.tmp" "$work/$parent"
fi
declare -A dir=([parent]="$work/$parent" [change]="$root")

# Build both sides (and the probe) before any clock starts.
go build -o "$work/spinprobe" scripts/spinprobe.go
for side in parent change; do
    (cd "${dir[$side]}" && bash benchmark/run.sh -h) >/dev/null 2>&1 ||
        { echo "pairs: the $side side's benchmark does not build" >&2; exit 1; }
done

runs=$(mktemp "$work/runs.XXXXXX")
run() { # side pair seed
    local side=$1 pair=$2 seed=$3 before after log status=0
    log="$work/$side-$seed.log"
    before=$("$work/spinprobe")
    (cd "${dir[$side]}" && bash benchmark/run.sh --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace 0) >"$log" 2>&1 || status=$?
    after=$("$work/spinprobe")
    # The log's "raw <name> <value> ms" lines, as one JSON object.
    raw=$(awk '$1 == "raw" { printf "%s\"%s\": %s", (n++ ? ", " : "{"), $2, $3 }
        END { print (n ? "}" : "{}") }' "$log")
    # A run whose operations failed exits 1 but still ends with its result
    # line; a run without one is an error of the benchmark, not a sample.
    tail -n 1 "$log" | jq -ec --arg side "$side" --argjson pair "$pair" --argjson seed "$seed" \
        --argjson probe "[$before, $after]" --argjson raw "$raw" 'select(.metrics)
        | {side: $side, pair: $pair, seed: $seed, probe: $probe, raw: $raw, result: .}' >>"$runs" ||
        { echo "pairs: the $side run of seed $seed (exit $status) printed no result line; see $log" >&2; exit 1; }
}

pair=0
for seed in "$@"; do
    order="parent change"
    [ $((pair % 2)) = 0 ] || order="change parent"
    for side in $order; do
        run "$side" "$pair" "$seed"
    done
    jq -rs --argjson pair "$pair" --arg seed "$seed" --arg first "${order%% *}" '
        [.[] | select(.pair == $pair) | .probe[]] as $p | ($p | max - min) as $d
        | "pair seed=\($seed) first=\($first) probe \($p | map(tostring) | join(" ")) "
          + if $d > 0.3 then "refused (spread \($d * 100 | round / 100))" else "kept" end' "$runs"
    pair=$((pair + 1))
done

# q(p): the p-quantile of a list, interpolated between its sorted values.
stats='
def q(p): sort | if length == 0 then null else (p * (length - 1)) as $x
    | .[$x | floor] + (.[$x | ceil] - .[$x | floor]) * ($x - ($x | floor)) end;
def kept: group_by(.pair) | map(select([.[].probe[]] | max - min <= 0.3));
def side($s): map(select(.side == $s));
def value($m): .result.metrics[$m].value;
# row: one tab-separated row over the kept pairs (its input) of the value
# f reads from a run: name, the median q1 q3 of each side, k, n, and
# whether the interquartile spread of the parent, (q3 - q1) / |median|,
# exceeds $bound (null: no bound): such a row cannot resolve a change
# within the bound either way, and ends with "unresolved". A pair where f
# reads nothing on either side is left out, and a row with no pair is
# skipped.
def row($name; $better; $bound; f):
    [.[] | {p: (side("parent")[0] | f), c: (side("change")[0] | f)}
       | select(.p != null and .c != null)] as $v
    | select($v | length > 0)
    | [$v[].p] as $p | [$v[].c] as $c
    | ($p | q(0.5)) as $pm | ($p | q(0.75) - q(0.25)) as $iqr
    | [$name, $pm, ($p | q(0.25), q(0.75)), ($c | q(0.5), q(0.25), q(0.75)),
       ($v | map(select(if $better == "higher" then .c > .p else .c < .p end)) | length), ($v | length),
       (if $bound != null and (if $pm == 0 then $iqr > 0 else $iqr / (if $pm < 0 then -$pm else $pm end) > $bound end)
        then "unresolved" else "" end)]
    | @tsv;
'

table() { # header, then the rows on stdin
    printf '\n%-28s %-28s %-28s %s\n' "$1" "parent median [q1 q3]" "change median [q1 q3]" better
    while IFS=$'\t' read -r name pm p1 p3 cm c1 c3 k n wide; do
        printf -v ps '%.4g [%.4g %.4g]' "$pm" "$p1" "$p3"
        printf -v cs '%.4g [%.4g %.4g]' "$cm" "$c1" "$c3"
        printf '%-28s %-28s %-28s %s/%s%s\n' "$name" "$ps" "$cs" "$k" "$n" "${wide:+ $wide}"
    done
}
jq -rs --slurpfile bench BENCHMARK.json "$stats"'
    kept as $k | $bench[0].end_to_end[] as $m | $k | row($m.name; $m.better; $m.bound; value($m.name))' "$runs" |
    table metric
jq -rs "$stats"'
    kept as $k | (first(.[].raw | keys_unsorted) // [])[] as $n
    | $k | row($n; "lower"; null; .raw[$n] | select(. != 0))' "$runs" |
    table "raw ms (lower is better)"
jq -rs '"failed operations: " + ([("parent", "change") as $s | "\($s) \(map(select(.side == $s) | .result.failed) | add)/\(map(select(.side == $s) | .result.attempted) | add)"] | join(", "))' "$runs"

jq -cs --slurpfile bench BENCHMARK.json --arg workload "$workload" --arg parent "$parent" \
    --arg change "$change" --arg date "$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
    --argjson cores "$(nproc)" --argjson gomaxprocs "${GOMAXPROCS:-$(nproc)}" \
    --arg go "$(go env GOVERSION)" "$stats"'
    kept as $k | ("parent", "change") as $s | ([$k[][]] | side($s)) as $r
    | {date: $date, commit: (if $s == "parent" then $parent else $change end), side: $s,
       workload: $workload, seeds: map(select(.side == $s) | .seed), pairs_kept: ($k | length),
       cores: $cores, gomaxprocs: $gomaxprocs, go: $go, probe: ([$r[].probe[]] | q(0.5)),
       medians: ([$bench[0].end_to_end[].name as $n | [$r[] | value($n) | select(. != null)]
                  | select(length > 0) | {($n): q(0.5)}] | add // {}),
       raw_medians: ([$r[].raw | to_entries[] | select(.value != 0)] | group_by(.key)
                     | map({(.[0].key): (map(.value) | q(0.5))}) | add // {})}' "$runs" >>"$history"
echo "appended 2 lines to $history; every run's record is in $runs"
