#!/bin/sh
# repro_check.sh — hold the committed results/ to what the code prints:
# regenerate `partree paperrepro -check` (every sweep cell's tree verified
# against the serial reference; a failed cell exits 1) into a temp dir,
# strip the one wall-clock line of each file, and diff against results/.
#
#   repro_check.sh            the whole quick sweep: 16 .txt + outcomes.csv
#                             (`make repro-check`, minutes)
#   repro_check.sh F6,F15     only these experiments' .txt files
#                             (`make repro-smoke`, part of `make check`)
set -eu

GO=${GO:-go}
exps=${1:-all}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM
mkdir "$tmp/out" "$tmp/got" "$tmp/want"

csv=true
[ "$exps" = all ] || csv=false
$GO run ./cmd/partree paperrepro -check -exp "$exps" -csv=$csv -out "$tmp/out" -v warn >/dev/null

strip() { grep -v '^\[regenerated in ' "$1" >"$2" || true; }
for f in "$tmp"/out/*; do
    strip "$f" "$tmp/got/$(basename "$f")"
done
if [ "$exps" = all ]; then
    set -- results/*
else
    set -- $(echo "$exps" | tr , ' ' | sed 's/[^ ][^ ]*/results\/&.txt/g')
fi
for f; do
    strip "$f" "$tmp/want/$(basename "$f")"
done
diff -r "$tmp/want" "$tmp/got"
echo "repro-check: $(ls "$tmp/got" | wc -l) files identical to results/"
