#!/usr/bin/env bash
# run.sh — build the benchmark from source, then run it from the
# repository root. This is the command of BENCHMARK.json; every argument
# goes to the Go program (see main.go), which compiles the servers into
# benchmark/out/bin. Everything the builds write — the Go build cache
# included — stays under .bench_build/ and benchmark/out/, so a run reads
# and writes only inside its checkout.
set -euo pipefail
src="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$src")"
build="$root/.bench_build"
mkdir -p "$build/bin"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOWORK=off
(cd "$src" && go build -o "$build/bin/benchmark" .)
cd "$root"
exec "$build/bin/benchmark" "$@"
