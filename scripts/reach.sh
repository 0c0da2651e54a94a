#!/bin/sh
# reach.sh — ROADMAP item 7's rule as a gate: every package under
# internal/ must be reachable from a shipped program — a binary under
# cmd/, a hypothesis driver under hypotheses/, or the nested benchmark
# module — so a package kept alive only by examples/ or by its own tests
# fails `make check`. Test-helper packages, imported from _test.go files
# and from nothing else, are exempt.
set -eu

GO=${GO:-go}
internal() { grep '^partree/internal/' | sort -u; }

reached=$({ $GO list -deps ./cmd/... ./hypotheses/...; (cd benchmark && $GO list -deps .); } | internal)
shipped=$($GO list -f '{{join .Imports "\n"}}' ./... | internal)
tested=$($GO list -f '{{join .TestImports "\n"}}{{"\n"}}{{join .XTestImports "\n"}}' ./... | internal)

status=0
for pkg in $($GO list ./internal/...); do
    if echo "$reached" | grep -qx "$pkg"; then
        continue
    fi
    if echo "$tested" | grep -qx "$pkg" && ! echo "$shipped" | grep -qx "$pkg"; then
        continue # a test helper
    fi
    echo "reach: $pkg is read by no binary, hypothesis or benchmark workload (ROADMAP item 7)" >&2
    status=1
done
[ $status = 0 ] && echo "reach: every internal package is reachable from cmd/, hypotheses/ or benchmark/"
exit $status
