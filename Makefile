GO ?= go

.PHONY: all build fmt vet test race fuzz smoke obs-smoke loadgen-smoke cluster-smoke bench-smoke microbench microbench-smoke hypotheses-smoke cmds surface reach loc check repro repro-check repro-smoke bench pairs pairs-smoke

all: build

build:
	$(GO) build ./...

# fmt fails if any tracked Go file is not gofmt-formatted.
fmt:
	@test -z "$$(gofmt -l $$(git ls-files '*.go'))" || { gofmt -l $$(git ls-files '*.go') >&2; exit 1; }

vet:
	$(GO) vet ./...

# test includes each binary's /metrics surface goldens (cmd/*/testdata/
# *.metrics; a deliberate change regenerates them with `go test <pkg> -run
# MetricsSurface -update`) and the seed corpus of every fuzz target.
test:
	$(GO) test ./...

# race runs every package under the race detector, so the engine's
# admission and lease-timer paths are raced together with every caller.
race:
	$(GO) test -race ./...

# fuzz runs every Fuzz* target in the module for FUZZTIME each, one
# target at a time (go test -fuzz takes one target per run), finding them
# with go test -list. `make test` already runs each target's seed corpus;
# this searches beyond it, so it is opt-in rather than part of check.
FUZZTIME ?= 10s
fuzz:
	@$(GO) test -list '^Fuzz' ./... | awk '/^Fuzz/ { f = f " " $$1 } /^ok/ { if (f != "") print $$2 f; f = "" }' | \
		while read -r pkg targets; do \
			for t in $$targets; do \
				echo "fuzz $$pkg $$t ($(FUZZTIME))"; \
				$(GO) test -run '^$$' -fuzz "^$$t$$" -fuzztime $(FUZZTIME) $$pkg || exit 1; \
			done; \
		done

# smoke builds real trees with every algorithm and verifies each against
# the sequential reference (-check), end to end through `partree treebench`.
smoke:
	$(GO) run ./cmd/partree treebench -n 4096 -p 1,2 -reps 1 -check

# obs-smoke exercises the live observability layer end to end: `partree
# treebench`
# runs with -http in the background while the script asserts /healthz and
# the key /metrics series (runner, per-algorithm build, Go runtime).
obs-smoke:
	sh scripts/obs_smoke.sh

# loadgen-smoke replays a seeded bursty-diurnal session workload
# against a live partreed twice and asserts the reports come out
# byte-identical, internally consistent with the daemon's counters,
# and that the daemon drains cleanly afterwards.
loadgen-smoke:
	sh scripts/loadgen_smoke.sh

# cluster-smoke stands up the real sharded serving tier — two stateless
# partreed shard daemons plus a partree-router fronting them — and
# asserts a fan-out build conserves bodies across shards and is filed
# under one request ID by the router and both shards, a stale map
# version is refused with 409, and the router's partree_cluster_* rollup
# reflects the fleet.
cluster-smoke:
	sh scripts/cluster_smoke.sh

# bench-smoke vets and tests the nested benchmark module, which the root
# `go build ./...` does not compile: an internal API change that breaks
# benchmark/ fails here rather than in the benchmark pipeline. It asserts
# no wall-clock value.
bench-smoke:
	cd benchmark && $(GO) vet . && $(GO) test -count=1 .

# microbench times the kernels a fresh request pays before its build:
# generating the body set (every model, at the cluster workloads' sizes)
# and ordering it layer by layer — one Morton key, the radix sort of a
# body set, the whole SpatialAssign the benchmark's tree section pays, and
# SortBodies, the Morton sort and permutation a fresh native set pays once
# where the runner makes it — and
# a whole SPACE build at the two tree workloads' shapes and
# serve-build's, p = 1 and 2, with its bounds (the counting partition's
# rounds, which stop at one processor's share), insert (claiming and
# sorting the subspaces) and moments µs per build beside
# ns/op (BenchmarkSpaceBuild; BenchmarkPartreeBuild times PARTREE's
# build, its local sorts and merge as insert, at the same shapes), and
# two of those phases alone: the
# counting partition down to the build's round threshold and the
# moments pass (serial against two and eight
# workers, also on serve-build's and tree-small's trees) — then what a resident
# session pays per step (BenchmarkSessionStep: n=50k and 100k, one session
# and two stepping at once, with the step's phases reported beside ns/op,
# and a 1 200-step session under the benchmark's served motion, with its
# rule rebuilds per 100 steps and bytes per step) — and what observing
# costs: a build with no, a disabled and an enabled
# trace recorder, and the request hooks on a nil request handle (the
# CLI's builds) and on a recorded request (the timings the tests beside
# them no longer assert) — and what -check costs per build
# (BenchmarkVerifyBuild: a 64-body tree and serve-build's) — and the
# fork/join under all of it: back-to-back par.Do calls with ns/op and the
# forked shares' start lag p50/p95 (BenchmarkDo) — and the force walk a
# step spends most of its time in: one body's Barnes-Hut walk on a
# Plummer 64k tree, with interactions per body and ns per interaction
# (BenchmarkAccel).
# microbench-smoke runs each once, so check compiles and executes them
# without asserting a wall-clock value.
MICROBENCH = $(GO) test -run '^$$' -bench 'Generate|Keyer|Order|SpatialAssign|SortBodies|SpacePartition|SpaceBuild|PartreeBuild|SessionStep|Moments|BuildNoRecorder|BuildTracing|DisabledHooks|RecordedRequest|Do|VerifyBuild|Accel' ./internal/phys ./internal/partition ./internal/core ./internal/octree ./internal/trace ./internal/reqtrace ./internal/par ./internal/verify ./internal/force

microbench:
	$(MICROBENCH)

microbench-smoke:
	$(MICROBENCH) -benchtime 1x

# hypotheses-smoke pins partition.MoveCuts' arithmetic, which no served
# path calls (sessions cut by modelled cost): it re-runs h1
# (deterministic, seconds; go and jq, as cluster-smoke) and fails unless
# the run confirms and leaves the committed report and verdict untouched
# — a change to MoveCuts cannot silently move them.
hypotheses-smoke:
	sh hypotheses/h1-adaptive-hierarchical/run.sh | grep CONFIRMED
	git diff --exit-code HEAD -- hypotheses/h1-adaptive-hierarchical/results

# cmds holds the set of binaries fixed: one CLI (partree <subcommand>),
# the daemon, the router and the load generator. A fifth main is a fork
# of the execution stack the first four already walk.
cmds:
	@test "$$(ls cmd | xargs)" = "loadgen partree partree-router partreed" || \
		{ echo "cmd/ must hold exactly: loadgen partree partree-router partreed (found: $$(ls cmd | xargs))" >&2; exit 1; }

# surface holds the serving surface to one copy of each rule: the method
# check (and its 405) lives in the request envelope alone, the session
# open record is declared in internal/wire alone (benchmark/ keeps its
# own copy as the byte-compatibility witness), no command re-declares
# a wire record, and internal/workload stays traffic only: the daemon
# generates every body set from a phys model, so no body generator or
# integrator grows back beside the arrival model. It also holds the
# SPLASH-2 time step 0.025 and leaf capacity 8 to one non-test file each
# outside benchmark/ and examples/ (nbody.DefaultOptions and
# core.Config.Normalized): every other layer reads them from there.
surface:
	@n=$$(grep -rl --include='*.go' --exclude='*_test.go' --exclude-dir=benchmark --exclude-dir=.bench_build 'http\.StatusMethodNotAllowed' . | wc -l); \
		test "$$n" = 1 || { echo "http.StatusMethodNotAllowed must appear in exactly one non-test file (found $$n)" >&2; exit 1; }
	@n=$$(grep -rl --include='*.go' --exclude-dir=benchmark --exclude-dir=.bench_build 'json:"idle_timeout_ms' . | wc -l); \
		test "$$n" = 1 || { echo "the session open record must be declared in exactly one file outside benchmark/ (found $$n)" >&2; exit 1; }
	@! grep -rnE --include='*.go' 'type .*Wire struct' cmd || \
		{ echo "cmd/ must not declare wire records; they live in internal/wire" >&2; exit 1; }
	@! grep -rlE --include='*.go' --exclude='*_test.go' '"partree/internal/(phys|force|octree)"' internal/workload || \
		{ echo "internal/workload must not import phys, force or octree outside its tests" >&2; exit 1; }
	@n=$$(grep -rlE --include='*.go' --exclude='*_test.go' --exclude-dir=benchmark --exclude-dir=examples --exclude-dir=.bench_build '0\.025\b' . | wc -l); \
		test "$$n" = 1 || { echo "the time step 0.025 must be written in exactly one non-test file outside benchmark/ and examples/, nbody.DefaultOptions (found $$n)" >&2; exit 1; }
	@n=$$(grep -rlE --include='*.go' --exclude='*_test.go' --exclude-dir=benchmark --exclude-dir=examples --exclude-dir=.bench_build '[Ll]eafCap *(=|:|,) *8\b' . | wc -l); \
		test "$$n" = 1 || { echo "the leaf capacity default 8 must be written in exactly one non-test file outside benchmark/ and examples/, core.Config.Normalized (found $$n)" >&2; exit 1; }

# reach holds every package under internal/ to being read by a shipped
# program: a binary under cmd/, a hypothesis driver, or the benchmark
# module (test-helper packages aside). A package kept alive only by
# examples/ or its own tests fails.
reach:
	sh scripts/reach.sh

# loc counts non-test Go lines outside the nested benchmark module — the
# number CHANGES.md quotes before/after a simplification.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' -not -path './.bench_build/*' | xargs cat | wc -l

# check is the tier-1+ gate: everything must pass before a PR lands.
check: cmds surface reach fmt build vet test race smoke obs-smoke loadgen-smoke cluster-smoke bench-smoke microbench-smoke repro-smoke hypotheses-smoke pairs-smoke

# repro regenerates the paper's tables and figures into ./results.
repro:
	$(GO) run ./cmd/partree paperrepro -out results

# repro-check is what `make repro` is held to: it regenerates the whole
# evaluation with every sweep cell's tree verified (`paperrepro -check`, which
# exits 1 on a failed cell) into a temp dir and diffs it — minus each file's
# one wall-clock line — against the committed results/ (16 .txt and
# outcomes.csv). Minutes, so opt-in; repro-smoke does the same for two
# figures in ~20 s and is part of check.
repro-check:
	sh scripts/repro_check.sh

repro-smoke:
	sh scripts/repro_check.sh F6,F15

# bench runs the repository's one benchmark (BENCHMARK.json): every
# workload end to end and layer by layer, builders, sessions, the daemon
# and the router-fronted cluster included. See benchmark/README.md.
bench:
	bash benchmark/run.sh

# pairs judges a change the way a perf claim is judged: alternating
# parent/change runs of one workload, each stamped with the spin probe,
# medians, quartiles and k/k per end-to-end metric, one line per side
# appended to BENCH_HISTORY.ndjson (scripts/pairs.sh). By default it
# compares the working tree with HEAD:
#   make pairs PARENT=<rev> WORKLOAD=app-step SEEDS='1 2 3 4 5'
PARENT ?= HEAD
WORKLOAD ?= app-step
SEEDS ?= 1 2 3 4 5 6 7 8 9 10
pairs:
	bash scripts/pairs.sh $(PARENT) $(WORKLOAD) $(SEEDS)

# pairs-smoke runs pairs.sh at toy scale — one one-second tree-small pair
# against HEAD, its history written to a temp file — and asserts only the
# shape of what it prints and records, never a value.
pairs-smoke:
	@h=$$(mktemp) && out=$$(bash scripts/pairs.sh -s 1 -o $$h HEAD tree-small 1) && echo "$$out" && \
		echo "$$out" | grep -Eq '^pair seed=1 first=parent probe( [0-9.]+){4} (kept|refused)' && \
		echo "$$out" | grep -q '^metric  *parent median \[q1 q3\]  *change median \[q1 q3\]  *better$$' && \
		echo "$$out" | grep -q '^raw ms (lower is better)  *parent median \[q1 q3\]  *change median \[q1 q3\]  *better$$' && \
		echo "$$out" | grep -Eq '^failed operations: parent [0-9]+/[0-9]+, change [0-9]+/[0-9]+$$' && \
		jq -se 'length == 2 and all(.[]; has("commit") and has("cores") and has("gomaxprocs") and has("go") and has("probe") and has("medians") and has("raw_medians"))' $$h >/dev/null && \
		rm -f $$h
