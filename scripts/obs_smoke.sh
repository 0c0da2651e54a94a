#!/bin/sh
# obs_smoke.sh — smoke-test the live observability layer end to end:
# launch `partree treebench` with -http, wait for the server to come up, assert
# /healthz reports ok and /metrics exposes the key series, then let the
# sweep finish and check it exited cleanly. Then launch partreed, drive
# one streaming session through /v1/session, assert the session metric
# families, and check SIGTERM drains cleanly. Run via `make obs-smoke`
# (part of `make check`).
set -e

GO=${GO:-go}
tmp=$(mktemp -d)
bin="$tmp/partree"
log="$tmp/treebench.log"
metrics="$tmp/metrics.txt"
pid=
pid2=
cleanup() {
    [ -n "$pid" ] && kill "$pid" 2>/dev/null
    [ -n "$pid2" ] && kill "$pid2" 2>/dev/null
    rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

$GO build -o "$bin" ./cmd/partree

# :0 picks a free port; the resolved URL is read from the serving log
# line, so parallel CI jobs never collide.
"$bin" treebench -n 100000 -p 1,2,4 -reps 3 -http 127.0.0.1:0 -v info >/dev/null 2>"$log" &
pid=$!

url=
i=0
while [ $i -lt 100 ]; do
    url=$(sed -n 's/.*msg="obs: serving".* url=\(http:[^ ]*\).*/\1/p' "$log" | head -1)
    [ -n "$url" ] && break
    if ! kill -0 "$pid" 2>/dev/null; then
        echo "obs-smoke: treebench exited before serving" >&2
        cat "$log" >&2
        exit 1
    fi
    sleep 0.1
    i=$((i + 1))
done
if [ -z "$url" ]; then
    echo "obs-smoke: no serving address in log" >&2
    cat "$log" >&2
    exit 1
fi

curl -fsS "$url/healthz" | grep -q '"status": "ok"' || {
    echo "obs-smoke: /healthz did not report ok" >&2
    exit 1
}

# The duration histogram only grows series once a spec completes, so
# keep scraping until every expected series shows up (or the sweep
# finishes without them, which is a failure).
series_list="
partree_runner_specs_started_total
partree_runner_cache_misses_total
partree_runner_in_flight
partree_engine_queue_depth
partree_engine_max_active
partree_runner_spec_duration_seconds_bucket
partree_runner_body_memo_misses_total
partree_build_total
partree_build_locks_total
go_goroutines
go_mem_heap_alloc_bytes
go_gc_pause_seconds_total
"
i=0
while :; do
    curl -fsS "$url/metrics" >"$metrics"
    missing=
    for series in $series_list; do
        grep -q "^$series" "$metrics" || missing="$missing $series"
    done
    [ -z "$missing" ] && break
    i=$((i + 1))
    if [ $i -ge 120 ] || ! kill -0 "$pid" 2>/dev/null; then
        echo "obs-smoke: /metrics is missing series:$missing" >&2
        exit 1
    fi
    sleep 0.5
done

wait "$pid" || {
    echo "obs-smoke: treebench exited non-zero" >&2
    cat "$log" >&2
    exit 1
}
pid=
echo "obs-smoke: treebench ok ($url, $(wc -l <"$metrics") metric lines)"

# --- partreed: streaming session + drain ------------------------------
dbin="$tmp/partreed"
dlog="$tmp/partreed.log"
stream="$tmp/session.ndjson"
$GO build -o "$dbin" ./cmd/partreed

"$dbin" -addr 127.0.0.1:0 -v info 2>"$dlog" &
pid2=$!

durl=
i=0
while [ $i -lt 100 ]; do
    durl=$(sed -n 's/.*msg=serving .* url=\(http:[^ ]*\).*/\1/p' "$dlog" | head -1)
    [ -n "$durl" ] && break
    if ! kill -0 "$pid2" 2>/dev/null; then
        echo "obs-smoke: partreed exited before serving" >&2
        cat "$dlog" >&2
        exit 1
    fi
    sleep 0.1
    i=$((i + 1))
done
if [ -z "$durl" ]; then
    echo "obs-smoke: no partreed serving address in log" >&2
    cat "$dlog" >&2
    exit 1
fi

# One short session: open, three drift steps, close. The histogram only
# renders buckets once a step is observed, so this run is what makes the
# partree_session_* families assertable below.
curl -fsS --no-buffer "$durl/v1/session" --data-binary @- >"$stream" <<'EOF'
{"procs": 2, "bodies": 4096, "model": "plummer"}
{"drift": true}
{"drift": true}
{"drift": true}
{"close": true}
EOF
grep -q '"event":"step"' "$stream" || {
    echo "obs-smoke: session stream has no step records" >&2
    cat "$stream" >&2
    exit 1
}
grep -q '"event":"closed"' "$stream" || {
    echo "obs-smoke: session stream was not acknowledged closed" >&2
    cat "$stream" >&2
    exit 1
}

# --- request flight recorder ------------------------------------------
# One traced build: send a W3C traceparent, expect the response to echo
# its trace-id as X-Request-Id plus a Server-Timing breakdown, and the
# full request timeline to be retrievable from /debug/requests by that
# ID.
hdrs="$tmp/build-headers.txt"
entry="$tmp/flight-entry.json"
want_rid="4bf92f3577b34da6a3ce929d0e0e4736"
curl -fsS -D "$hdrs" -H "traceparent: 00-$want_rid-00f067aa0ba902b7-01" \
    "$durl/v1/build" --data-binary \
    '{"backend":"native","algorithm":"SPACE","procs":2,"bodies":4096,"steps":1,"build_only":true,"seed":7}' \
    >/dev/null

rid=$(tr -d '\r' <"$hdrs" | sed -n 's/^[Xx]-[Rr]equest-[Ii]d: *//p' | head -1)
[ "$rid" = "$want_rid" ] || {
    echo "obs-smoke: X-Request-Id '$rid', want the traceparent trace-id $want_rid" >&2
    cat "$hdrs" >&2
    exit 1
}
grep -qi '^server-timing: .*queue;dur=.*build;dur=.*moments;dur=.*total;dur=' "$hdrs" || {
    echo "obs-smoke: /v1/build answered no Server-Timing breakdown" >&2
    cat "$hdrs" >&2
    exit 1
}

# The flight-recorder entry publishes right after the response; retry
# briefly rather than race it.
i=0
while ! curl -fsS "$durl/debug/requests/$rid" >"$entry" 2>/dev/null; do
    i=$((i + 1))
    [ $i -ge 50 ] && {
        echo "obs-smoke: request $rid never appeared in /debug/requests" >&2
        exit 1
    }
    sleep 0.1
done
grep -q '"route": "/v1/build"' "$entry" || {
    echo "obs-smoke: flight entry has the wrong route" >&2
    cat "$entry" >&2
    exit 1
}
grep -q '"name": "build"' "$entry" || {
    echo "obs-smoke: flight entry recorded no build span" >&2
    cat "$entry" >&2
    exit 1
}
curl -fsS "$durl/debug/requests" | grep -q "$rid" || {
    echo "obs-smoke: /debug/requests ring does not list $rid" >&2
    exit 1
}
curl -fsS "$durl/debug/requests/slow" | grep -q '"capacity"' || {
    echo "obs-smoke: /debug/requests/slow did not render" >&2
    exit 1
}

curl -fsS "$durl/metrics" >"$metrics"
missing=
for series in \
    partree_req_duration_seconds_bucket \
    partree_req_queue_wait_seconds_bucket \
    partree_req_in_flight \
    partree_req_slow_total \
    partree_req_duration_max_seconds \
    partree_session_opened_total \
    partree_session_closed_total \
    partree_session_evicted_total \
    partree_session_rejected_total \
    partree_session_fallbacks_total \
    partree_session_active \
    partree_session_max_leases \
    partree_session_step_seconds_bucket \
; do
    grep -q "^$series" "$metrics" || missing="$missing $series"
done
[ -n "$missing" ] && {
    echo "obs-smoke: partreed /metrics is missing series:$missing" >&2
    exit 1
}

# Every build stamps per-processor phase time, traced or not: the one
# served SPACE build must have put insert seconds on its series. Phase
# time has one family; the retired trace bridge must not come back, nor
# the retired adaptive-session controller's families, nor the unplanned-
# rebuild counter a lease's continuous steps could never move.
awk '$1 == "partree_build_phase_seconds_total{alg=\"SPACE\",phase=\"insert\"}" && $2 + 0 > 0 { ok = 1 } END { exit !ok }' "$metrics" || {
    echo "obs-smoke: no SPACE insert seconds after a served SPACE build" >&2
    grep '^partree_build_phase_seconds_total' "$metrics" >&2
    exit 1
}
if grep -q '^partree_trace_' "$metrics"; then
    echo "obs-smoke: partreed exposes a partree_trace_ family" >&2
    exit 1
fi
if grep -q '^partree_adapt_' "$metrics"; then
    echo "obs-smoke: partreed exposes a partree_adapt_ family" >&2
    exit 1
fi
if grep -q '^partree_session_unplanned_rebuilds_total' "$metrics"; then
    echo "obs-smoke: partreed exposes partree_session_unplanned_rebuilds_total" >&2
    exit 1
fi

# SIGTERM must drain: in-flight work finishes, the process exits 0.
kill -TERM "$pid2"
wait "$pid2" || {
    echo "obs-smoke: partreed did not drain cleanly on SIGTERM" >&2
    cat "$dlog" >&2
    exit 1
}
pid2=
echo "obs-smoke: ok ($durl, session metrics present, drain clean)"
