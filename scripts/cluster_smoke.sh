#!/bin/sh
# cluster_smoke.sh — smoke-test the sharded serving tier end to end with
# real processes: two partreed shard daemons (each owning half the
# Morton key space of a shared map) fronted by a partree-router. The
# script asserts:
#   - a fan-out /v1/build conserves bodies: every generated body is
#     built by exactly one shard and the merged result sums to n;
#   - that build keeps one request ID in three processes: the trace-id
#     of its traceparent is the router's X-Request-Id and retrieves the
#     request from the router's and from each shard's /debug/requests;
#   - a stale map version is refused with 409, never silently served;
#   - the router's partree_cluster_* rollup reflects the fleet
#     (shard_up per shard, summed builds/bodies).
# Then SIGTERM must drain everything cleanly. Run via
# `make cluster-smoke` (part of `make check`).
set -e

GO=${GO:-go}
tmp=$(mktemp -d)
pids=
cleanup() {
    for p in $pids; do kill "$p" 2>/dev/null; done
    rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

$GO build -o "$tmp/partreed" ./cmd/partreed
$GO build -o "$tmp/partree-router" ./cmd/partree-router

n=2000

# The shared map: two shards splitting [0, 2^48) at the halfway key.
# The shards run this addr-less form — a shard must not need to know
# where its peers live; only the router gets the addressed copy.
cat >"$tmp/map.json" <<'EOF'
{
  "version": 1,
  "domain": {
    "center": [0, 0, 0],
    "size": 4
  },
  "shards": [
    {"id": "s0", "lo": 0, "hi": 140737488355328},
    {"id": "s1", "lo": 140737488355328, "hi": 281474976710656}
  ]
}
EOF

# wait_url LOGFILE PID: poll a daemon's log for its serving URL.
wait_url() {
    wlog=$1
    wpid=$2
    wurl=
    i=0
    while [ $i -lt 100 ]; do
        wurl=$(sed -n 's/.*msg=serving .* url=\(http:[^ ]*\).*/\1/p' "$wlog" | head -1)
        [ -n "$wurl" ] && break
        if ! kill -0 "$wpid" 2>/dev/null; then
            echo "cluster-smoke: process exited before serving" >&2
            cat "$wlog" >&2
            exit 1
        fi
        sleep 0.1
        i=$((i + 1))
    done
    if [ -z "$wurl" ]; then
        echo "cluster-smoke: no serving address in log" >&2
        cat "$wlog" >&2
        exit 1
    fi
    echo "$wurl"
}

"$tmp/partreed" -addr 127.0.0.1:0 -shard-map "$tmp/map.json" -shard s0 -v info 2>"$tmp/s0.log" &
s0pid=$!
pids="$pids $s0pid"
"$tmp/partreed" -addr 127.0.0.1:0 -shard-map "$tmp/map.json" -shard s1 -v info 2>"$tmp/s1.log" &
s1pid=$!
pids="$pids $s1pid"
s0url=$(wait_url "$tmp/s0.log" "$s0pid")
s1url=$(wait_url "$tmp/s1.log" "$s1pid")

# The router's addressed map: the same document plus each shard's
# resolved loopback address.
jq --arg a0 "${s0url#http://}" --arg a1 "${s1url#http://}" \
    '.shards[0].addr = $a0 | .shards[1].addr = $a1' \
    "$tmp/map.json" >"$tmp/map-addressed.json"

"$tmp/partree-router" -addr 127.0.0.1:0 -map "$tmp/map-addressed.json" -v info 2>"$tmp/router.log" &
rpid=$!
pids="$pids $rpid"
rurl=$(wait_url "$tmp/router.log" "$rpid")

# --- fan-out build: bodies conserved across the fleet -----------------
spec="{\"backend\":\"native\",\"algorithm\":\"PARTREE\",\"procs\":2,\"bodies\":$n,\"steps\":1,\"seed\":7,\"check\":true}"
trace=4bf92f3577b34da6a3ce929d0e0e4736
curl -fsS -X POST -H 'Content-Type: application/json' \
    -H "traceparent: 00-$trace-00f067aa0ba902b7-01" -D "$tmp/build.hdr" -d "$spec" \
    "$rurl/v1/build" >"$tmp/build.json"
err=$(jq -r '.error // empty' "$tmp/build.json")
if [ -n "$err" ]; then
    echo "cluster-smoke: fan-out build failed: $err" >&2
    exit 1
fi
built=$(jq -r .bodies_built "$tmp/build.json")
summed=$(jq -r '[.shards[].n] | add' "$tmp/build.json")
nshards=$(jq -r '.shards | length' "$tmp/build.json")
minn=$(jq -r '[.shards[].n] | min' "$tmp/build.json")
if [ "$built" != "$n" ] || [ "$summed" != "$n" ] || [ "$nshards" != 2 ]; then
    echo "cluster-smoke: conservation violated: built=$built shard-sum=$summed shards=$nshards want n=$n over 2 shards" >&2
    cat "$tmp/build.json" >&2
    exit 1
fi
if [ "$minn" -lt 1 ]; then
    echo "cluster-smoke: a shard built no bodies; the map split never engaged" >&2
    cat "$tmp/build.json" >&2
    exit 1
fi

# --- one request, one ID: router and both shards filed it -------------
rid=$(tr -d '\r' <"$tmp/build.hdr" | sed -n 's/^[Xx]-[Rr]equest-[Ii]d: //p')
if [ "$rid" != "$trace" ]; then
    echo "cluster-smoke: router answered X-Request-Id '$rid', want the traceparent's trace-id $trace" >&2
    exit 1
fi
for pair in "$rurl /v1/build" "$s0url /v1/shard/build" "$s1url /v1/shard/build"; do
    set -- $pair
    # An entry is published just after its response is written.
    route=
    i=0
    while [ $i -lt 50 ]; do
        route=$(curl -s "$1/debug/requests/$trace" | jq -r '.route // empty')
        [ -n "$route" ] && break
        sleep 0.1
        i=$((i + 1))
    done
    if [ "$route" != "$2" ]; then
        echo "cluster-smoke: $1/debug/requests/$trace has route '$route', want $2" >&2
        exit 1
    fi
done

# --- stale map version: refused with 409, never silently served -------
code=$(curl -s -o "$tmp/409.json" -w '%{http_code}' -X POST \
    -H 'Content-Type: application/json' \
    -d "{\"map_version\":99,\"spec\":$spec}" "$s0url/v1/shard/build")
if [ "$code" != 409 ]; then
    echo "cluster-smoke: stale map version answered $code, want 409" >&2
    cat "$tmp/409.json" >&2
    exit 1
fi

# --- the rollup: the router's /metrics reflects the fleet -------------
metrics="$tmp/metrics.txt"
curl -fsS "$rurl/metrics" >"$metrics"
for series in \
    'partree_cluster_shard_up{shard="s0"} 1' \
    'partree_cluster_shard_up{shard="s1"} 1' \
    "partree_cluster_bodies_built_total $n" \
    'partree_cluster_builds_total 2' \
    'partree_router_builds_total 1'; do
    grep -qF "$series" "$metrics" || {
        echo "cluster-smoke: /metrics is missing: $series" >&2
        grep 'partree_cluster\|partree_router' "$metrics" >&2
        exit 1
    }
done

# --- clean drain ------------------------------------------------------
for p in $rpid $s0pid $s1pid; do
    kill -TERM "$p"
done
for p in $rpid $s0pid $s1pid; do
    wait "$p" || {
        echo "cluster-smoke: a process did not drain cleanly on SIGTERM" >&2
        cat "$tmp/router.log" "$tmp/s0.log" "$tmp/s1.log" >&2
        exit 1
    }
done
pids=

echo "cluster-smoke: ok (router $rurl fronting s0=$s0url s1=$s1url; $n bodies conserved, request $trace filed by all three, stale version 409, rollup consistent)"
