#!/bin/sh
# chaserd_crash_smoke.sh — end-to-end control-plane durability smoke test
# against the real binaries and real SIGKILLs (the in-process equivalent
# lives in internal/server/server_test.go; this exercises cmd/chaserd's WAL
# recovery, lease expiry across processes, and cmd/campaign's submit/watch
# client).
#
# 1. Run an uninterrupted standalone campaign, capture its report.
# 2. Start chaserd + 2 worker processes, submit the same campaign sharded.
# 3. kill -9 one worker mid-shard; chaserd must expire its lease and
#    re-enqueue the shard (asserted via /metrics on the FIRST instance).
# 4. kill -9 chaserd itself, restart it cold from the store on the same
#    address; the surviving worker and a replacement finish the campaign.
# 5. The watched report must match the uninterrupted baseline bit for bit.
#
# Usage: scripts/chaserd_crash_smoke.sh
set -eu

cd "$(dirname "$0")/.."
work="$(mktemp -d)"
pids=""
trap 'for p in $pids; do kill "$p" 2>/dev/null || true; done; rm -rf "$work"' EXIT

go build -o "$work/campaign" ./cmd/campaign
go build -o "$work/chaserd" ./cmd/chaserd

# 1,000 runs a shard: a shard forked from the checkpoint ladder lasts about a
# second, so the kill below lands mid-shard, not after the campaign.
app=kmeans runs=6000 seed=4242 shards=6

echo "chaserd_crash_smoke: uninterrupted standalone baseline"
"$work/campaign" -experiment run -app $app -runs $runs -seed $seed \
    -parallel 2 >"$work/baseline.txt"

echo "chaserd_crash_smoke: starting chaserd"
# Short lease so the killed worker's shard requeues within seconds.
"$work/chaserd" -addr 127.0.0.1:0 -store "$work/state" \
    -lease-ttl 2s >"$work/srv1.log" 2>&1 &
srvpid=$!
pids="$srvpid"
i=0
until addr="$(sed -n 's/^chaserd listening on //p' "$work/srv1.log")" \
    && [ -n "$addr" ]; do
    i=$((i + 1))
    if [ $i -gt 100 ]; then
        echo "chaserd_crash_smoke: chaserd never came up" >&2
        exit 1
    fi
    sleep 0.1
done
echo "chaserd_crash_smoke: chaserd on $addr"

"$work/chaserd" -worker -connect "http://$addr" -name w1 \
    -poll 100ms >"$work/w1.log" 2>&1 &
w1pid=$!
"$work/chaserd" -worker -connect "http://$addr" -name w2 \
    -poll 100ms >"$work/w2.log" 2>&1 &
w2pid=$!
pids="$srvpid $w1pid $w2pid"

id="$("$work/campaign" -experiment submit -chaserd "$addr" \
    -app $app -runs $runs -seed $seed -shards $shards 2>/dev/null)"
echo "chaserd_crash_smoke: submitted $id"

# Wait until w1 has claimed at least one shard, then kill -9 it mid-shard.
i=0
until grep -q "w1: claimed" "$work/w1.log"; do
    i=$((i + 1))
    if [ $i -gt 200 ]; then
        echo "chaserd_crash_smoke: w1 never claimed a shard" >&2
        exit 1
    fi
    sleep 0.1
done
echo "chaserd_crash_smoke: SIGKILLing worker w1 mid-shard"
kill -9 "$w1pid"
wait "$w1pid" 2>/dev/null || true

# The first chaserd must detect the dead lease and requeue the shard.
# Metrics are in-memory, so this must be asserted before the restart.
i=0
while :; do
    metrics="$(curl -sf "http://$addr/metrics" || true)"
    expired="$(printf '%s\n' "$metrics" |
        sed -n 's/^server_lease_expired_total \([0-9]*\)$/\1/p')"
    requeued="$(printf '%s\n' "$metrics" |
        sed -n 's/^server_shards_requeued_total \([0-9]*\)$/\1/p')"
    if [ -n "${expired:-}" ] && [ "$expired" -gt 0 ] &&
        [ -n "${requeued:-}" ] && [ "$requeued" -gt 0 ]; then
        break
    fi
    i=$((i + 1))
    if [ $i -gt 200 ]; then
        echo "chaserd_crash_smoke: FAIL — lease never expired after worker kill" >&2
        printf '%s\n' "$metrics" | grep '^server_' >&2 || true
        exit 1
    fi
    sleep 0.1
done
echo "chaserd_crash_smoke: lease expired ($expired), shard requeued ($requeued)"

echo "chaserd_crash_smoke: SIGKILLing chaserd mid-campaign"
kill -9 "$srvpid"
wait "$srvpid" 2>/dev/null || true

echo "chaserd_crash_smoke: restarting chaserd cold from the store"
"$work/chaserd" -addr "$addr" -store "$work/state" \
    -lease-ttl 2s >"$work/srv2.log" 2>&1 &
srvpid=$!
i=0
until grep -q "^chaserd listening on " "$work/srv2.log"; do
    i=$((i + 1))
    if [ $i -gt 100 ]; then
        echo "chaserd_crash_smoke: restarted chaserd never came up" >&2
        cat "$work/srv2.log" >&2
        exit 1
    fi
    sleep 0.1
done
# A replacement worker joins the survivor against the restarted server.
"$work/chaserd" -worker -connect "http://$addr" -name w3 \
    -poll 100ms >"$work/w3.log" 2>&1 &
w3pid=$!
pids="$srvpid $w2pid $w3pid"

echo "chaserd_crash_smoke: watching $id to completion"
if ! "$work/campaign" -experiment watch -chaserd "$addr" -campaign "$id" \
    >"$work/watched.txt"; then
    echo "chaserd_crash_smoke: FAIL — watch did not complete" >&2
    tail -5 "$work/srv2.log" >&2
    exit 1
fi

if ! cmp -s "$work/baseline.txt" "$work/watched.txt"; then
    echo "chaserd_crash_smoke: FAIL — merged report differs from baseline" >&2
    diff "$work/baseline.txt" "$work/watched.txt" >&2 || true
    exit 1
fi
echo "chaserd_crash_smoke: OK — report identical across worker kill -9, lease expiry, and chaserd restart"
