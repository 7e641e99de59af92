#!/bin/sh
# chaserd_ha_smoke.sh — end-to-end HA failover smoke test against the real
# binaries and a real SIGKILL. It exercises cmd/chaserd's HA flags, the
# cross-process fence file, two processes sharing one store directory, and
# the failover-aware client in cmd/campaign. The in-process HA tests live in
# internal/server/ha_test.go; fencing a deposed-but-alive leader (a frozen
# fencer clock) is TestControlPlaneSchedule in
# internal/server/schedule_test.go.
#
#   1. Run an uninterrupted standalone campaign, capture its report.
#   2. Start a leader + standby pair sharing one -store directory (the
#      fence file lives beside it), plus 2 worker processes pointed at
#      both peers.
#   3. Submit the same campaign sharded; kill -9 the leader mid-shard and
#      tear the tail of its log the way a kill mid-append does.
#   4. The standby must promote (server_failovers_total >= 1) from the
#      leader's own log and the watched report must match the baseline bit
#      for bit.
#
# Usage: scripts/chaserd_ha_smoke.sh
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

# wait_log FILE PATTERN DESC: poll until PATTERN appears in FILE.
wait_log() {
    i=0
    until grep -q "$2" "$1"; do
        i=$((i + 1))
        if [ $i -gt 300 ]; then
            echo "chaserd_ha_smoke: timed out waiting for $3" >&2
            tail -5 "$1" >&2 || true
            exit 1
        fi
        sleep 0.1
    done
}

# metric ADDR NAME: print one counter's value (empty if absent).
metric() {
    curl -sf "http://$1/metrics" |
        sed -n "s/^$2 \([0-9][0-9]*\)\$/\1/p"
}

# wait_metric ADDR NAME MIN DESC: poll until the counter is >= MIN.
wait_metric() {
    i=0
    while :; do
        v="$(metric "$1" "$2" || true)"
        if [ -n "${v:-}" ] && [ "$v" -ge "$3" ]; then
            echo "chaserd_ha_smoke: $4 ($2 = $v)"
            return 0
        fi
        i=$((i + 1))
        if [ $i -gt 300 ]; then
            echo "chaserd_ha_smoke: FAIL — timed out waiting for $4" >&2
            curl -sf "http://$1/metrics" | grep '^server_' >&2 || true
            exit 1
        fi
        sleep 0.1
    done
}

echo "chaserd_ha_smoke: uninterrupted standalone baseline"
"$work/campaign" -experiment run -app $app -runs $runs -seed $seed \
    -parallel 2 >"$work/baseline.txt"

# ---- Phase 1: kill -9 the leader mid-campaign, tear its log's tail ----

echo "chaserd_ha_smoke: starting HA pair on one shared store"
"$work/chaserd" -addr 127.0.0.1:0 -store "$work/shared" \
    -fence-file "$work/fence" -role leader -leader-ttl 2s -lease-ttl 2s \
    >"$work/a.log" 2>&1 &
apid=$!
pids="$apid"
wait_log "$work/a.log" "^chaserd listening on " "leader startup"
addra="$(sed -n 's/^chaserd listening on //p' "$work/a.log")"
wait_log "$work/a.log" "leading at epoch" "initial leader election"

"$work/chaserd" -addr 127.0.0.1:0 -store "$work/shared" \
    -fence-file "$work/fence" -role follower \
    -leader-ttl 2s -lease-ttl 2s >"$work/b.log" 2>&1 &
bpid=$!
pids="$apid $bpid"
wait_log "$work/b.log" "^chaserd listening on " "follower startup"
addrb="$(sed -n 's/^chaserd listening on //p' "$work/b.log")"
echo "chaserd_ha_smoke: leader on $addra, follower on $addrb"

peers="$addra,$addrb"
"$work/chaserd" -worker -connect "http://$addra,http://$addrb" -name w1 \
    -poll 100ms >"$work/w1.log" 2>&1 &
w1pid=$!
"$work/chaserd" -worker -connect "http://$addra,http://$addrb" -name w2 \
    -poll 100ms >"$work/w2.log" 2>&1 &
w2pid=$!
pids="$apid $bpid $w1pid $w2pid"

id="$("$work/campaign" -experiment submit -chaserd "$peers" \
    -app $app -runs $runs -seed $seed -shards $shards 2>/dev/null)"
echo "chaserd_ha_smoke: submitted $id"

# Kill the leader with a shard mid-flight. No drain, no fence release — the
# standby must wait out the fence TTL like after a power cut — and a torn
# frame at the end of the log: an 8-byte header claiming 64 payload bytes,
# of which 8 follow. The standby's open must drop it and keep every record
# before it.
wait_log "$work/w1.log" "claimed campaign" "first shard claim"
echo "chaserd_ha_smoke: SIGKILLing the leader mid-shard"
kill -9 "$apid"
wait "$apid" 2>/dev/null || true
pids="$bpid $w1pid $w2pid"
printf '\100\000\000\000\000\000\000\000{"t":"do' >>"$work/shared/wal/control.log"

wait_metric "$addrb" server_failovers_total 1 "follower promoted over the dead leader"

echo "chaserd_ha_smoke: watching $id to completion on the new leader"
if ! "$work/campaign" -experiment watch -chaserd "$peers" -campaign "$id" \
    >"$work/watched.txt"; then
    echo "chaserd_ha_smoke: FAIL — watch did not complete after failover" >&2
    tail -5 "$work/b.log" >&2
    exit 1
fi
if ! cmp -s "$work/baseline.txt" "$work/watched.txt"; then
    echo "chaserd_ha_smoke: FAIL — post-failover report differs from baseline" >&2
    diff "$work/baseline.txt" "$work/watched.txt" >&2 || true
    exit 1
fi
echo "chaserd_ha_smoke: phase 1 OK — report identical across leader kill -9 and a torn log"

for p in $w1pid $w2pid $bpid; do kill "$p" 2>/dev/null || true; done
wait "$w1pid" "$w2pid" "$bpid" 2>/dev/null || true
pids=""
echo "chaserd_ha_smoke: OK — failover preserved the report bit-for-bit"
