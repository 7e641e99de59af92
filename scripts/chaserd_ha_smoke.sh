#!/bin/sh
# chaserd_ha_smoke.sh — end-to-end HA failover + fencing smoke test against
# the real binaries and a real SIGKILL (the in-process equivalent lives in
# internal/server/ha_test.go; this exercises cmd/chaserd's HA flags, the
# cross-process fence file, two processes sharing one store directory, and
# the failover-aware client in cmd/campaign).
#
# Phase 1 — failover over a torn log:
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
# Phase 2 — fencing a deposed-but-alive leader:
#   5. Start a fresh pair whose leader runs under clock.freeze chaos: its
#      fencer clock pins, it misses renewals, and the follower deposes it
#      while it still believes it leads.
#   6. A submit loop hammers the frozen leader directly; every write it
#      attempts while deposed must be fenced (server_fenced_appends_total
#      >= 1, server_demotions_total >= 1), and the new leader must have
#      promoted over a live process (server_failovers_total >= 1).
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

# ---- Phase 2: fence a deposed-but-alive leader (frozen fencer clock) ----

echo "chaserd_ha_smoke: starting pair 2 (clock.freeze chaos on the leader)"
# The frozen leader renews at leader-ttl/3 wall time, so after the standby
# deposes it there is a window of up to 2s before it notices. Raised tenant
# limits keep the submit loop from dying at the rate limiter before it can
# reach the append guard inside that window.
"$work/chaserd" -addr 127.0.0.1:0 -store "$work/shared2" \
    -fence-file "$work/fence2" -role leader -leader-ttl 6s \
    -tenant-max-active 100000 -tenant-rate 1000 -tenant-burst 1000 \
    -chaos "seed=3,rate=1,sites=clock.freeze" >"$work/a2.log" 2>&1 &
a2pid=$!
pids="$a2pid"
wait_log "$work/a2.log" "^chaserd listening on " "frozen leader startup"
addra2="$(sed -n 's/^chaserd listening on //p' "$work/a2.log")"
wait_log "$work/a2.log" "leading at epoch" "frozen leader election"

"$work/chaserd" -addr 127.0.0.1:0 -store "$work/shared2" \
    -fence-file "$work/fence2" -role follower \
    -leader-ttl 3s >"$work/b2.log" 2>&1 &
b2pid=$!
pids="$a2pid $b2pid"
wait_log "$work/b2.log" "^chaserd listening on " "standby 2 startup"
addrb2="$(sed -n 's/^chaserd listening on //p' "$work/b2.log")"

wait_metric "$addrb2" server_failovers_total 1 \
    "standby promoted over the live-but-frozen leader"

# The deposed leader stays unaware until its next renewal (up to
# leader-ttl/3 away). Hammer it with direct submits inside that window:
# each one must die at the append guard — fenced, zero bytes written — and
# be counted. The hammer must not start earlier: every append validates
# the fence through the chaos clock, and those reads would drain the
# freeze window and let the leader renew with fresh timestamps.
(
    while :; do
        curl -s -o /dev/null -X POST "http://$addra2/api/v1/campaigns" \
            -d '{"app":"kmeans","runs":2,"seed":1}' || true
        sleep 0.05
    done
) &
subpid=$!
pids="$a2pid $b2pid $subpid"

wait_metric "$addra2" server_fenced_appends_total 1 \
    "deposed leader's writes were fenced"
wait_metric "$addra2" server_demotions_total 1 "deposed leader demoted itself"

kill "$subpid" 2>/dev/null || true
wait "$subpid" 2>/dev/null || true
echo "chaserd_ha_smoke: phase 2 OK — zero writes accepted from the deposed epoch"
echo "chaserd_ha_smoke: OK — failover preserved the report bit-for-bit and fencing held"
