#!/bin/sh
# hub_crash_smoke.sh — end-to-end TaintHub durability smoke test against the
# real binaries and a real SIGKILL (the in-process equivalent lives in
# internal/campaign/robust_test.go; this exercises cmd/tainthub's WAL
# recovery and cmd/campaign's retry plumbing).
#
# 1. Run an uninterrupted campaign against a private hub, capture its summary.
# 2. Start a durable tainthub (-wal), run the same campaign against it under
#    -hub-policy fail, and kill -9 the hub mid-flight.
# 3. Restart tainthub cold from the WAL on the same address; the campaign's
#    retries must ride out the outage and the final summary must match
#    step 1 exactly, with the restart reporting recovered records.
# 4. Stop the restarted hub with SIGTERM: its directory must hold the log and
#    nothing else.
#
# Usage: scripts/hub_crash_smoke.sh
set -eu

cd "$(dirname "$0")/.."
work="$(mktemp -d)"
hubpid=""
# Wait for the hub after killing it: SIGTERM makes it compact its log a
# final time, which would race the rm -rf.
trap 'kill "$hubpid" 2>/dev/null || true; wait "$hubpid" 2>/dev/null || true; rm -rf "$work"' EXIT

go build -o "$work/campaign" ./cmd/campaign
go build -o "$work/tainthub" ./cmd/tainthub

# matvec: its tainted results cross ranks over MPI, so the campaign
# actually exercises the hub (kmeans keeps taint rank-local).
app=matvec runs=1000 seed=77
common="-experiment run -app $app -runs $runs -seed $seed -parallel 2"

echo "hub_crash_smoke: uninterrupted baseline (private hub)"
"$work/campaign" $common >"$work/full.txt"

echo "hub_crash_smoke: starting durable tainthub"
# Compaction only at shutdown (-snapshot-interval 0): kill -9 preempts it,
# so the restart must rebuild state from the appended records.
mkdir "$work/hub"
"$work/tainthub" -addr 127.0.0.1:0 -wal "$work/hub/hub.wal" \
    -snapshot-interval 0 >"$work/hub1.txt" 2>&1 &
hubpid=$!
i=0
until addr="$(sed -n 's/^tainthub listening on //p' "$work/hub1.txt")" \
    && [ -n "$addr" ]; do
    i=$((i + 1))
    if [ $i -gt 100 ]; then
        echo "hub_crash_smoke: tainthub never came up" >&2
        exit 1
    fi
    sleep 0.1
done
echo "hub_crash_smoke: hub on $addr"

"$work/campaign" $common -hub "$addr" -hub-policy fail \
    -journal "$work/run.journal" >"$work/crashed.txt" 2>&1 &
cpid=$!
# Wait until a few runs are journaled (hub traffic has flowed: a run's
# journal record is 200-400 bytes), then crash the hub the hard way.
i=0
while [ "$({ wc -c <"$work/run.journal"; } 2>/dev/null || echo 0)" -le 1536 ]; do
    i=$((i + 1))
    if [ $i -gt 200 ]; then
        echo "hub_crash_smoke: no runs journaled within 20s" >&2
        kill "$cpid" 2>/dev/null || true
        exit 1
    fi
    sleep 0.1
done

echo "hub_crash_smoke: SIGKILLing the hub"
kill -9 "$hubpid"
wait "$hubpid" 2>/dev/null || true

echo "hub_crash_smoke: restarting cold from the WAL"
"$work/tainthub" -addr "$addr" -wal "$work/hub/hub.wal" \
    -snapshot-interval 2s >"$work/hub2.txt" 2>&1 &
hubpid=$!

if ! wait "$cpid"; then
    echo "hub_crash_smoke: FAIL — campaign did not survive the hub crash" >&2
    tail -5 "$work/crashed.txt" >&2
    exit 1
fi

if ! grep -q "^tainthub: recovered" "$work/hub2.txt"; then
    echo "hub_crash_smoke: FAIL — restarted hub reported no recovery" >&2
    cat "$work/hub2.txt" >&2
    exit 1
fi
recovered="$(sed -n 's/^tainthub: recovered \([0-9]*\) records.*/\1/p' "$work/hub2.txt")"
echo "hub_crash_smoke: restarted hub recovered $recovered records"
if [ "$recovered" -eq 0 ]; then
    echo "hub_crash_smoke: FAIL — WAL was empty at the crash (no hub traffic?)" >&2
    exit 1
fi

if ! cmp -s "$work/full.txt" "$work/crashed.txt"; then
    echo "hub_crash_smoke: FAIL — summary differs from uninterrupted run" >&2
    diff "$work/full.txt" "$work/crashed.txt" >&2 || true
    exit 1
fi
echo "hub_crash_smoke: summary identical across hub kill -9 + WAL recovery"

echo "hub_crash_smoke: stopping the hub with SIGTERM"
kill -TERM "$hubpid"
if ! wait "$hubpid"; then
    echo "hub_crash_smoke: FAIL — hub exited non-zero on SIGTERM" >&2
    cat "$work/hub2.txt" >&2
    exit 1
fi
hubpid=""
left="$(ls -A "$work/hub")"
if [ "$left" != "hub.wal" ]; then
    echo "hub_crash_smoke: FAIL — after shutdown the hub's directory holds:" $left >&2
    exit 1
fi
echo "hub_crash_smoke: OK — the log is the hub's only file"
