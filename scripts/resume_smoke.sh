#!/bin/sh
# resume_smoke.sh — end-to-end checkpoint/resume smoke test against the real
# binary and a real SIGINT (the in-process equivalent lives in
# internal/campaign/robust_test.go; this exercises the signal plumbing of
# cmd/campaign itself).
#
# 1. Run an uninterrupted campaign, capture its summary.
# 2. Start the same campaign with a journal, SIGINT it mid-flight.
# 3. Resume from the journal; the final summary must match step 1 exactly.
#
# Usage: scripts/resume_smoke.sh
set -eu

cd "$(dirname "$0")/.."
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

go build -o "$work/campaign" ./cmd/campaign

app=kmeans runs=1000 seed=77
common="-experiment run -app $app -runs $runs -seed $seed -parallel 2"

echo "resume_smoke: uninterrupted baseline"
"$work/campaign" $common >"$work/full.txt"

echo "resume_smoke: interrupting mid-flight"
"$work/campaign" $common -journal "$work/run.journal" -progress \
    >"$work/interrupted.txt" 2>"$work/progress.txt" &
pid=$!
# Wait for the first completed runs to hit the journal, then interrupt.
# The journal's header record is under 128 bytes and a run's record over
# 200, so a file past 256 bytes holds at least one completed run.
i=0
while [ "$({ wc -c <"$work/run.journal"; } 2>/dev/null || echo 0)" -le 256 ]; do
    i=$((i + 1))
    if [ $i -gt 200 ]; then
        echo "resume_smoke: no runs journaled within 20s" >&2
        kill "$pid" 2>/dev/null || true
        exit 1
    fi
    sleep 0.1
done
kill -INT "$pid" 2>/dev/null || true # may have already finished
wait "$pid" || { echo "resume_smoke: interrupted campaign exited non-zero" >&2; exit 1; }

if ! grep -q "campaign interrupted" "$work/interrupted.txt"; then
    # The campaign finished before the signal landed; the resume below then
    # just replays a complete journal, which is still a valid (weaker) check.
    echo "resume_smoke: warning: campaign completed before SIGINT"
fi

echo "resume_smoke: resuming"
"$work/campaign" $common -resume "$work/run.journal" >"$work/resumed.txt"

if ! cmp -s "$work/full.txt" "$work/resumed.txt"; then
    echo "resume_smoke: FAIL — resumed summary differs from uninterrupted run" >&2
    diff "$work/full.txt" "$work/resumed.txt" >&2 || true
    exit 1
fi
echo "resume_smoke: OK — resumed summary identical to uninterrupted run"
