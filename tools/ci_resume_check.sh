#!/usr/bin/env bash
# Interrupted-resume equivalence check (docs/EXEC.md), the CI version of
# tests/test_exec_resume.cpp's byte-identity assertion — but with a real
# SIGKILL instead of the test-only stop_after hook:
#
#   1. run an uninterrupted reference campaign and keep its CSV;
#   2. run the same campaign into a fresh journal with trials HANG_AT and
#      HANG_AT+1 hung by the test-only crash hook (exec/crash_hook.hpp),
#      so its two workers stall with exactly HANG_AT records journaled;
#      wait for the journal to reach HANG_AT records and stop growing,
#      then SIGKILL the whole process group;
#   3. resume from the half-written journal (hook disarmed);
#   4. require the resumed CSV and canonical summary to be byte-identical
#      to the reference.
#
# The hang pins the cut at HANG_AT of TRIALS records on any host speed,
# so the resume always re-simulates the rest of the campaign.
#
# Usage: ci_resume_check.sh [path-to-pciebench]
# PCIEB_RESUME_EXTRA adds flags to every campaign invocation — CI's
# recovery leg sets it to "--recovery default --throw-monitors" so the
# journal-carried ladder outcomes go through the same byte-identity gate.
set -u

PCIEBENCH="${1:-./build/tools/pciebench}"
TRIALS=300
ITERS=300
SEED=0xc4a05
JOBS=2          # one worker per hung trial: nothing runs past the hang
HANG_AT=100
WAIT_LIMIT=90   # seconds to reach HANG_AT records (trial timeout is 120)
read -r -a EXTRA <<< "${PCIEB_RESUME_EXTRA:-}"

if [[ ! -x "$PCIEBENCH" ]]; then
    echo "ci_resume_check: $PCIEBENCH not found or not executable" >&2
    exit 3
fi

WORK="$(mktemp -d /tmp/pcieb-resume-ci-XXXXXX)"
trap 'rm -rf "$WORK"' EXIT

run_chaos() { # journal-dir csv-path extra-args...
    local journal="$1" csv="$2"; shift 2
    "$PCIEBENCH" chaos --trials "$TRIALS" --iters "$ITERS" \
        --master-seed "$SEED" --jobs "$JOBS" --no-shrink \
        --csv "$csv" ${EXTRA[@]+"${EXTRA[@]}"} "$@" 2>"$journal.log"
}

echo "== reference (uninterrupted) run"
run_chaos "$WORK/ref" "$WORK/ref.csv" --journal "$WORK/ref" \
    >"$WORK/ref.summary"
status=$?
if [[ $status -ne 0 && $status -ne 1 ]]; then
    echo "ci_resume_check: reference run failed (exit $status)" >&2
    tail -20 "$WORK/ref.log" >&2
    exit 3
fi

echo "== interrupted run (trials $HANG_AT and $((HANG_AT + 1)) hang, then SIGKILL)"
PCIEB_CRASH_HOOK="hang@$HANG_AT;hang@$((HANG_AT + 1))" \
setsid "$PCIEBENCH" chaos --trials "$TRIALS" --iters "$ITERS" \
    --master-seed "$SEED" --jobs "$JOBS" --no-shrink \
    ${EXTRA[@]+"${EXTRA[@]}"} \
    --journal "$WORK/cut" >/dev/null 2>"$WORK/cut.log" &
VICTIM=$!

records() { find "$WORK/cut" -maxdepth 1 -name 'r*.rec' 2>/dev/null | wc -l; }
# Wait for HANG_AT records, then for the count to hold across a second
# look: both workers are then stuck in the hung trials.
deadline=$((SECONDS + WAIT_LIMIT))
stable=0
while [[ $stable -lt 2 ]]; do
    if [[ $SECONDS -ge $deadline ]] || ! kill -0 "$VICTIM" 2>/dev/null; then
        break
    fi
    sleep 0.5
    if [[ $(records) -eq $HANG_AT ]]; then stable=$((stable + 1)); else stable=0; fi
done
# Kill the whole process group: the supervisor AND its forked workers
# die instantly, mid-campaign, exactly like a crashed CI box.
kill -KILL -- "-$VICTIM" 2>/dev/null
wait "$VICTIM" 2>/dev/null

COMMITTED=$(records)
echo "   journal holds $COMMITTED/$TRIALS records after the kill"
if [[ $stable -lt 2 || "$COMMITTED" -le 0 || "$COMMITTED" -ge "$TRIALS" ]]; then
    echo "ci_resume_check: FAIL: the interrupted run did not stop at" \
         "$HANG_AT/$TRIALS records within ${WAIT_LIMIT}s, so the resume" \
         "below would not test a resume" >&2
    tail -20 "$WORK/cut.log" >&2
    exit 1
fi

echo "== resumed run"
run_chaos "$WORK/cut" "$WORK/resumed.csv" --resume "$WORK/cut" \
    >"$WORK/resumed.summary"
status=$?
if [[ $status -ne 0 && $status -ne 1 ]]; then
    echo "ci_resume_check: resumed run failed (exit $status)" >&2
    tail -20 "$WORK/cut.log" >&2
    exit 3
fi

fail=0
if ! cmp -s "$WORK/ref.csv" "$WORK/resumed.csv"; then
    echo "ci_resume_check: FAIL: resumed CSV differs from reference" >&2
    diff -u "$WORK/ref.csv" "$WORK/resumed.csv" | head -40 >&2
    fail=1
fi
if ! cmp -s "$WORK/ref.summary" "$WORK/resumed.summary"; then
    echo "ci_resume_check: FAIL: resumed summary differs from reference" >&2
    diff -u "$WORK/ref.summary" "$WORK/resumed.summary" | head -40 >&2
    fail=1
fi
if [[ $fail -ne 0 ]]; then
    exit 1
fi

echo "ok: resumed output is byte-identical to the uninterrupted run" \
     "($COMMITTED records survived the SIGKILL)"
