#!/usr/bin/env bash
# Perf-regression gate (docs/PERFORMANCE.md): run `pciebench perf --quick`
# and assert the machine-independent half of its output — the exact event
# counts of each fixed workload. The simulator is deterministic, so any
# drift is a deliberate act (update the constants here AND in
# tests/test_perf_harness.cpp in the same commit, with the reason). The
# exact TLP counts are gated in tests/test_perf_harness.cpp only: a TLP
# count that moves means the simulated workload changed, an event count
# that moves alone means the engine spends a different number of events
# on the same workload.
#
# ns/TLP is machine-dependent and is not gated here: it lands in the JSON
# report as trajectory data only. Timing claims go through
# perfbench/compare.py's interleaved pairs instead.
#
# Usage: ci_perf_check.sh [path-to-pciebench] [json-output-path]
set -u

PCIEBENCH="${1:-./build/tools/pciebench}"
OUT="${2:-BENCH_perf_quick.json}"

# Quick-mode event counts (full-run counts for reference: fig04 1659000,
# fig05 1640000, chaos 1491176). They last moved when each link TLP went
# from two events (serialization end, then arrival) to one; the TLP counts
# did not move.
declare -A EXPECT=(
    [fig04_bw_sweep]=165900
    [fig05_latency]=164000
    [chaos_dry_run]=157126
)

if [[ ! -x "$PCIEBENCH" ]]; then
    echo "ci_perf_check: $PCIEBENCH not found or not executable" >&2
    exit 3
fi

echo "== pciebench perf --quick"
if ! "$PCIEBENCH" perf --quick --json "$OUT"; then
    echo "ci_perf_check: perf run failed" >&2
    exit 3
fi

fail=0
for workload in fig04_bw_sweep fig05_latency chaos_dry_run; do
    want="${EXPECT[$workload]}"
    # One object per line in the report:
    #   {"name": "fig04_bw_sweep", "events": 222600, "tlps": ...}
    line=$(grep "\"name\": \"$workload\"" "$OUT")
    if [[ -z "$line" ]]; then
        echo "ci_perf_check: FAIL: workload $workload missing from $OUT" >&2
        fail=1
        continue
    fi
    got=$(sed -n 's/.*"events": \([0-9]*\).*/\1/p' <<<"$line")
    if [[ "$got" != "$want" ]]; then
        echo "ci_perf_check: FAIL: $workload executed $got events," \
             "expected exactly $want — the simulated workload or the" \
             "engine's event cost changed" >&2
        fail=1
    else
        echo "   $workload: $got events (exact match)"
    fi
done

if [[ $fail -ne 0 ]]; then
    exit 1
fi
echo "ok: all perf workloads executed their exact event counts (report in $OUT)"
