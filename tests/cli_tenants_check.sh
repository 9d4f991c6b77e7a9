#!/usr/bin/env bash
# The `pciebench run --tenants` success path: docs/ISOLATION.md's
# noisy-neighbour quick-start command verbatim, and the same command as a
# LAT_WRRD run with warmup. Each must exit 0 and print the monitors'
# all-clear line. Run by CTest as `cli_run_tenants`; takes the pciebench
# path as $1.
set -u

PCIEBENCH="${1:?usage: cli_tenants_check.sh <path-to-pciebench>}"
fail=0

# expect_clean <description> -- <args...>: exit 0 and the all-clear line.
expect_clean() {
    local desc="$1"; shift
    [[ "$1" == "--" ]] && shift
    local out
    out=$("$PCIEBENCH" "$@" 2>&1)
    local code=$?
    if [[ $code -ne 0 ]]; then
        echo "FAIL($desc): exit $code, want 0: pciebench $*" >&2
        echo "$out" >&2
        fail=1
    elif ! grep -qx 'monitors: all invariants held' <<<"$out"; then
        echo "FAIL($desc): no 'monitors: all invariants held' line" >&2
        echo "$out" >&2
        fail=1
    else
        echo "   ok($desc): exit 0, monitors all held"
    fi
}

expect_clean "noisy neighbour BW_WR" -- run --system NFP6000-HSW \
    --bench BW_WR --size 256 --window 1M --iters 5000 --tenants 4 \
    --attacker 0 --faults "drop@every=15,dir=up,vf=0" --errors --monitors
expect_clean "noisy neighbour LAT_WRRD, warmup 200" -- run \
    --system NFP6000-HSW --bench LAT_WRRD --warmup 200 --size 256 \
    --window 1M --iters 5000 --tenants 4 --attacker 0 \
    --faults "drop@every=15,dir=up,vf=0" --errors --monitors

exit $fail
