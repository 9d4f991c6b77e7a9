#!/usr/bin/env bash
# Strict CLI validation for the telemetry/profiler flags: every malformed
# spelling must exit 2 with a diagnostic on stderr (never run the bench,
# never exit 0/1/3), and the well-formed spellings must be accepted. Run
# by CTest as `cli_usage`; takes the pciebench path as $1.
set -u

PCIEBENCH="${1:?usage: cli_usage_check.sh <path-to-pciebench>}"
fail=0
tmpdir="$(mktemp -d /tmp/pcieb-usage-XXXXXX)"
trap 'rm -rf "$tmpdir"' EXIT

# expect_usage <description> -- <args...>: exit code 2 + stderr diagnostic.
expect_usage() {
    local desc="$1"; shift
    [[ "$1" == "--" ]] && shift
    local err
    err=$("$PCIEBENCH" "$@" 2>&1 >/dev/null)
    local code=$?
    if [[ $code -ne 2 ]]; then
        echo "FAIL($desc): exit $code, want 2: pciebench $*" >&2
        fail=1
    elif [[ -z "$err" ]]; then
        echo "FAIL($desc): exit 2 but no diagnostic on stderr" >&2
        fail=1
    else
        echo "   ok($desc): exit 2, '$(head -1 <<<"$err")'"
    fi
}

# expect_ok <description> -- <args...>: exit code 0.
expect_ok() {
    local desc="$1"; shift
    [[ "$1" == "--" ]] && shift
    if ! "$PCIEBENCH" "$@" >/dev/null 2>&1; then
        echo "FAIL($desc): nonzero exit: pciebench $*" >&2
        fail=1
    else
        echo "   ok($desc): accepted"
    fi
}

RUN=(run --system NFP6000-HSW --bench LAT_RD --iters 50 --warmup 10)

expect_usage "no command"          --
expect_usage "unknown option"      -- run --telemetrie
expect_usage "empty telemetry file" -- "${RUN[@]}" --telemetry=
expect_usage "interval w/o telemetry" -- "${RUN[@]}" --telemetry-interval 1000
expect_usage "zero interval"       -- "${RUN[@]}" --telemetry --telemetry-interval 0
expect_usage "non-numeric interval" -- "${RUN[@]}" --telemetry --telemetry-interval xyz
expect_usage "missing interval value" -- "${RUN[@]}" --telemetry --telemetry-interval
expect_usage "profile takes no value" -- perf --quick --profile=on
expect_usage "chaos empty telemetry file" -- chaos --trials 1 --telemetry=
expect_usage "suite telemetry bad spelling" -- suite --telemetry --bogus
expect_usage "unknown recovery policy"  -- "${RUN[@]}" --recovery turbo
expect_usage "recovery bad override"    -- "${RUN[@]}" --recovery default,flux=1
expect_usage "recovery none w/override" -- "${RUN[@]}" --recovery none,lanes=2
expect_usage "recovery bad time unit"   -- "${RUN[@]}" --recovery default,holdoff=5parsecs
expect_usage "chaos unknown recovery"   -- chaos --trials 1 --recovery bogus

# Multi-tenant flags (docs/ISOLATION.md): strict range and dependency
# validation, on run and chaos alike.
expect_usage "zero tenants"            -- "${RUN[@]}" --tenants 0
expect_usage "too many tenants"        -- "${RUN[@]}" --tenants 65
expect_usage "non-numeric tenants"     -- "${RUN[@]}" --tenants lots
expect_usage "attacker out of range"   -- "${RUN[@]}" --tenants 4 --attacker 4
expect_usage "attacker w/o tenants"    -- "${RUN[@]}" --attacker 1
expect_usage "isolation w/o tenants"   -- "${RUN[@]}" --isolation weakened
expect_usage "unknown isolation mode"  -- "${RUN[@]}" --tenants 4 --isolation bogus
expect_usage "weights w/o tenants"     -- "${RUN[@]}" --weights 1,2
expect_usage "weights size mismatch"   -- "${RUN[@]}" --tenants 4 --weights 1,2
expect_usage "zero weight"             -- "${RUN[@]}" --tenants 2 --weights 1,0
expect_usage "malformed weights list"  -- "${RUN[@]}" --tenants 2 --weights 1,,2
expect_usage "non-numeric weight"      -- "${RUN[@]}" --tenants 2 --weights 1,heavy
expect_usage "quota w/o tenants"       -- "${RUN[@]}" --ddio-quota 2,2
expect_usage "quota size mismatch"     -- "${RUN[@]}" --tenants 4 --ddio-quota 2
expect_usage "weights on shared FIFO"  -- "${RUN[@]}" --tenants 4 --isolation weakened --weights 8,1,1,1
expect_usage "quota on shared uncore"  -- "${RUN[@]}" --tenants 4 --isolation weakened --ddio-quota 1,1,1,1
expect_usage "tenants with trace"      -- "${RUN[@]}" --tenants 2 --trace /tmp/t.csv
expect_usage "tenants with telemetry"  -- "${RUN[@]}" --tenants 2 --telemetry
expect_usage "chaos zero tenants"      -- chaos --trials 1 --tenants 0
expect_usage "chaos attacker range"    -- chaos --trials 1 --tenants 4 --attacker 9
expect_usage "chaos weights rejected"  -- chaos --trials 1 --tenants 4 --weights 1,1,1,1
expect_usage "chaos quota rejected"    -- chaos --trials 1 --tenants 4 --ddio-quota 2,2,2,2
expect_usage "chaos bad isolation"     -- chaos --trials 1 --tenants 4 --isolation tight

# Overload flags (docs/OVERLOAD.md): the dedicated subcommand and the
# chaos riders both validate strictly.
expect_usage "overload needs system"      -- overload
expect_usage "overload unknown option"    -- overload --system NFP6000-HSW --offered-loda 2
expect_usage "overload zero load"         -- overload --system NFP6000-HSW --offered-load 0
expect_usage "overload non-numeric load"  -- overload --system NFP6000-HSW --offered-load heavy
expect_usage "overload bad service mode"  -- overload --system NFP6000-HSW --service-mode napi
expect_usage "overload bad backpressure"  -- overload --system NFP6000-HSW --backpressure maybe
expect_usage "overload bad arrivals"      -- overload --system NFP6000-HSW --arrivals uniform
expect_usage "overload zero frames"       -- overload --system NFP6000-HSW --frames 0
expect_usage "overload tiny frame"        -- overload --system NFP6000-HSW --frame 32
expect_usage "overload ring below doorbell batch" -- overload --system NFP6000-HSW --ring-slots 4
expect_usage "chaos zero offered load"    -- chaos --trials 1 --offered-load 0
expect_usage "chaos service w/o load"     -- chaos --trials 1 --service-mode poll
expect_usage "chaos bp w/o load"          -- chaos --trials 1 --backpressure on
expect_usage "chaos bad backpressure"     -- chaos --trials 1 --offered-load 2 --backpressure sometimes
expect_usage "chaos overload + tenants"   -- chaos --trials 1 --offered-load 2 --tenants 2
expect_usage "chaos overload + seed-bug"  -- chaos --trials 1 --offered-load 2 --seed-bug

# Pool threads enforce no worker limit, so suite --threads refuses each
# one instead of ignoring it (docs/EXEC.md).
SUITE=(suite --system NFP6000-HSW --filter LAT_RD/8/cold --threads 2)
expect_usage "suite threads + jobs"          -- "${SUITE[@]}" --jobs 1
expect_usage "suite threads + trial-timeout" -- "${SUITE[@]}" --trial-timeout 0.000001
expect_usage "suite threads + max-retries"   -- "${SUITE[@]}" --max-retries 0
expect_usage "suite threads + rss-budget"    -- "${SUITE[@]}" --rss-budget 1G

# Numbers: sizes are whole byte counts with at most one K/M/G suffix,
# integers are unsigned, and nothing wraps, saturates or truncates.
expect_usage "negative window"         -- "${RUN[@]}" --window -8K
expect_usage "nan window"              -- "${RUN[@]}" --window nan
expect_usage "window past 64 bits"     -- "${RUN[@]}" --window 1e30
expect_usage "fractional size"         -- "${RUN[@]}" --size 64.7
expect_usage "two-letter size suffix"  -- "${RUN[@]}" --window 8KB
expect_usage "text after size suffix"  -- "${RUN[@]}" --window 8Kxyz
expect_usage "size past 32 bits"       -- "${RUN[@]}" --size 4294967360
expect_usage "chaos zero iters"        -- chaos --trials 1 --iters 0
expect_usage "signed fault ordinal"    -- "${RUN[@]}" --faults "drop@nth=-1"
expect_usage "fault gen past 32 bits"  -- "${RUN[@]}" --faults "downtrain@gen=4294967297"
expect_usage "signed max-resets"       -- "${RUN[@]}" --recovery default,max-resets=-1
expect_usage "max-resets past 32 bits" -- "${RUN[@]}" --recovery default,max-resets=4294967296
# Times are decimal digits with an optional fraction and unit, nothing else.
expect_usage "signed fault time"       -- "${RUN[@]}" --faults "drop@time=+5us-10us"
expect_usage "exponent fault time"     -- "${RUN[@]}" --faults "drop@time=1e-3us-2us"
expect_usage "infinite holdoff"        -- "${RUN[@]}" --recovery default,holdoff=inf
expect_usage "hex probation"           -- "${RUN[@]}" --recovery default,probation=0x10

expect_ok "bare telemetry to stdout" -- "${RUN[@]}" --telemetry
expect_ok "telemetry to file" -- "${RUN[@]}" --telemetry="$tmpdir/tel.csv"
expect_ok "telemetry with interval" -- "${RUN[@]}" --telemetry --telemetry-interval 500000
expect_ok "chaos with telemetry" -- chaos --trials 2 --iters 50 --telemetry
expect_ok "recovery named policy" -- "${RUN[@]}" --recovery aggressive
expect_ok "recovery with overrides" -- "${RUN[@]}" --recovery default,max-resets=3,holdoff=20us
expect_ok "chaos recovery + throw-monitors" -- chaos --trials 2 --iters 50 --recovery default --throw-monitors
expect_ok "tenant run" -- run --system NFP6000-HSW --bench BW_WR --iters 50 --tenants 2
expect_ok "tenant run full knobs" -- run --system NFP6000-HSW --bench BW_WR --iters 50 --tenants 4 --attacker 1 --weights 2,1,1,1 --ddio-quota 2,2,2,2
expect_ok "tenant chaos" -- chaos --trials 2 --iters 50 --tenants 2 --attacker 0
expect_ok "overload quick run" -- overload --system NFP6000-HSW --offered-load 2 --frames 400 --capacity-pps 2000000
expect_ok "overload coalesce bp monitors" -- overload --system NFP6000-HSW --offered-load 2 --service-mode coalesce --backpressure on --frames 400 --capacity-pps 2000000 --monitors
expect_ok "overload chaos" -- chaos --trials 2 --iters 200 --offered-load 2 --service-mode coalesce --backpressure on
expect_ok "fractional and hex sizes" -- "${RUN[@]}" --window 1.5K --size 0x40
expect_ok "hex seeds and addresses" -- chaos --trials 1 --iters 50 --master-seed 0xc4a05
expect_ok "hex fault address range" -- "${RUN[@]}" --faults "drop@addr=0x0-0xfffff,every=7"
expect_ok "suite threads + journal" -- "${SUITE[@]}" --journal "$tmpdir/suite"

# The forked-worker chaos banner (stderr) names a planted bug exactly as
# the in-process banner (stdout) does.
err=$("$PCIEBENCH" chaos --trials 2 --iters 100 --tenants 4 --attacker 1 \
    --seed-bug --jobs 1 --no-shrink --journal "$tmpdir/j" 2>&1 >/dev/null)
banner="$(head -1 <<<"$err")"
if [[ "$banner" == *"[misroute bug planted]"* ]]; then
    echo "   ok(isolated chaos banner): '$banner'"
else
    echo "FAIL(isolated chaos banner): no planted-bug note in '$banner'" >&2
    fail=1
fi

exit $fail
