// pciebench — command-line control program, the equivalent of the
// paper's §5.4 user-space tools: run individual micro-benchmarks or full
// suites against any Table 1 system profile, with optional IOMMU
// configuration, and emit summaries, CDFs, histograms, time series or CSV.
//
// Examples:
//   pciebench list-systems
//   pciebench run --system NFP6000-HSW --bench LAT_RD --size 64
//       --window 8K --cache warm --iters 20000 --cdf --breakdown
//   pciebench run --system NFP6000-BDW --bench BW_RD --size 64
//       --window 16M --iommu on --pages 4K --counters out.csv
//   pciebench run --system NetFPGA-HSW --bench BW_WR --size 256
//       --window 1M --faults "drop@every=1000,dir=up" --errors
//   pciebench suite --system NFP6000-SNB --filter BW_RD --csv out.csv
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/campaign_exec.hpp"
#include "check/chaos.hpp"
#include "check/monitors.hpp"
#include "check/overload_monitors.hpp"
#include "check/perf.hpp"
#include "common/parse.hpp"
#include "core/observe.hpp"
#include "core/report.hpp"
#include "core/runner.hpp"
#include "core/suite.hpp"
#include "exec/outcome.hpp"
#include "exec/job_set.hpp"
#include "exec/thread_pool.hpp"
#include "fault/plan.hpp"
#include "fault/recovery.hpp"
#include "nic/overload.hpp"
#include "sysconfig/profiles.hpp"

namespace {

using namespace pcieb;

// Exit codes, uniform across subcommands (docs/EXEC.md):
//   0 — success
//   1 — benchmark failure / invariant violation
//   2 — usage error (bad flags, unknown system, malformed specs)
//   3 — infrastructure or worker error (journal I/O, quarantined jobs)
constexpr int kExitOk = 0;
constexpr int kExitFailure = 1;
constexpr int kExitUsage = 2;
constexpr int kExitInfra = 3;

[[noreturn]] void usage(const char* error = nullptr) {
  if (error) std::fprintf(stderr, "error: %s\n\n", error);
  std::fprintf(stderr, R"(usage:
  pciebench list-systems
  pciebench run --system NAME --bench KIND [options]
  pciebench suite --system NAME [--filter STR] [--csv FILE] [exec options]
  pciebench chaos [--trials N] [--master-seed N] [--iters N] [--no-shrink]
                  [exec options] [--csv FILE] [--artifacts DIR]
  pciebench overload --system NAME [--offered-load X] [--service-mode M]
                  [--backpressure on|off] [options]
  pciebench perf  [--quick] [--json FILE] [--profile]

run options:
  --bench KIND      LAT_RD | LAT_WRRD | BW_RD | BW_WR | BW_RDWR
  --size N          transfer size in bytes            (default 64)
  --offset N        offset within a cache line        (default 0)
  --window SZ       window size, e.g. 8K, 1M, 64M     (default 8K)
  --pattern P       rand | seq                        (default rand)
  --cache S         warm | cold | device              (default warm)
  --numa L          local | remote                    (default local)
  --iommu S         on | off                          (default off)
  --pages SZ        4K | 2M | 1G backing pages        (default 4K)
  --iters N         measured transactions             (default 20000)
  --warmup N        unmeasured lead-in transactions   (default 0)
  --cmd-if          use the NFP direct command interface
  --seed N          RNG seed                          (default 42)
  --cdf             print the latency CDF
  --histogram       print a latency histogram
  --timeseries      print a thinned latency time series

observability options (run):
  --trace FILE      write a Chrome trace-event JSON (ui.perfetto.dev)
  --counters DEST   dump component counters: CSV file, or - for stdout
  --breakdown       per-stage latency attribution (serial reads), with the
                    model's stage budget alongside when it applies
  --telemetry[=FILE]
                    stream per-interval counter deltas over sim time; bare
                    prints the CSV to stdout, =FILE writes CSV (JSON when
                    FILE ends in .json). Combined with --trace the counter
                    tracks are embedded in the Chrome JSON; combined with
                    --breakdown the per-stage latency digests are printed
  --telemetry-interval PS
                    sampling interval in sim picoseconds (default 1000000
                    = 1 us; requires --telemetry)

fault-injection options (run):
  --faults SPEC     arm a deterministic fault plan; SPEC is ';'-separated
                    rules, e.g. "corrupt@prob=1e-3;drop@nth=100,dir=down"
                    (grammar: docs/FAULTS.md). Arms completion timeouts,
                    retries and the deadlock watchdog.
  --fault-seed N    seed for probabilistic fault rules    (default 0x5eed)
  --recovery POLICY arm the AER-driven recovery escalation ladder
                    (downtrain -> FLR -> containment -> hot reset ->
                    quarantine, docs/FAULTS.md). POLICY is default,
                    aggressive or conservative, optionally followed by
                    ,key=value overrides (e.g. "default,max-resets=4");
                    none disarms. Bandwidth runs report goodput before/
                    during/after the ladder's active window.
  --errors          print the AER error log, injected-fault tallies and
                    (when --recovery armed) the recovery transition log

self-checking options (run):
  --monitors        arm the invariant monitors (credit/tag/payload/replay
                    conservation — docs/CHECKING.md); prints a report and
                    exits non-zero on any violation

multi-tenant options (run — docs/ISOLATION.md):
  --tenants N       run N PCIe functions on the port (1..64), one
                    closed-loop workload and one result line each: N > 1
                    are SR-IOV VFs sharing the port, N = 1 is the plain
                    port. --monitors arms the isolation invariants.
  --attacker K      mark VF K (0-based, < N) as the attacker for display;
                    fault plans scope themselves with vf:K clauses
  --isolation MODE  armed (default) | weakened — weakened swaps every
                    isolation mechanism for its shared implementation
  --weights LIST    comma-separated link-arbitration weight per VF,
                    e.g. 3,1,1,1 (default: equal shares; armed isolation
                    only — a shared FIFO link has no lanes to weight)
  --ddio-quota LIST comma-separated DDIO ways per VF's LLC slice (armed
                    isolation only — a shared uncore has no slices)

chaos options:
  --trials N        trials to run                         (default 20)
  --master-seed N   campaign seed; every trial derives from it (default
                    0xc4a05)
  --iters N         measured transactions per trial       (default 400)
  --no-shrink       report the first failure without minimizing it
  --seed-bug        TEST-ONLY: plant the known credit-leak bug so the
                    campaign demonstrably catches and shrinks a failure
                    (not with --offered-load: overload trials plant none)
  --recovery POLICY arm the recovery ladder in every trial (same grammar
                    as run); trial outcomes gain the ladder's final state
                    and transition digest, carried through journals
  --throw-monitors  monitors throw at the violating event instead of
                    recording (first violation aborts the trial with a
                    stack-proximate diagnostic)
  --csv FILE        write the canonical per-trial CSV (isolated mode)
  --artifacts DIR   quarantine-artifact directory (default <journal>/artifacts)
  --tenants N       tenant chaos: N VFs per trial, every trial runs twice
                    (attacker plan armed vs stripped) and victims' digests
                    and counters are compared byte-for-byte
                    (docs/ISOLATION.md)
  --attacker K      the VF carrying the fault plan     (default 0)
  --isolation MODE  armed (default): any victim perturbation is a
                    violation | weakened: perturbation is reported as the
                    measured blast radius
                    (with --seed-bug and --tenants, plants the completion-
                    misroute bug instead of the credit leak)

overload options (open-loop RX overload — docs/OVERLOAD.md):
  --offered-load X  offered load as a multiple of the calibrated capacity,
                    e.g. 0.5, 1, 2, 4                    (default 2)
  --service-mode M  poll (busy-poll host service) | coalesce (IRQ
                    moderation with per-interrupt wakeup cost)
  --backpressure S  on | off — MAC-level PAUSE with a bounded budget
                    protecting the RX freelist            (default off)
  --frame N         frame size in bytes, 60..1514         (default 256)
  --arrivals A      poisson | burst arrival process       (default poisson)
  --burst N         frames per burst (burst arrivals)     (default 16)
  --flows N         Zipf-weighted flow count              (default 64)
  --zipf S          Zipf skew parameter                   (default 1.1)
  --frames N        offered frames per run                (default 20000)
  --ring-slots N    RX freelist ring slots                (default 512)
  --admission N     host-backlog tail-drop threshold; 0 disables admission
                    control                               (default 0)
  --pause-budget NS cumulative PAUSE cap in nanoseconds   (default 500000)
  --capacity-pps N  skip calibration and scale against this capacity
  --seed N          arrival-process RNG seed              (default 42)
  --faults / --fault-seed / --recovery / --errors  as in run: compose the
                    overload with a fault plan and the recovery ladder
  --monitors        arm the PCIe invariant monitors AND the overload
                    monitors (conservation / progress / occupancy —
                    docs/OVERLOAD.md); exits non-zero on any violation

overload-chaos options (chaos — docs/OVERLOAD.md):
  --offered-load X  switch every trial to the open-loop overload datapath
                    at X times that trial's calibrated capacity (mutually
                    exclusive with --tenants); per-trial frame size,
                    arrival process, ring size and admission threshold are
                    drawn from the trial stream
  --service-mode M  poll | coalesce, applied to every trial (default poll)
  --backpressure S  on | off, applied to every trial       (default off)

telemetry options (suite and chaos):
  --telemetry[=FILE]
                    record mergeable latency digests per trial/experiment
                    and print campaign-level percentiles (p50/p99/p999);
                    =FILE also writes the canonical serialized digest set,
                    byte-identical across serial, --threads, --jobs and
                    --resume runs (docs/OBSERVABILITY.md)

exec options (suite and chaos — any of them switches the command into
crash-safe isolated mode: every trial/experiment runs in a forked worker
with a deadline and an RSS budget, is retried with capped backoff, then
quarantined; completed results append to a resumable journal. docs/EXEC.md):
  --jobs N            concurrent worker processes          (default 1)
  --trial-timeout S   per-attempt wall-clock deadline, sec (default 120)
  --max-retries N     retries after the first attempt      (default 2)
  --rss-budget SZ     per-worker RSS budget, e.g. 2G       (default off)
  --journal DIR       journal directory for a fresh run    (default temp)
  --resume DIR        resume from DIR, skipping journaled results
                      (mutually exclusive with --journal)

perf options (docs/PERFORMANCE.md):
  --quick           ~10x smaller workloads (CI-sized; event and TLP counts
                    stay exact, just different constants)
  --json FILE       write the report JSON            (default BENCH_perf.json)
  --profile         arm the in-sim cost-center profiler around each workload
                    and print a ranked attribution table (distorts the
                    recorded rates; use to localize cost, not to gate)

thread options (suite and chaos):
  --threads N         in-process thread-parallel execution: independent
                      trials/experiments on a work-stealing pool (0 = all
                      hardware threads). Canonical output is byte-identical
                      to serial and to fork-isolated runs; crashes are NOT
                      contained. Mutually exclusive with --jobs and the
                      worker limits (--trial-timeout, --max-retries,
                      --rss-budget); a suite keeps --journal/--resume.

exit codes (all commands):
  0  success          1  benchmark failure / invariant violation
  2  usage error      3  infrastructure or worker error (incl. quarantines)

unknown options are rejected; see docs/OBSERVABILITY.md for the schema.
)");
  std::exit(2);
}

constexpr std::uint64_t kNoMax = std::numeric_limits<std::uint64_t>::max();

/// A strict unsigned integer (common/parse.hpp) no larger than `max`.
std::uint64_t parse_u64(const char* key, const std::string& s,
                        std::uint64_t max = kNoMax) {
  const auto v = parse_unsigned(s, max);
  if (!v) usage(("bad number '" + s + "' for --" + key).c_str());
  return *v;
}

double parse_f64(const char* key, const std::string& s) {
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (s.empty() || end != s.c_str() + s.size() || !(v >= 0.0)) {
    usage(("bad value '" + s + "' for --" + key).c_str());
  }
  return v;
}

/// `--recovery POLICY` (run and chaos); absent = "none" = never armed.
fault::RecoveryPolicy parse_recovery(const std::string& spec) {
  try {
    return fault::parse_recovery_policy(spec);
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  }
}

/// A byte count: a number (fractions allowed, e.g. 1.5M) with at most one
/// K/M/G binary suffix, whole and no larger than `max` once scaled.
std::uint64_t parse_size(const char* key, const std::string& s,
                         std::uint64_t max = kNoMax) {
  const auto bad = [&] {
    usage(("bad size '" + s + "' for --" + key).c_str());
  };
  // A digit or '.' first: no sign, space, nan or inf.
  if (s.empty() || !((s.front() >= '0' && s.front() <= '9') ||
                     s.front() == '.')) {
    bad();
  }
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  const std::string suffix = end;
  double mult = 1.0;
  if (suffix == "k" || suffix == "K") mult = 0x1p10;
  else if (suffix == "m" || suffix == "M") mult = 0x1p20;
  else if (suffix == "g" || suffix == "G") mult = 0x1p30;
  else if (!suffix.empty()) bad();
  const double bytes = v * mult;
  // Every whole double below 2^64 converts to uint64 exactly.
  if (!(bytes >= 0.0 && bytes < 0x1p64) || bytes != std::floor(bytes) ||
      static_cast<std::uint64_t>(bytes) > max) {
    bad();
  }
  return static_cast<std::uint64_t>(bytes);
}

core::BenchKind parse_kind(const std::string& s) {
  static const std::map<std::string, core::BenchKind> kinds = {
      {"LAT_RD", core::BenchKind::LatRd},
      {"LAT_WRRD", core::BenchKind::LatWrRd},
      {"BW_RD", core::BenchKind::BwRd},
      {"BW_WR", core::BenchKind::BwWr},
      {"BW_RDWR", core::BenchKind::BwRdWr},
  };
  const auto it = kinds.find(s);
  if (it == kinds.end()) usage(("unknown bench kind '" + s + "'").c_str());
  return it->second;
}

struct Args {
  std::map<std::string, std::string> values;
  std::vector<std::string> flags;

  bool has_flag(const std::string& f) const {
    for (const auto& g : flags) {
      if (g == f) return true;
    }
    return false;
  }
  std::string get(const std::string& key, const std::string& fallback) const {
    const auto it = values.find(key);
    return it == values.end() ? fallback : it->second;
  }
};

/// Parse `--key value` / `--key=value` / `--flag` arguments, validating
/// every key against the command's allowed sets — a typo exits non-zero
/// instead of being silently swallowed. A key present in BOTH sets takes
/// an optional value: bare `--key` records a flag, `--key=V` a value
/// (the space-separated form is rejected so `--key next-arg` stays
/// unambiguous).
Args parse_args(int argc, char** argv, int start,
                const std::set<std::string>& value_keys,
                const std::set<std::string>& flag_keys) {
  Args args;
  for (int i = start; i < argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--", 0) != 0) usage(("unexpected argument '" + a + "'").c_str());
    a = a.substr(2);
    const auto eq = a.find('=');
    if (eq != std::string::npos) {
      const std::string key = a.substr(0, eq);
      if (!value_keys.contains(key)) {
        if (flag_keys.contains(key)) {
          usage(("option --" + key + " does not take a value").c_str());
        }
        usage(("unknown option '--" + key + "'").c_str());
      }
      args.values[key] = a.substr(eq + 1);
    } else if (flag_keys.contains(a)) {
      args.flags.push_back(a);
    } else if (value_keys.contains(a)) {
      if (i + 1 >= argc) usage(("missing value for --" + a).c_str());
      args.values[a] = argv[++i];
    } else {
      usage(("unknown option '--" + a + "'").c_str());
    }
  }
  return args;
}

// "telemetry" appears in both the value and flag sets of run/suite/chaos:
// bare --telemetry arms it with stdout output, --telemetry=FILE writes the
// canonical artifact to FILE (docs/OBSERVABILITY.md).
const std::set<std::string> kRunValueKeys = {
    "system", "bench",  "size", "offset", "window",  "pattern", "cache",
    "numa",   "iommu",  "pages", "iters", "warmup",  "seed",    "trace",
    "counters", "faults", "fault-seed", "recovery", "telemetry",
    "telemetry-interval", "tenants", "attacker", "isolation", "weights",
    "ddio-quota"};
const std::set<std::string> kRunFlagKeys = {"cdf",    "histogram", "timeseries",
                                            "cmd-if", "breakdown", "errors",
                                            "monitors", "telemetry"};
// Any exec key present switches suite/chaos into crash-safe isolated mode.
const std::set<std::string> kExecValueKeys = {
    "jobs", "trial-timeout", "max-retries", "rss-budget", "journal", "resume"};
const std::set<std::string> kSuiteValueKeys = {
    "system", "filter", "csv", "threads", "telemetry",
    "jobs",   "trial-timeout", "max-retries", "rss-budget", "journal",
    "resume"};
const std::set<std::string> kSuiteFlagKeys = {"telemetry"};
const std::set<std::string> kChaosValueKeys = {
    "trials", "master-seed", "iters", "csv", "artifacts", "threads",
    "jobs",   "trial-timeout", "max-retries", "rss-budget", "journal",
    "resume", "telemetry", "recovery", "tenants", "attacker", "isolation",
    "offered-load", "service-mode", "backpressure"};
const std::set<std::string> kChaosFlagKeys = {"no-shrink", "seed-bug",
                                              "telemetry", "throw-monitors"};
const std::set<std::string> kOverloadValueKeys = {
    "system", "frame", "offered-load", "service-mode", "backpressure",
    "arrivals", "burst", "flows", "zipf", "frames", "ring-slots",
    "admission", "pause-budget", "capacity-pps", "seed", "faults",
    "fault-seed", "recovery"};
const std::set<std::string> kOverloadFlagKeys = {"monitors", "errors"};
const std::set<std::string> kPerfValueKeys = {"json"};
const std::set<std::string> kPerfFlagKeys = {"quick", "profile"};

/// `--telemetry` / `--telemetry=FILE`, shared by run/suite/chaos. An
/// explicitly empty FILE is a usage error, not a silent stdout fallback.
struct TelemetryOpt {
  bool enabled = false;
  std::string file;  ///< empty: canonical artifact goes to stdout
};

TelemetryOpt parse_telemetry(const Args& args) {
  TelemetryOpt t;
  if (args.has_flag("telemetry")) t.enabled = true;
  const auto it = args.values.find("telemetry");
  if (it != args.values.end()) {
    if (it->second.empty()) {
      usage("empty FILE for --telemetry= (use bare --telemetry for stdout)");
    }
    t.enabled = true;
    t.file = it->second;
  }
  return t;
}

/// Multi-tenant flags shared by run and chaos; tenants == 0 means the
/// classic single-tenant path (all other tenant flags then rejected).
struct TenantOpt {
  unsigned tenants = 0;
  unsigned attacker = 0;
  bool weakened = false;
  std::vector<unsigned> weights;
  std::vector<unsigned> ddio_quota;
};

std::vector<unsigned> parse_unsigned_list(const char* key,
                                          const std::string& s) {
  std::vector<unsigned> out;
  std::istringstream is(s);
  std::string tok;
  while (std::getline(is, tok, ',')) {
    out.push_back(static_cast<unsigned>(
        parse_u64(key, tok, std::numeric_limits<unsigned>::max())));
  }
  if (out.empty()) usage(("empty list for --" + std::string(key)).c_str());
  return out;
}

TenantOpt parse_tenant_opts(const Args& args) {
  TenantOpt t;
  if (args.values.contains("tenants")) {
    const std::uint64_t n = parse_u64("tenants", args.get("tenants", ""));
    if (n < 1 || n > 64) usage("--tenants must be in [1, 64]");
    t.tenants = static_cast<unsigned>(n);
  }
  for (const char* dep : {"attacker", "isolation", "weights", "ddio-quota"}) {
    if (t.tenants == 0 && args.values.contains(dep)) {
      usage(("--" + std::string(dep) + " requires --tenants").c_str());
    }
  }
  if (args.values.contains("attacker")) {
    const std::uint64_t k = parse_u64("attacker", args.get("attacker", ""));
    if (k >= t.tenants) {
      usage("--attacker must name a VF index below --tenants");
    }
    t.attacker = static_cast<unsigned>(k);
  }
  const std::string iso = args.get("isolation", "armed");
  if (iso == "weakened") t.weakened = true;
  else if (iso != "armed") usage("--isolation must be armed or weakened");
  if (args.values.contains("weights")) {
    t.weights = parse_unsigned_list("weights", args.get("weights", ""));
    if (t.weights.size() != t.tenants) {
      usage("--weights must list exactly one weight per tenant");
    }
    for (unsigned w : t.weights) {
      if (w == 0) usage("--weights entries must be >= 1");
    }
  }
  if (args.values.contains("ddio-quota")) {
    t.ddio_quota = parse_unsigned_list("ddio-quota", args.get("ddio-quota", ""));
    if (t.ddio_quota.size() != t.tenants) {
      usage("--ddio-quota must list exactly one way count per tenant");
    }
  }
  return t;
}

void write_text_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    throw exec::InfraError("cannot write " + path + ": " +
                           std::strerror(errno));
  }
  std::fputs(text.c_str(), f);
  std::fclose(f);
}

bool exec_mode_requested(const Args& args) {
  for (const auto& key : kExecValueKeys) {
    if (args.values.contains(key)) return true;
  }
  return false;
}

/// Shared exec-flag parsing for suite/chaos isolated modes.
exec::RunConfig parse_run_config(const Args& args) {
  exec::RunConfig run;
  exec::PoolConfig& pool = run.pool;
  pool.jobs = parse_u64("jobs", args.get("jobs", "1"));
  if (pool.jobs == 0) usage("--jobs must be >= 1");
  pool.limits.wall_seconds =
      parse_f64("trial-timeout", args.get("trial-timeout", "120"));
  if (pool.limits.wall_seconds <= 0) usage("--trial-timeout must be > 0");
  pool.max_retries = static_cast<unsigned>(
      parse_u64("max-retries", args.get("max-retries", "2"),
                std::numeric_limits<unsigned>::max()));
  const std::string rss = args.get("rss-budget", "");
  if (!rss.empty()) pool.limits.rss_bytes = parse_size("rss-budget", rss);
  const std::string journal = args.get("journal", "");
  const std::string resume_dir = args.get("resume", "");
  if (!journal.empty() && !resume_dir.empty()) {
    usage("--journal and --resume are mutually exclusive");
  }
  run.journal_dir = resume_dir.empty() ? journal : resume_dir;
  run.resume = !resume_dir.empty();
  return run;
}

int cmd_list_systems() {
  std::printf("%-16s %-28s %-6s %-13s %s\n", "name", "cpu", "numa", "arch",
              "adapter");
  for (const auto& p : sys::all_profiles()) {
    std::printf("%-16s %-28s %-6s %-13s %s\n", p.name.c_str(), p.cpu.c_str(),
                p.numa_nodes > 1 ? "2-way" : "no", p.arch.c_str(),
                p.adapter.c_str());
  }
  return 0;
}

sim::SystemConfig configured_system(const Args& args,
                                    core::BenchParams& params) {
  const std::string system_name = args.get("system", "");
  if (system_name.empty()) usage("--system is required");
  auto cfg = sys::profile_by_name(system_name).config;

  params.transfer_size = static_cast<std::uint32_t>(
      parse_size("size", args.get("size", "64"), UINT32_MAX));
  params.offset = static_cast<std::uint32_t>(
      parse_size("offset", args.get("offset", "0"), UINT32_MAX));
  params.window_bytes = parse_size("window", args.get("window", "8K"));
  params.iterations = parse_u64("iters", args.get("iters", "20000"));
  params.warmup = parse_u64("warmup", args.get("warmup", "0"));
  params.seed = parse_u64("seed", args.get("seed", "42"));
  params.use_cmd_if = args.has_flag("cmd-if");

  const std::string pattern = args.get("pattern", "rand");
  if (pattern == "rand") params.pattern = core::AccessPattern::Random;
  else if (pattern == "seq") params.pattern = core::AccessPattern::Sequential;
  else usage("--pattern must be rand or seq");

  const std::string cache = args.get("cache", "warm");
  if (cache == "warm") params.cache_state = core::CacheState::HostWarm;
  else if (cache == "cold") params.cache_state = core::CacheState::Thrash;
  else if (cache == "device") params.cache_state = core::CacheState::DeviceWarm;
  else usage("--cache must be warm, cold or device");

  const std::string numa = args.get("numa", "local");
  if (numa == "local") params.numa_local = true;
  else if (numa == "remote") params.numa_local = false;
  else usage("--numa must be local or remote");

  params.page_bytes = parse_size("pages", args.get("pages", "4K"));
  const std::string iommu = args.get("iommu", "off");
  if (iommu == "on") {
    cfg = sys::with_iommu(cfg, true, params.page_bytes);
  } else if (iommu != "off") {
    usage("--iommu must be on or off");
  }

  const std::string faults = args.get("faults", "");
  if (!faults.empty()) {
    cfg.fault_plan = fault::parse_plan(faults);
    cfg.fault_plan.seed = parse_u64("fault-seed", args.get("fault-seed", "0x5eed"));
  }
  cfg.recovery = parse_recovery(args.get("recovery", "none"));
  return cfg;
}

/// Multi-tenant run: one closed-loop workload per VF on a System with
/// `--tenants` functions, one result line per VF. The observability stack
/// (traces, counters CSV, breakdown, telemetry) is classic-run-only.
int cmd_run_tenants(const Args& args, const TenantOpt& topt) {
  for (const char* incompatible :
       {"trace", "counters", "telemetry", "telemetry-interval"}) {
    if (args.values.contains(incompatible)) {
      usage(("--" + std::string(incompatible) +
             " is not supported with --tenants").c_str());
    }
  }
  for (const char* incompatible :
       {"cdf", "histogram", "timeseries", "breakdown", "telemetry"}) {
    if (args.has_flag(incompatible)) {
      usage(("--" + std::string(incompatible) +
             " is not supported with --tenants").c_str());
    }
  }

  core::BenchParams params;
  params.kind = parse_kind(args.get("bench", "LAT_RD"));
  sim::SystemConfig cfg = configured_system(args, params);
  cfg.tenants = topt.tenants;
  cfg.weights = topt.weights;
  cfg.ddio_quota = topt.ddio_quota;
  cfg.isolation = topt.weakened ? sim::TenantIsolation::all_weakened()
                                : sim::TenantIsolation::all_armed();
  sim::System system(cfg);

  std::optional<check::MonitorSuite> monitors;
  if (args.has_flag("monitors")) monitors.emplace(system);

  const auto results = core::run_tenant_bench(system, params);
  for (const auto& r : results) {
    std::printf(
        "vf%-2u%s p50=%.1fns p99=%.1fns p999=%.1fns goodput=%.2fGb/s "
        "ops=%llu lost=%llu B\n",
        r.vf,
        (args.values.contains("attacker") && r.vf == topt.attacker)
            ? " [attacker]"
            : "",
        r.latency.quantile_ns(0.5), r.latency.quantile_ns(0.99),
        r.latency.quantile_ns(0.999), r.goodput_gbps,
        static_cast<unsigned long long>(r.ops),
        static_cast<unsigned long long>(r.lost_payload_bytes));
  }

  if (args.has_flag("errors")) {
    // A lone function's own log is the port's: print it once.
    if (system.shared()) {
      std::printf("port AER:\n%s", system.port_aer().to_table().c_str());
    }
    for (unsigned vf = 0; vf < system.function_count(); ++vf) {
      std::printf("vf%u AER:\n%s", vf, system.aer(vf).to_table().c_str());
    }
    if (auto* inj = system.fault_injector()) {
      std::printf("%s", inj->to_table().c_str());
    }
    for (unsigned vf = 0; vf < system.function_count(); ++vf) {
      if (const auto* rec = system.recovery(vf)) {
        std::printf("vf%u recovery:\n%s", vf, rec->to_table().c_str());
      }
    }
    if (system.device_wide_actions() != 0) {
      std::printf("device-wide recovery actions (blast radius): %llu\n",
                  static_cast<unsigned long long>(
                      system.device_wide_actions()));
    }
  }
  if (monitors) {
    monitors->check_quiescent();
    std::printf("%s", monitors->report().c_str());
    if (!monitors->ok()) return kExitFailure;
  }
  return kExitOk;
}

int cmd_run(const Args& args) {
  const TenantOpt topt = parse_tenant_opts(args);
  if (topt.tenants > 0) return cmd_run_tenants(args, topt);
  core::BenchParams params;
  params.kind = parse_kind(args.get("bench", "LAT_RD"));
  const auto cfg = configured_system(args, params);
  sim::System system(cfg);

  // Armed before the run so every event is checked; record mode keeps
  // the run alive to quiesce, where the conservation checks live.
  std::optional<check::MonitorSuite> monitors;
  if (args.has_flag("monitors")) monitors.emplace(system);

  const std::string trace_path = args.get("trace", "");
  const std::string counters_dest = args.get("counters", "");
  const TelemetryOpt telemetry = parse_telemetry(args);
  core::ObsSession::Options oopts;
  oopts.trace = !trace_path.empty();
  oopts.breakdown = args.has_flag("breakdown");
  oopts.telemetry = telemetry.enabled;
  if (args.values.contains("telemetry-interval")) {
    if (!telemetry.enabled) usage("--telemetry-interval requires --telemetry");
    const std::uint64_t interval =
        parse_u64("telemetry-interval", args.get("telemetry-interval", ""),
                  std::numeric_limits<Picos>::max());
    if (interval == 0) usage("--telemetry-interval must be > 0 (picoseconds)");
    oopts.telemetry_interval_ps = static_cast<Picos>(interval);
  }
  std::optional<core::ObsSession> obs;
  if (oopts.trace || oopts.breakdown || oopts.telemetry ||
      !counters_dest.empty()) {
    obs.emplace(system, oopts);
  }

  if (core::is_latency(params.kind)) {
    const auto r = core::run_latency_bench(system, params);
    std::printf("%s\n", core::format(r).c_str());
    if (args.has_flag("cdf")) {
      std::printf("# cdf: latency_ns fraction\n%s",
                  core::cdf_dump(r).c_str());
    }
    if (args.has_flag("histogram")) {
      std::printf("# histogram: lo_ns hi_ns count\n%s",
                  core::histogram_dump(r).c_str());
    }
    if (args.has_flag("timeseries")) {
      std::printf("# timeseries: index latency_ns\n%s",
                  core::time_series_dump(r).c_str());
    }
  } else {
    const auto r = core::run_bandwidth_bench(system, params);
    std::printf("%s\n", core::format(r).c_str());
  }

  if (args.has_flag("errors")) {
    std::printf("%s", system.aer().to_table().c_str());
    if (auto* inj = system.fault_injector()) {
      std::printf("%s", inj->to_table().c_str());
    }
    if (const auto* rec = system.recovery()) {
      std::printf("%s", rec->to_table().c_str());
    }
  }
  if (oopts.breakdown) {
    // The model's stage budget applies to single-request reads on a
    // jitter-free path; skip the column when the size doesn't fit.
    std::optional<model::ReadStageBudget> budget;
    try {
      budget = model::dma_read_stage_budget(
          core::stage_budget_inputs(cfg, params), params.offset,
          params.transfer_size);
    } catch (const std::invalid_argument&) {
    }
    std::printf("%s", core::format_breakdown(obs->breakdown_report(),
                                             budget ? &*budget : nullptr)
                          .c_str());
  }
  if (!counters_dest.empty()) {
    if (counters_dest == "-") {
      std::printf("%s", obs->counters().to_table().c_str());
    } else {
      obs->counters().write_csv(counters_dest);
      std::printf("wrote %zu counters to %s\n", obs->counters().size(),
                  counters_dest.c_str());
    }
  }
  if (telemetry.enabled) {
    // Close the partial tail interval first so the CSV/JSON export and
    // the Chrome counter tracks below both see the complete series.
    obs->finish_telemetry();
    const obs::TimeSeries* ts = obs->telemetry();
    if (telemetry.file.empty()) {
      std::printf("# telemetry: %zu intervals of %lld ps%s\n",
                  ts->intervals().size(),
                  static_cast<long long>(oopts.telemetry_interval_ps),
                  ts->dropped() != 0 ? " (ring wrapped; oldest dropped)" : "");
      std::ostringstream os;
      ts->write_csv(os);
      std::fputs(os.str().c_str(), stdout);
    } else if (telemetry.file.size() >= 5 &&
               telemetry.file.ends_with(".json")) {
      std::ostringstream os;
      ts->write_json(os);
      write_text_file(telemetry.file, os.str());
      std::printf("wrote %zu telemetry intervals to %s\n",
                  ts->intervals().size(), telemetry.file.c_str());
    } else {
      ts->write_csv_file(telemetry.file);
      std::printf("wrote %zu telemetry intervals to %s\n",
                  ts->intervals().size(), telemetry.file.c_str());
    }
    // Per-stage latency digests ride on the breakdown's stage samples.
    if (oopts.breakdown) {
      const obs::DigestSet stages = obs->stage_digests();
      if (!stages.empty()) std::printf("%s", stages.to_table().c_str());
    }
  }
  if (!trace_path.empty()) {
    obs->write_trace_json(trace_path);
    std::printf("wrote %llu trace events to %s\n",
                static_cast<unsigned long long>(obs->sink()->size()),
                trace_path.c_str());
  }
  if (monitors) {
    monitors->check_quiescent();
    std::printf("%s", monitors->report().c_str());
    if (!monitors->ok()) return 1;
  }
  return 0;
}

nic::ServiceMode parse_service_mode_arg(const std::string& s) {
  try {
    return nic::parse_service_mode(s);
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  }
}

bool parse_on_off(const char* key, const std::string& s) {
  if (s == "on") return true;
  if (s == "off") return false;
  usage(("--" + std::string(key) + " must be on or off").c_str());
}

/// Open-loop overload point: calibrate capacity closed-loop, then sustain
/// --offered-load times that rate through the same RX datapath with the
/// frame-accounting ledger printed (docs/OVERLOAD.md). --monitors arms
/// both the PCIe-level MonitorSuite and the OverloadMonitorSuite.
int cmd_overload(const Args& args) {
  core::BenchParams params;  // only the system/fault/recovery flags apply
  const auto cfg = configured_system(args, params);

  nic::OverloadConfig ocfg;
  ocfg.frame_bytes = static_cast<std::uint32_t>(
      parse_size("frame", args.get("frame", "256"), UINT32_MAX));
  ocfg.offered_load = parse_f64("offered-load", args.get("offered-load", "2"));
  if (ocfg.offered_load <= 0) usage("--offered-load must be > 0");
  ocfg.service = parse_service_mode_arg(args.get("service-mode", "poll"));
  ocfg.backpressure =
      parse_on_off("backpressure", args.get("backpressure", "off"));
  const std::string arrivals = args.get("arrivals", "poisson");
  if (arrivals == "poisson") ocfg.arrivals = core::ArrivalModel::Poisson;
  else if (arrivals == "burst") ocfg.arrivals = core::ArrivalModel::Burst;
  else usage("--arrivals must be poisson or burst");
  ocfg.burst_frames = static_cast<std::uint32_t>(
      parse_u64("burst", args.get("burst", "16"), UINT32_MAX));
  ocfg.flows = static_cast<std::uint32_t>(
      parse_u64("flows", args.get("flows", "64"), UINT32_MAX));
  ocfg.zipf_s = parse_f64("zipf", args.get("zipf", "1.1"));
  ocfg.frames = parse_u64("frames", args.get("frames", "20000"));
  ocfg.ring_slots = static_cast<std::uint32_t>(
      parse_u64("ring-slots", args.get("ring-slots", "512"), UINT32_MAX));
  ocfg.admission_slots = static_cast<std::uint32_t>(
      parse_u64("admission", args.get("admission", "0"), UINT32_MAX));
  ocfg.pause_budget = from_nanos(static_cast<double>(
      parse_u64("pause-budget", args.get("pause-budget", "500000"),
                std::numeric_limits<Picos>::max() / kPicosPerNano)));
  ocfg.capacity_pps =
      parse_u64("capacity-pps", args.get("capacity-pps", "0"));
  ocfg.seed = parse_u64("seed", args.get("seed", "42"));
  ocfg.validate();

  if (ocfg.capacity_pps == 0) {
    // Calibration strips faults/recovery: capacity is a property of the
    // healthy path, so the same seed yields the same scale whether or
    // not a fault plan rides along.
    ocfg.capacity_pps = nic::calibrate_capacity(cfg, ocfg);
  }

  sim::System system(cfg);
  std::optional<check::MonitorSuite> monitors;
  std::optional<check::OverloadMonitorSuite> omonitors;
  if (args.has_flag("monitors")) {
    monitors.emplace(system);
    omonitors.emplace();
  }
  const auto r = nic::run_overload(system, ocfg,
                                   omonitors ? omonitors->probe() : nullptr);

  const auto& st = r.stats;
  std::printf("capacity: %llu frames/s (closed-loop calibration)\n",
              static_cast<unsigned long long>(r.capacity_pps));
  std::printf(
      "offered:  %.2fx capacity = %.0f frames/s (%s arrivals, %u flows, "
      "%u B frames)\n",
      ocfg.offered_load, r.offered_pps, core::to_string(ocfg.arrivals),
      ocfg.flows, ocfg.frame_bytes);
  std::printf(
      "goodput:  %.0f frames/s (%.2f Gb/s) — delivered %llu of %llu "
      "offered in %.3f ms\n",
      r.goodput_pps, r.goodput_gbps,
      static_cast<unsigned long long>(st.delivered),
      static_cast<unsigned long long>(st.offered),
      static_cast<double>(r.elapsed) / 1e9);
  std::printf("drops:    mac=%llu ring=%llu admission=%llu (total %llu)\n",
              static_cast<unsigned long long>(st.dropped_mac),
              static_cast<unsigned long long>(st.dropped_ring),
              static_cast<unsigned long long>(st.dropped_admission),
              static_cast<unsigned long long>(st.dropped_total()));
  if (ocfg.backpressure) {
    std::printf("pause:    %llu assertion(s), %.1f us asserted of %.1f us "
                "budget\n",
                static_cast<unsigned long long>(st.pause_events),
                static_cast<double>(st.pause_ps) / 1e6,
                static_cast<double>(st.pause_budget) / 1e6);
  }
  if (ocfg.service == nic::ServiceMode::Coalesce) {
    std::printf("irqs:     %llu (moderation %u frames, wakeup %.1f ns)\n",
                static_cast<unsigned long long>(st.irqs),
                nic::OverloadConfig::kIrqModeration,
                static_cast<double>(nic::OverloadConfig::kIrqCost) / 1e3);
  }
  std::printf("occupancy: ring peak %u/%u, backlog peak %llu%s\n",
              st.ring_max_pending, st.ring_slots,
              static_cast<unsigned long long>(st.backlog_max),
              ocfg.admission_slots != 0 ? " (admission-capped)" : "");
  if (!r.latency.empty()) {
    std::printf(
        "latency:  p50=%.1fns p99=%.1fns p999=%.1fns max=%.1fns "
        "(arrival -> delivery)\n",
        r.latency.quantile_ns(0.5), r.latency.quantile_ns(0.99),
        r.latency.quantile_ns(0.999),
        static_cast<double>(r.latency.max()) / 1e3);
  }
  std::printf("ledger:   %s\n", r.ledger().c_str());

  if (args.has_flag("errors")) {
    std::printf("%s", system.aer().to_table().c_str());
    if (auto* inj = system.fault_injector()) {
      std::printf("%s", inj->to_table().c_str());
    }
    if (const auto* rec = system.recovery()) {
      std::printf("%s", rec->to_table().c_str());
    }
  }
  int exit_code = kExitOk;
  if (monitors) {
    monitors->check_quiescent();
    std::printf("%s", monitors->report().c_str());
    std::printf("%s", omonitors->report().c_str());
    if (!monitors->ok() || !omonitors->ok()) exit_code = kExitFailure;
  }
  return exit_code;
}

/// Crash-safe isolated campaign: progress to stderr, the canonical
/// byte-stable summary (what the CI resume leg diffs) alone on stdout.
/// The campaign banner's note of a planted TEST-ONLY bug, if any (the
/// credit leak for classic campaigns, the misroute for tenant ones).
const char* planted_bug_note(const check::ChaosConfig& cfg) {
  if (cfg.seed_credit_leak_bug) return " [credit-leak bug planted]";
  if (cfg.seed_misroute_bug) return " [misroute bug planted]";
  return "";
}

int cmd_chaos_isolated(const Args& args, const check::ChaosConfig& chaos) {
  check::ExecCampaignConfig cfg;
  cfg.chaos = chaos;
  cfg.run = parse_run_config(args);
  cfg.run.artifacts_dir = args.get("artifacts", "");

  const std::size_t jobs = cfg.run.pool.jobs;
  std::fprintf(stderr,
               "chaos: %zu trials, master seed 0x%llx, %zu iters/trial, "
               "%zu worker%s%s%s\n",
               chaos.trials,
               static_cast<unsigned long long>(chaos.master_seed),
               chaos.iterations, jobs, jobs == 1 ? "" : "s",
               cfg.run.resume ? ", resuming" : "", planted_bug_note(chaos));
  const auto result = check::run_campaign_isolated(
      cfg, [](const check::TrialRecord& r) {
        std::fprintf(stderr, "%s%s\n", r.summary_line().c_str(),
                     r.resumed ? "  [resumed]" : "");
      });

  std::fputs(result.summary_text(chaos).c_str(), stdout);
  if (chaos.telemetry) {
    std::fputs(result.digests.to_table().c_str(), stdout);
    const TelemetryOpt telemetry = parse_telemetry(args);
    if (!telemetry.file.empty()) {
      write_text_file(telemetry.file, result.digests.serialize() + "\n");
      std::fprintf(stderr, "wrote campaign latency digests to %s\n",
                   telemetry.file.c_str());
    }
  }
  const std::string csv = args.get("csv", "");
  if (!csv.empty()) {
    result.write_csv(csv);
    std::fprintf(stderr, "wrote %zu trial records to %s\n",
                 result.records.size(), csv.c_str());
  }
  std::fprintf(stderr, "journal: %s\n", result.journal_dir.c_str());
  if (result.minimized) {
    const auto& m = *result.minimized;
    std::fprintf(stderr, "minimized after %zu runs:\n  replay: %s\n", m.runs,
                 m.minimal.repro_command().c_str());
  }
  if (result.quarantined != 0) {
    std::fprintf(stderr, "quarantine artifacts: %s\n",
                 result.artifacts_dir.c_str());
    return kExitInfra;
  }
  return result.violation != 0 ? kExitFailure : kExitOk;
}

int cmd_chaos(const Args& args) {
  check::ChaosConfig cfg;
  cfg.trials = parse_u64("trials", args.get("trials", "20"));
  cfg.master_seed = parse_u64("master-seed", args.get("master-seed", "0xc4a05"));
  cfg.iterations = parse_u64("iters", args.get("iters", "400"));
  if (cfg.iterations == 0) usage("--iters must be > 0");
  cfg.shrink = !args.has_flag("no-shrink");
  cfg.recovery = parse_recovery(args.get("recovery", "none"));
  cfg.monitors_throw = args.has_flag("throw-monitors");
  const TenantOpt topt = parse_tenant_opts(args);
  if (!topt.weights.empty() || !topt.ddio_quota.empty()) {
    usage("--weights/--ddio-quota apply to run, not chaos (trials use "
          "equal shares)");
  }
  cfg.tenants = topt.tenants;
  cfg.attacker = topt.attacker;
  cfg.isolation_weakened = topt.weakened;
  // One --seed-bug flag, two planted bugs: the credit leak for classic
  // campaigns, the completion misroute for tenant campaigns.
  cfg.seed_credit_leak_bug = args.has_flag("seed-bug") && cfg.tenants == 0;
  cfg.seed_misroute_bug = args.has_flag("seed-bug") && cfg.tenants > 0;

  if (args.values.contains("offered-load")) {
    cfg.offered_load =
        parse_f64("offered-load", args.get("offered-load", ""));
    if (cfg.offered_load <= 0) usage("--offered-load must be > 0");
    if (cfg.tenants > 0) {
      usage("--offered-load (overload chaos) and --tenants (tenant chaos) "
            "are mutually exclusive");
    }
    if (args.has_flag("seed-bug")) {
      usage("--seed-bug plants no bug in overload chaos trials; it is not "
            "supported with --offered-load");
    }
  }
  for (const char* dep : {"service-mode", "backpressure"}) {
    if (cfg.offered_load == 0 && args.values.contains(dep)) {
      usage(("--" + std::string(dep) + " requires --offered-load").c_str());
    }
  }
  cfg.service = parse_service_mode_arg(args.get("service-mode", "poll"));
  cfg.backpressure =
      parse_on_off("backpressure", args.get("backpressure", "off"));
  const TelemetryOpt telemetry = parse_telemetry(args);
  cfg.telemetry = telemetry.enabled;

  if (args.values.contains("threads")) {
    if (exec_mode_requested(args)) {
      usage("--threads (in-process) and the exec options (forked workers) "
            "are mutually exclusive");
    }
    cfg.threads = parse_u64("threads", args.get("threads", "0"));
    if (cfg.threads == 0) cfg.threads = exec::ThreadPool(0).threads();
  }

  if (exec_mode_requested(args)) return cmd_chaos_isolated(args, cfg);
  if (args.values.contains("csv") || args.values.contains("artifacts")) {
    usage("--csv/--artifacts require isolated mode (pass an exec option)");
  }

  std::printf("chaos: %zu trials, master seed 0x%llx, %zu iters/trial%s\n",
              cfg.trials, static_cast<unsigned long long>(cfg.master_seed),
              cfg.iterations, planted_bug_note(cfg));
  if (cfg.tenants > 0) {
    std::printf("tenants: %u VFs, attacker vf%u, isolation %s\n", cfg.tenants,
                cfg.attacker, cfg.isolation_weakened ? "weakened" : "armed");
  }
  if (cfg.offered_load > 0) {
    std::printf("overload: %gx capacity per trial, %s service, "
                "backpressure %s\n",
                cfg.offered_load, nic::to_string(cfg.service),
                cfg.backpressure ? "on" : "off");
  }
  const auto result = check::run_campaign(
      cfg, [](const check::TrialSpec& spec, const check::TrialOutcome& out) {
        std::printf("%-4s %s\n", out.failed ? "FAIL" : "ok",
                    spec.describe().c_str());
        if (out.failed) std::printf("     %s\n", out.summary().c_str());
      });

  if (cfg.telemetry) {
    std::fputs(result.digests.to_table().c_str(), stdout);
    if (!telemetry.file.empty()) {
      write_text_file(telemetry.file, result.digests.serialize() + "\n");
      std::fprintf(stderr, "wrote campaign latency digests to %s\n",
                   telemetry.file.c_str());
    }
  }
  if (cfg.recovery.enabled) {
    std::printf("recovery: ladder fired in %zu trial(s), %zu quarantined\n",
                result.trials_recovered, result.trials_quarantined);
  }
  if (cfg.tenants > 0) {
    std::printf("isolation (%s): blast radius %llu perturbed tenant-run(s), "
                "%llu device-wide action(s)\n",
                cfg.isolation_weakened ? "weakened" : "armed",
                static_cast<unsigned long long>(result.perturbed_victims),
                static_cast<unsigned long long>(result.device_wide_actions));
  }
  if (cfg.offered_load > 0) {
    std::printf("overload: offered=%llu delivered=%llu dropped=%llu\n",
                static_cast<unsigned long long>(result.overload_offered),
                static_cast<unsigned long long>(result.overload_delivered),
                static_cast<unsigned long long>(result.overload_dropped));
  }
  if (result.ok()) {
    std::printf("chaos: %zu/%zu trials passed\n", result.trials_run,
                result.trials_run);
    return 0;
  }
  if (result.minimized) {
    const auto& m = *result.minimized;
    std::printf("\nminimized after %zu runs (%zu fault clause%s):\n  %s\n",
                m.runs, m.minimal.plan.rules.size(),
                m.minimal.plan.rules.size() == 1 ? "" : "s",
                m.outcome.summary().c_str());
    std::printf("replay:\n  %s\n", m.minimal.repro_command().c_str());
  } else if (result.first_failure) {
    std::printf("\nreplay (unminimized):\n  %s\n",
                result.first_failure->repro_command().c_str());
  }
  return 1;
}

int cmd_perf(const Args& args) {
  check::PerfConfig cfg;
  cfg.quick = args.has_flag("quick");
  cfg.profile = args.has_flag("profile");
  const std::string json_path = args.get("json", "BENCH_perf.json");

  const auto report = check::run_perf(cfg);
  std::printf("%s", report.summary().c_str());

  const std::string json = report.to_json();
  std::FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot write %s: %s\n", json_path.c_str(),
                 std::strerror(errno));
    return kExitInfra;
  }
  std::fputs(json.c_str(), f);
  std::fclose(f);
  std::fprintf(stderr, "wrote %s\n", json_path.c_str());
  return kExitOk;
}

int cmd_suite(const Args& args) {
  const std::string system_name = args.get("system", "");
  if (system_name.empty()) usage("--system is required");
  sys::profile_by_name(system_name);  // validate early

  const auto suite = core::Suite::standard(system_name);
  std::size_t done = 0;
  const auto progress = [&](const core::ExperimentRecord& r) {
    ++done;
    std::fprintf(stderr, "[%3zu] %-22s %.2fs\n", done,
                 r.experiment.name.c_str(), r.wall_seconds);
  };

  std::vector<core::ExperimentRecord> records;
  int exit_code = kExitOk;
  const bool threaded = args.values.contains("threads");
  if (threaded) {
    // Pool threads enforce none of the forked workers' limits, so a limit
    // given with --threads would be silently ignored.
    for (const char* worker_only :
         {"jobs", "trial-timeout", "max-retries", "rss-budget"}) {
      if (args.values.contains(worker_only)) {
        usage(("--threads (in-process) and --" + std::string(worker_only) +
               " (forked workers) are mutually exclusive").c_str());
      }
    }
  }
  if (exec_mode_requested(args) || threaded) {
    exec::RunConfig cfg = parse_run_config(args);
    if (threaded) {
      cfg.threads = parse_u64("threads", args.get("threads", "0"));
      if (cfg.threads == 0) cfg.threads = exec::ThreadPool(0).threads();
    }
    std::size_t quarantined = 0;
    auto res = suite.run_journaled(
        args.get("filter", ""), cfg, progress, [&](const exec::JobResult& job) {
          ++quarantined;
          std::fprintf(stderr, "quarantined: %s (%s after %u attempt%s)\n",
                       job.name.c_str(), job.outcome.classify().c_str(),
                       job.attempts, job.attempts == 1 ? "" : "s");
        });
    records = std::move(res.records);
    std::fprintf(stderr, "journal: %s\n", res.journal_dir.c_str());
    if (quarantined != 0) {
      std::fprintf(stderr, "%zu experiment%s quarantined; artifacts: %s\n",
                   quarantined, quarantined == 1 ? "" : "s",
                   res.artifacts_dir.c_str());
      exit_code = kExitInfra;
    }
  } else {
    records = suite.run(args.get("filter", ""), progress);
  }

  std::printf("%s", core::summarize(records).c_str());
  const TelemetryOpt telemetry = parse_telemetry(args);
  if (telemetry.enabled) {
    std::printf("%s", core::digest_summary(records).c_str());
    if (!telemetry.file.empty()) {
      // Canonical serialized digest set, keyed by experiment name: the
      // artifact the byte-identity goldens diff across serial, --threads,
      // forked and resumed runs.
      obs::DigestSet set;
      for (const auto& r : records) {
        if (r.latency_digest.empty()) continue;
        obs::Digest d;
        if (obs::Digest::deserialize(r.latency_digest, &d)) {
          set.at(r.experiment.name).merge(d);
        }
      }
      write_text_file(telemetry.file, set.serialize() + "\n");
      std::fprintf(stderr, "wrote %zu latency digests to %s\n", set.size(),
                   telemetry.file.c_str());
    }
  }
  const std::string csv = args.get("csv", "");
  if (!csv.empty()) {
    core::write_csv(records, csv);
    std::fprintf(stderr, "wrote %zu records to %s\n", records.size(),
                 csv.c_str());
  }
  return exit_code;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "list-systems") return cmd_list_systems();
    if (cmd == "run") {
      return cmd_run(parse_args(argc, argv, 2, kRunValueKeys, kRunFlagKeys));
    }
    if (cmd == "suite") {
      return cmd_suite(
          parse_args(argc, argv, 2, kSuiteValueKeys, kSuiteFlagKeys));
    }
    if (cmd == "chaos") {
      return cmd_chaos(
          parse_args(argc, argv, 2, kChaosValueKeys, kChaosFlagKeys));
    }
    if (cmd == "overload") {
      return cmd_overload(
          parse_args(argc, argv, 2, kOverloadValueKeys, kOverloadFlagKeys));
    }
    if (cmd == "perf") {
      return cmd_perf(parse_args(argc, argv, 2, kPerfValueKeys, kPerfFlagKeys));
    }
  } catch (const exec::InfraError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return kExitInfra;
  } catch (const std::filesystem::filesystem_error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return kExitInfra;
  } catch (const std::invalid_argument& e) {
    usage(e.what());  // bad flag values, unknown systems: usage errors
  } catch (const std::out_of_range& e) {
    usage(e.what());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return kExitFailure;
  }
  usage(("unknown command '" + cmd + "'").c_str());
}
