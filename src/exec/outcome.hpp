// Outcome classification for process-isolated job execution.
//
// Every worker process ends in exactly one of five ways, and everything
// downstream — retry policy, quarantine, journal records, exit codes —
// keys off that classification:
//
//  * Ok          — the worker exited 0 and produced a result payload.
//  * NonzeroExit — the worker exited with a nonzero status (an uncaught
//                  job-level exception exits 1 with what() on stderr).
//  * Signal      — the worker was terminated by a signal it did not ask
//                  for (SIGSEGV, SIGABRT, ...): a crash.
//  * Timeout     — the supervisor killed the worker because it ran past
//                  its wall-clock deadline.
//  * Oom         — the worker exceeded its RSS budget (killed by the
//                  supervisor) or reported allocation failure itself via
//                  the reserved exit code.
//
// See docs/EXEC.md.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace pcieb::exec {

/// Raised for supervisor-side failures (fork, journal I/O, scratch dirs).
/// The CLI maps it to exit code 3 (infrastructure error), distinct from a
/// benchmark/violation failure (1) and a usage error (2).
class InfraError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

enum class OutcomeKind : std::uint8_t { Ok, NonzeroExit, Signal, Timeout, Oom };

/// Reserved worker exit code meaning "allocation failure" (set_new_handler
/// and caught std::bad_alloc both funnel here). Chosen away from the
/// 0/1/2 codes jobs use and from shells' 126/127/128+n conventions.
inline constexpr int kOomExitCode = 86;

struct Outcome {
  OutcomeKind kind = OutcomeKind::Ok;
  int exit_code = 0;     ///< valid for Ok / NonzeroExit / Oom-by-exit
  int term_signal = 0;   ///< valid for Signal (and Timeout/Oom: SIGKILL)
  double wall_seconds = 0.0;
  std::uint64_t peak_rss_bytes = 0;  ///< highest RSS the supervisor sampled
  std::string payload;               ///< worker result (Ok only)
  std::string stderr_tail;           ///< last bytes of the worker's stderr

  bool ok() const { return kind == OutcomeKind::Ok; }

  /// Deterministic one-token classification for journals and artifacts:
  /// "ok", "exit(3)", "signal(SIGSEGV)", "timeout", "oom". These are
  /// journal/CSV vocabulary — do not change them without bumping the
  /// record format version.
  std::string classify() const;
};

/// "SIGSEGV" for 11, "SIG<n>" for signals without a well-known name.
std::string signal_name(int sig);

}  // namespace pcieb::exec
