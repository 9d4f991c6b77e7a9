// AER-style error reporting for the simulator.
//
// Mirrors PCIe Advanced Error Reporting's taxonomy: every error a
// component detects is recorded with a fixed severity —
//  * correctable — recovered by hardware with no data loss (LCRC-failed
//    TLPs that were replayed, REPLAY_TIMER expiries, REPLAY_NUM-triggered
//    retrains, link downtrains);
//  * non-fatal   — a transaction was damaged but the fabric is fine
//    (poisoned TLPs, completion timeouts, unexpected completions,
//    UR/CA completion statuses, IOMMU translation faults);
//  * fatal       — the transaction is unrecoverable (malformed TLPs,
//    retries exhausted).
// The log keeps per-type counts (always) plus a bounded record ring for
// diagnostics, and can mirror each record into an obs::TraceSink so
// errors land on the Perfetto timeline next to the traffic that caused
// them. Recording costs nothing until an error actually happens, so a
// clean run pays only for the pointer the components hold.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "obs/trace.hpp"

namespace pcieb::fault {

enum class ErrorSeverity : std::uint8_t { Correctable, NonFatal, Fatal };
constexpr std::size_t kErrorSeverityCount = 3;

enum class ErrorType : std::uint8_t {
  // Correctable.
  BadTlp,             ///< LCRC failure, NAKed and replayed
  ReplayTimeout,      ///< REPLAY_TIMER expired (lost ACK), replayed
  ReplayNumRollover,  ///< REPLAY_NUM hit: link retrained
  LinkDowntrain,      ///< link renegotiated to fewer lanes / lower gen
  // Non-fatal.
  PoisonedTlp,          ///< TLP arrived with the EP bit set
  CompletionTimeout,    ///< read completion never arrived
  UnexpectedCompletion, ///< completion with an unknown or stale tag
  UnsupportedRequest,   ///< completion status UR received
  CompleterAbort,       ///< completion status CA received
  IommuFault,           ///< DMA remapping fault (unmapped / blocked page)
  // Fatal.
  MalformedTlp,         ///< violates formation rules (length, type)
  TransactionFailed,    ///< retries exhausted; data lost for good
  SurpriseLinkDown,     ///< link dropped to detect without warning
};
constexpr std::size_t kErrorTypeCount = 13;

const char* to_string(ErrorSeverity s);
const char* to_string(ErrorType t);
ErrorSeverity severity_of(ErrorType t);

struct ErrorRecord {
  Picos ts = 0;
  ErrorType type = ErrorType::BadTlp;
  std::uint64_t addr = 0;
  std::uint32_t tag = 0;
  std::uint32_t info = 0;  ///< type-specific detail (length, retry #, ...)
};

class AerLog {
 public:
  /// `record_capacity` bounds the diagnostic ring; counts are unbounded.
  explicit AerLog(std::size_t record_capacity = 1024);

  void record(ErrorType type, Picos ts, std::uint64_t addr = 0,
              std::uint32_t tag = 0, std::uint32_t info = 0);

  std::uint64_t count(ErrorType t) const {
    return counts_[static_cast<std::size_t>(t)];
  }
  std::uint64_t total(ErrorSeverity s) const {
    return severity_totals_[static_cast<std::size_t>(s)];
  }
  std::uint64_t total() const;

  /// Oldest-first retained records (the ring drops the oldest on overflow).
  std::vector<ErrorRecord> records() const;
  std::uint64_t recorded() const { return recorded_; }

  /// Aligned "severity type count" table plus totals, for --errors.
  std::string to_table() const;

  /// Mirror each record into a trace sink (nullptr detaches).
  void set_trace(obs::TraceSink* sink) { trace_ = sink; }

  /// Invoke `fn` on every record, after counts/ring/trace are updated.
  /// Used by the recovery ladder to observe the error stream; empty
  /// detaches. A clean run with no listener pays nothing extra.
  void set_listener(std::function<void(const ErrorRecord&)> fn) {
    listener_ = std::move(fn);
  }

 private:
  std::size_t capacity_;
  std::vector<ErrorRecord> ring_;
  std::size_t head_ = 0;
  std::uint64_t recorded_ = 0;
  std::array<std::uint64_t, kErrorTypeCount> counts_{};
  std::array<std::uint64_t, kErrorSeverityCount> severity_totals_{};
  obs::TraceSink* trace_ = nullptr;
  std::function<void(const ErrorRecord&)> listener_;
};

}  // namespace pcieb::fault
