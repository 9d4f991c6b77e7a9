#include "fault/aer.hpp"

#include <algorithm>
#include <sstream>

#include "common/table.hpp"

namespace pcieb::fault {

const char* to_string(ErrorSeverity s) {
  switch (s) {
    case ErrorSeverity::Correctable: return "correctable";
    case ErrorSeverity::NonFatal: return "non-fatal";
    case ErrorSeverity::Fatal: return "fatal";
  }
  return "?";
}

const char* to_string(ErrorType t) {
  switch (t) {
    case ErrorType::BadTlp: return "bad_tlp";
    case ErrorType::ReplayTimeout: return "replay_timeout";
    case ErrorType::ReplayNumRollover: return "replay_num_rollover";
    case ErrorType::LinkDowntrain: return "link_downtrain";
    case ErrorType::PoisonedTlp: return "poisoned_tlp";
    case ErrorType::CompletionTimeout: return "completion_timeout";
    case ErrorType::UnexpectedCompletion: return "unexpected_completion";
    case ErrorType::UnsupportedRequest: return "unsupported_request";
    case ErrorType::CompleterAbort: return "completer_abort";
    case ErrorType::IommuFault: return "iommu_fault";
    case ErrorType::MalformedTlp: return "malformed_tlp";
    case ErrorType::TransactionFailed: return "transaction_failed";
    case ErrorType::SurpriseLinkDown: return "surprise_linkdown";
  }
  return "?";
}

ErrorSeverity severity_of(ErrorType t) {
  switch (t) {
    case ErrorType::BadTlp:
    case ErrorType::ReplayTimeout:
    case ErrorType::ReplayNumRollover:
    case ErrorType::LinkDowntrain:
      return ErrorSeverity::Correctable;
    case ErrorType::PoisonedTlp:
    case ErrorType::CompletionTimeout:
    case ErrorType::UnexpectedCompletion:
    case ErrorType::UnsupportedRequest:
    case ErrorType::CompleterAbort:
    case ErrorType::IommuFault:
      return ErrorSeverity::NonFatal;
    case ErrorType::MalformedTlp:
    case ErrorType::TransactionFailed:
    case ErrorType::SurpriseLinkDown:
      return ErrorSeverity::Fatal;
  }
  return ErrorSeverity::Fatal;
}

AerLog::AerLog(std::size_t record_capacity) : capacity_(record_capacity) {
  ring_.reserve(std::min<std::size_t>(capacity_, 64));
}

void AerLog::record(ErrorType type, Picos ts, std::uint64_t addr,
                    std::uint32_t tag, std::uint32_t info) {
  ++counts_[static_cast<std::size_t>(type)];
  ++severity_totals_[static_cast<std::size_t>(severity_of(type))];
  ++recorded_;
  if (capacity_ > 0) {
    const ErrorRecord rec{ts, type, addr, tag, info};
    if (ring_.size() < capacity_) {
      ring_.push_back(rec);
    } else {
      ring_[head_] = rec;
      head_ = (head_ + 1) % capacity_;
    }
  }
  if (trace_) {
    trace_->record({ts, 0, addr, tag, info, obs::EventKind::AerError,
                    obs::Component::Fault, static_cast<std::uint8_t>(type)});
  }
  if (listener_) listener_(ErrorRecord{ts, type, addr, tag, info});
}

std::uint64_t AerLog::total() const {
  std::uint64_t sum = 0;
  for (const auto v : severity_totals_) sum += v;
  return sum;
}

std::vector<ErrorRecord> AerLog::records() const {
  std::vector<ErrorRecord> out;
  out.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(head_ + i) % ring_.size()]);
  }
  return out;
}

std::string AerLog::to_table() const {
  TextTable table({"severity", "error", "count"});
  for (std::size_t t = 0; t < kErrorTypeCount; ++t) {
    if (counts_[t] == 0) continue;
    const auto type = static_cast<ErrorType>(t);
    table.add_row({to_string(severity_of(type)), to_string(type),
                   std::to_string(counts_[t])});
  }
  std::ostringstream os;
  os << table.to_string();
  os << "total: " << total(ErrorSeverity::Correctable) << " correctable, "
     << total(ErrorSeverity::NonFatal) << " non-fatal, "
     << total(ErrorSeverity::Fatal) << " fatal\n";
  return os.str();
}

}  // namespace pcieb::fault
