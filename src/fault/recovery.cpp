#include "fault/recovery.hpp"

#include <limits>
#include <sstream>
#include <stdexcept>

#include "common/parse.hpp"

namespace pcieb::fault {
namespace {

[[noreturn]] void bad_policy(const std::string& what) {
  throw std::invalid_argument("recovery policy: " + what);
}

std::uint64_t parse_u64(
    const std::string& s, const std::string& key,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
  const auto v = parse_unsigned(s, max);
  if (!v) bad_policy("bad integer for " + key + ": '" + s + "'");
  return *v;
}

Picos parse_time(const std::string& s, const std::string& key) {
  std::string why;
  const auto t = pcieb::parse_time(s, &why);
  if (!t) bad_policy(why + " for " + key + ": '" + s + "'");
  return *t;
}

}  // namespace

const char* to_string(RecoveryState s) {
  switch (s) {
    case RecoveryState::Operational: return "operational";
    case RecoveryState::Degraded: return "degraded";
    case RecoveryState::Contained: return "contained";
    case RecoveryState::Resetting: return "resetting";
    case RecoveryState::Quarantined: return "quarantined";
  }
  return "?";
}

RecoveryPolicy recovery_policy_named(const std::string& name) {
  RecoveryPolicy p;
  if (name.empty() || name == "none") return p;  // enabled = false
  p.enabled = true;
  if (name == "default") return p;
  if (name == "aggressive") {
    p.correctable_burst = 3;
    p.correctable_window = from_micros(50);
    p.degraded_probation = from_micros(100);
    p.downtrain_lanes = 2;
    p.downtrain_gen = 1;
    p.nonfatal_threshold = 2;
    p.containment_holdoff = from_micros(20);
    p.reset_duration = from_micros(50);
    p.max_resets = 4;
    return p;
  }
  if (name == "conservative") {
    p.correctable_burst = 32;
    p.correctable_window = from_micros(50);
    p.degraded_probation = from_micros(500);
    p.nonfatal_threshold = 16;
    p.containment_holdoff = from_micros(200);
    p.reset_duration = from_micros(200);
    p.max_resets = 1;
    return p;
  }
  bad_policy("unknown policy '" + name +
             "' (want none, default, aggressive or conservative)");
}

RecoveryPolicy parse_recovery_policy(const std::string& spec) {
  const auto comma = spec.find(',');
  RecoveryPolicy p = recovery_policy_named(spec.substr(0, comma));
  if (comma == std::string::npos) return p;
  if (!p.enabled) bad_policy("'none' takes no overrides");

  std::size_t start = comma + 1;
  while (start <= spec.size()) {
    const auto pos = spec.find(',', start);
    const std::string item = pos == std::string::npos
                                 ? spec.substr(start)
                                 : spec.substr(start, pos - start);
    if (item.empty()) bad_policy("empty key=value item in '" + spec + "'");
    const auto eq = item.find('=');
    if (eq == std::string::npos) {
      bad_policy("expected key=value, got '" + item + "'");
    }
    const std::string key = item.substr(0, eq);
    const std::string value = item.substr(eq + 1);
    if (key == "correctable-burst") {
      p.correctable_burst = parse_u64(value, key);
      if (p.correctable_burst == 0) bad_policy("correctable-burst must be >= 1");
    } else if (key == "correctable-window") {
      p.correctable_window = parse_time(value, key);
      if (p.correctable_window <= 0) bad_policy("correctable-window must be > 0");
    } else if (key == "probation") {
      p.degraded_probation = parse_time(value, key);
      if (p.degraded_probation <= 0) bad_policy("probation must be > 0");
    } else if (key == "lanes") {
      const std::uint64_t v = parse_u64(value, key);
      if (v == 0 || (v & (v - 1)) != 0 || v > 32) {
        bad_policy("lanes must be 1, 2, 4, 8, 16 or 32, got '" + value + "'");
      }
      p.downtrain_lanes = static_cast<unsigned>(v);
    } else if (key == "gen") {
      const std::uint64_t v = parse_u64(value, key);
      if (v < 1 || v > 5) bad_policy("gen must be 1..5");
      p.downtrain_gen = static_cast<unsigned>(v);
    } else if (key == "nonfatal-threshold") {
      p.nonfatal_threshold = parse_u64(value, key);
      if (p.nonfatal_threshold == 0) bad_policy("nonfatal-threshold must be >= 1");
    } else if (key == "flr-duration") {
      p.flr_duration = parse_time(value, key);
    } else if (key == "holdoff") {
      p.containment_holdoff = parse_time(value, key);
    } else if (key == "reset-duration") {
      p.reset_duration = parse_time(value, key);
    } else if (key == "max-resets") {
      p.max_resets = static_cast<unsigned>(
          parse_u64(value, key, std::numeric_limits<unsigned>::max()));
    } else {
      bad_policy("unknown key '" + key + "'");
    }
    if (pos == std::string::npos) break;
    start = pos + 1;
  }
  return p;
}

std::string RecoveryPolicy::describe() const {
  if (!enabled) return "none";
  for (const char* name : {"default", "aggressive", "conservative"}) {
    if (*this == recovery_policy_named(name)) return name;
  }
  // Canonical form: the default base plus every differing field, in
  // declaration order. Picosecond integers parse back exactly.
  const RecoveryPolicy base = recovery_policy_named("default");
  std::ostringstream os;
  os << "default";
  if (correctable_burst != base.correctable_burst) {
    os << ",correctable-burst=" << correctable_burst;
  }
  if (correctable_window != base.correctable_window) {
    os << ",correctable-window=" << correctable_window << "ps";
  }
  if (degraded_probation != base.degraded_probation) {
    os << ",probation=" << degraded_probation << "ps";
  }
  if (downtrain_lanes != base.downtrain_lanes) {
    os << ",lanes=" << downtrain_lanes;
  }
  if (downtrain_gen != base.downtrain_gen) os << ",gen=" << downtrain_gen;
  if (nonfatal_threshold != base.nonfatal_threshold) {
    os << ",nonfatal-threshold=" << nonfatal_threshold;
  }
  if (flr_duration != base.flr_duration) {
    os << ",flr-duration=" << flr_duration << "ps";
  }
  if (containment_holdoff != base.containment_holdoff) {
    os << ",holdoff=" << containment_holdoff << "ps";
  }
  if (reset_duration != base.reset_duration) {
    os << ",reset-duration=" << reset_duration << "ps";
  }
  if (max_resets != base.max_resets) os << ",max-resets=" << max_resets;
  return os.str();
}

RecoveryManager::RecoveryManager(const RecoveryPolicy& policy, Actions actions)
    : policy_(policy), actions_(std::move(actions)) {
  if (policy_.enabled && (!actions_.schedule || !actions_.now)) {
    throw std::invalid_argument(
        "RecoveryManager: schedule and now hooks are required");
  }
}

void RecoveryManager::transition(RecoveryState to, const char* reason) {
  const RecoveryState from = state_;
  state_ = to;
  RecoveryEvent ev;
  ev.ts = actions_.now();
  ev.from = from;
  ev.to = to;
  ev.reason = reason;
  if (actions_.delivered_bytes) ev.bytes = actions_.delivered_bytes();
  events_.push_back(ev);
  if (trace_) {
    obs::TraceEvent te;
    te.ts = ev.ts;
    te.kind = obs::EventKind::RecoveryTransition;
    te.comp = obs::Component::Fault;
    te.flags = static_cast<std::uint8_t>((static_cast<unsigned>(from) << 4) |
                                         static_cast<unsigned>(to));
    trace_->record(te);
  }
  if (actions_.on_transition) actions_.on_transition();
}

void RecoveryManager::on_error(const ErrorRecord& rec) {
  if (!policy_.enabled) return;
  switch (severity_of(rec.type)) {
    case ErrorSeverity::Correctable: on_correctable(rec); break;
    case ErrorSeverity::NonFatal: on_nonfatal(rec); break;
    case ErrorSeverity::Fatal: on_fatal(rec); break;
  }
}

void RecoveryManager::on_correctable(const ErrorRecord& rec) {
  if (state_ != RecoveryState::Operational &&
      state_ != RecoveryState::Degraded) {
    return;  // containment/reset in progress; the ladder owns the port
  }
  last_correctable_ = rec.ts;
  correctable_window_.push_back(rec.ts);
  while (!correctable_window_.empty() &&
         correctable_window_.front() + policy_.correctable_window <= rec.ts) {
    correctable_window_.pop_front();
  }
  if (state_ == RecoveryState::Operational &&
      correctable_window_.size() >= policy_.correctable_burst) {
    // Adaptive downtrain: trade rate for signal integrity, then watch
    // the probation clock. The downtrain is deferred — the error that
    // tripped it may have been recorded mid-send.
    ++downtrains_;
    link_degraded_ = true;
    transition(RecoveryState::Degraded, "correctable-burst");
    actions_.schedule(0, [this] {
      if (link_degraded_ && actions_.downtrain) {
        actions_.downtrain(policy_.downtrain_lanes, policy_.downtrain_gen);
      }
    });
    schedule_probation(policy_.degraded_probation);
  }
}

void RecoveryManager::schedule_probation(Picos delay) {
  if (probation_pending_) return;
  probation_pending_ = true;
  actions_.schedule(delay, [this] { probation_check(); });
}

void RecoveryManager::probation_check() {
  probation_pending_ = false;
  if (state_ != RecoveryState::Degraded) return;  // superseded by escalation
  const Picos now = actions_.now();
  const Picos clean_until = last_correctable_ + policy_.degraded_probation;
  if (now < clean_until) {
    // Correctables kept arriving — extend probation to the new horizon.
    // Each reschedule moves strictly forward, so the chain terminates as
    // soon as the link stays clean for one full probation period.
    schedule_probation(clean_until - now);
    return;
  }
  ++restores_;
  link_degraded_ = false;
  correctable_window_.clear();
  if (actions_.restore_link) actions_.restore_link();
  transition(RecoveryState::Operational, "probation-clean");
}

void RecoveryManager::on_nonfatal(const ErrorRecord& rec) {
  (void)rec;
  if (state_ != RecoveryState::Operational &&
      state_ != RecoveryState::Degraded) {
    return;
  }
  if (++nonfatal_count_ < policy_.nonfatal_threshold) return;
  nonfatal_count_ = 0;
  ++flrs_;
  hot_resetting_ = false;
  transition(RecoveryState::Resetting, "flr");
  actions_.schedule(0, [this] {
    if (state_ == RecoveryState::Resetting && !hot_resetting_ &&
        actions_.flr) {
      actions_.flr();
    }
  });
  actions_.schedule(policy_.flr_duration, [this] { finish_flr(); });
}

void RecoveryManager::finish_flr() {
  // A fatal error (e.g. a surprise link-down) during the FLR window
  // escalates to containment and owns the state from then on.
  if (state_ != RecoveryState::Resetting || hot_resetting_) return;
  if (link_degraded_) {
    transition(RecoveryState::Degraded, "flr-done");
    schedule_probation(policy_.degraded_probation);
  } else {
    transition(RecoveryState::Operational, "flr-done");
  }
}

void RecoveryManager::on_fatal(const ErrorRecord& rec) {
  if (state_ == RecoveryState::Contained ||
      state_ == RecoveryState::Quarantined) {
    return;  // already contained; late fatals are expected fallout
  }
  if (state_ == RecoveryState::Resetting) {
    // The FLR itself aborts in-flight work, which records fatal-class
    // AER (TransactionFailed) — that self-inflicted fallout must not
    // escalate. A genuine surprise link-down during the FLR window is a
    // different animal: only containment + hot reset can recover it.
    if (hot_resetting_ || rec.type != ErrorType::SurpriseLinkDown) return;
  }
  ++containments_;
  transition(RecoveryState::Contained, "fatal");
  actions_.schedule(0, [this] {
    if (state_ == RecoveryState::Contained && actions_.contain) {
      actions_.contain();
    }
  });
  actions_.schedule(policy_.containment_holdoff, [this] { holdoff_expired(); });
}

void RecoveryManager::holdoff_expired() {
  if (state_ != RecoveryState::Contained) return;
  if (resets_done_ >= policy_.max_resets) {
    ++quarantines_;
    transition(RecoveryState::Quarantined, "reset-budget-exhausted");
    return;  // port stays frozen forever
  }
  ++resets_done_;
  ++hot_resets_;
  hot_resetting_ = true;
  transition(RecoveryState::Resetting, "hot-reset");
  actions_.schedule(policy_.reset_duration, [this] { finish_hot_reset(); });
}

void RecoveryManager::finish_hot_reset() {
  if (state_ != RecoveryState::Resetting || !hot_resetting_) return;
  hot_resetting_ = false;
  // Re-enumeration restores full link width, so any prior downtrain and
  // its escalation history are wiped along with the error counters.
  link_degraded_ = false;
  nonfatal_count_ = 0;
  correctable_window_.clear();
  if (actions_.hot_reset) actions_.hot_reset();
  transition(RecoveryState::Operational, "re-enumerated");
}

std::string RecoveryManager::digest() const {
  std::string out;
  for (const RecoveryEvent& e : events_) {
    if (!out.empty()) out += ';';
    out += std::to_string(e.ts);
    out += ':';
    out += to_string(e.from);
    out += '>';
    out += to_string(e.to);
    out += ':';
    out += e.reason;
  }
  return out;
}

std::string RecoveryManager::to_table() const {
  std::ostringstream os;
  os << "recovery ladder (policy " << policy_.describe() << ")\n"
     << "  state " << to_string(state_) << ", transitions " << events_.size()
     << ", downtrains " << downtrains_ << ", restores " << restores_
     << ", flrs " << flrs_ << ", containments " << containments_
     << ", hot resets " << hot_resets_ << ", quarantines " << quarantines_
     << "\n";
  for (const RecoveryEvent& e : events_) {
    os << "  " << e.ts << "  " << to_string(e.from) << " -> " << to_string(e.to)
       << "  (" << e.reason << ")\n";
  }
  return os.str();
}

}  // namespace pcieb::fault
