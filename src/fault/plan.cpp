#include "fault/plan.hpp"

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

#include "common/parse.hpp"

namespace pcieb::fault {
namespace {

[[noreturn]] void bad_spec(const std::string& what) {
  throw std::invalid_argument("fault spec: " + what);
}

/// Split at `sep`, rejecting empty items — "drop@prob=0.1," and "drop;;x"
/// are malformed, not silently normalized.
std::vector<std::string> split_strict(const std::string& s, char sep,
                                      const std::string& what) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const auto pos = s.find(sep, start);
    const std::string item =
        pos == std::string::npos ? s.substr(start) : s.substr(start, pos - start);
    if (item.empty()) {
      bad_spec("empty " + what + " in '" + s + "' (stray '" + sep + "'?)");
    }
    out.push_back(item);
    if (pos == std::string::npos) break;
    start = pos + 1;
  }
  return out;
}

FaultKind parse_kind(const std::string& s) {
  if (s == "drop") return FaultKind::LinkDrop;
  if (s == "corrupt") return FaultKind::LinkCorrupt;
  if (s == "ack-loss") return FaultKind::AckLoss;
  if (s == "poison") return FaultKind::Poison;
  if (s == "cpl-ur") return FaultKind::CplUr;
  if (s == "cpl-ca") return FaultKind::CplCa;
  if (s == "iommu") return FaultKind::IommuFault;
  if (s == "downtrain") return FaultKind::Downtrain;
  if (s == "linkdown") return FaultKind::LinkDown;
  bad_spec("unknown fault kind '" + s + "'");
}

std::uint64_t parse_u64(const std::string& s, const std::string& key) {
  const auto v = parse_unsigned(s);
  if (!v) bad_spec("bad integer for " + key + ": '" + s + "'");
  return *v;
}

Picos parse_time(const std::string& s, const std::string& key) {
  std::string why;
  const auto t = pcieb::parse_time(s, &why);
  if (!t) bad_spec(why + " for " + key + ": '" + s + "'");
  return *t;
}

/// `A-B` split at the first '-' past the first character, so a leading
/// '-' stays with A and its parser rejects the sign. Neither bound takes
/// an exponent, so no '-' inside a bound needs skipping.
std::pair<std::string, std::string> split_range(const std::string& s,
                                                const std::string& key) {
  const auto dash = s.find('-', 1);
  if (dash == std::string::npos) bad_spec(key + " wants a LO-HI range, got '" + s + "'");
  return {s.substr(0, dash), s.substr(dash + 1)};
}

FaultRule parse_rule(const std::string& text) {
  FaultRule rule;
  const auto at = text.find('@');
  rule.kind = parse_kind(text.substr(0, at));
  if (at == std::string::npos) {
    if (rule.kind == FaultKind::Downtrain) {
      bad_spec("downtrain needs lanes= and/or gen=");
    }
    return rule;  // unconditional: fires on every TLP at the site
  }

  for (const std::string& item :
       split_strict(text.substr(at + 1), ',', "key=value item")) {
    const auto eq = item.find('=');
    if (eq == std::string::npos) bad_spec("expected key=value, got '" + item + "'");
    const std::string key = item.substr(0, eq);
    const std::string value = item.substr(eq + 1);
    if (key == "nth") {
      rule.nth = parse_u64(value, key);
      if (rule.nth == 0) bad_spec("nth is 1-based");
    } else if (key == "every") {
      rule.every = parse_u64(value, key);
      if (rule.every == 0) bad_spec("every must be >= 1");
    } else if (key == "count") {
      rule.count = parse_u64(value, key);
      if (rule.count == 0) bad_spec("count must be >= 1");
    } else if (key == "prob") {
      char* end = nullptr;
      rule.prob = std::strtod(value.c_str(), &end);
      if (value.empty() || (end && *end) ||
          !(rule.prob >= 0.0 && rule.prob <= 1.0)) {
        bad_spec("prob must be in [0,1], got '" + value + "'");
      }
    } else if (key == "time") {
      const auto [lo, hi] = split_range(value, key);
      rule.from = parse_time(lo, key);
      rule.until = parse_time(hi, key);
      if (rule.until <= rule.from) bad_spec("empty time window");
    } else if (key == "addr") {
      const auto [lo, hi] = split_range(value, key);
      rule.addr_lo = parse_u64(lo, key);
      rule.addr_hi = parse_u64(hi, key);
      if (rule.addr_hi < rule.addr_lo) bad_spec("empty addr range");
    } else if (key == "dir") {
      if (value == "up") rule.dir = LinkDir::Up;
      else if (value == "down") rule.dir = LinkDir::Down;
      else bad_spec("dir must be up or down");
    } else if (key == "vf") {
      const std::uint64_t v = parse_u64(value, key);
      if (v > 255) bad_spec("vf must be in 0..255, got '" + value + "'");
      rule.vf = static_cast<int>(v);
    } else if (key == "lanes") {
      const std::uint64_t v = parse_u64(value, key);
      if (v == 0 || (v & (v - 1)) != 0 || v > 32) {
        bad_spec("lanes must be 1, 2, 4, 8, 16 or 32, got '" + value + "'");
      }
      rule.lanes = static_cast<unsigned>(v);
    } else if (key == "gen") {
      const std::uint64_t v = parse_u64(value, key);
      if (v < 1 || v > 5) bad_spec("gen must be 1..5");
      rule.gen = static_cast<unsigned>(v);
    } else {
      bad_spec("unknown key '" + key + "'");
    }
  }
  if (rule.kind == FaultKind::Downtrain && rule.lanes == 0 && rule.gen == 0) {
    bad_spec("downtrain needs lanes= and/or gen=");
  }
  if (rule.kind != FaultKind::Downtrain && (rule.lanes != 0 || rule.gen != 0)) {
    bad_spec("lanes=/gen= only apply to downtrain rules");
  }
  if (rule.vf >= 0 &&
      (rule.kind == FaultKind::Downtrain || rule.kind == FaultKind::LinkDown)) {
    bad_spec("vf= cannot scope " + std::string(to_string(rule.kind)) +
             " (physical-layer faults hit the whole link)");
  }
  return rule;
}

}  // namespace

const char* to_string(FaultKind k) {
  switch (k) {
    case FaultKind::LinkDrop: return "drop";
    case FaultKind::LinkCorrupt: return "corrupt";
    case FaultKind::AckLoss: return "ack-loss";
    case FaultKind::Poison: return "poison";
    case FaultKind::CplUr: return "cpl-ur";
    case FaultKind::CplCa: return "cpl-ca";
    case FaultKind::IommuFault: return "iommu";
    case FaultKind::Downtrain: return "downtrain";
    case FaultKind::LinkDown: return "linkdown";
  }
  return "?";
}

std::string FaultRule::describe() const {
  std::ostringstream os;
  os << to_string(kind);
  const char* sep = "@";
  auto emit = [&](const std::string& kv) {
    os << sep << kv;
    sep = ",";
  };
  if (nth) emit("nth=" + std::to_string(nth));
  if (every) emit("every=" + std::to_string(every));
  if (count != 1) emit("count=" + std::to_string(count));
  if (prob > 0.0) {
    // Shortest decimal that strtod recovers bit-exactly (%.17g is always
    // sufficient for a double; try fewer digits first for readability).
    char buf[40];
    for (int digits = 9; digits <= 17; digits += 8) {
      std::snprintf(buf, sizeof buf, "%.*g", digits, prob);
      if (std::strtod(buf, nullptr) == prob) break;
    }
    emit(std::string("prob=") + buf);
  }
  if (from != 0 || until != std::numeric_limits<Picos>::max()) {
    // Picosecond integers parse back exactly (parse_time clamps the
    // unbounded-window sentinel back to Picos max).
    emit("time=" + std::to_string(from) + "ps-" + std::to_string(until) +
         "ps");
  }
  if (addr_lo != 0 || addr_hi != std::numeric_limits<std::uint64_t>::max()) {
    std::ostringstream a;
    a << "addr=0x" << std::hex << addr_lo << "-0x" << addr_hi;
    emit(a.str());
  }
  if (dir != LinkDir::Both) emit(std::string("dir=") + (dir == LinkDir::Up ? "up" : "down"));
  if (vf >= 0) emit("vf=" + std::to_string(vf));
  if (lanes) emit("lanes=" + std::to_string(lanes));
  if (gen) emit("gen=" + std::to_string(gen));
  return os.str();
}

std::string FaultPlan::describe() const {
  std::string out;
  for (const auto& r : rules) {
    if (!out.empty()) out += ';';
    out += r.describe();
  }
  return out;
}

FaultPlan parse_plan(const std::string& spec) {
  if (spec.empty()) bad_spec("no rules in ''");
  FaultPlan plan;
  for (const std::string& rule : split_strict(spec, ';', "rule")) {
    plan.rules.push_back(parse_rule(rule));
  }
  return plan;
}

}  // namespace pcieb::fault
