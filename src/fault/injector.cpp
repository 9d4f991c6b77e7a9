#include "fault/injector.hpp"

#include <algorithm>
#include <limits>
#include <sstream>

#include "common/table.hpp"

namespace pcieb::fault {

FaultInjector::FaultInjector(const FaultPlan& plan, unsigned ports)
    : plan_(plan), rng_(plan.seed), ports_(ports) {
  compile();
}

void FaultInjector::SiteGate::add(const FaultRule& r, std::uint32_t index) {
  rules.push_back(index);
  // Gate on the most selective cheap predicate. Each choice is sound on
  // its own: a rule can only match when its nth equals the ordinal / its
  // every divides it / `now` falls inside its window — so gating on any
  // one of them never suppresses a possible match. Rules constrained
  // only by addr / vf / probability have no cheap gate and pin the site
  // to always-walk.
  constexpr Picos kNoUntil = std::numeric_limits<Picos>::max();
  if (r.nth != 0) {
    nths.push_back(r.nth);
  } else if (r.every != 0) {
    everys.push_back(r.every);
  } else if (r.from > 0 || r.until != kNoUntil) {
    hull_from = has_window ? std::min(hull_from, r.from) : r.from;
    hull_until = has_window ? std::max(hull_until, r.until) : r.until;
    has_window = true;
  } else {
    always = true;
  }
}

void FaultInjector::SiteGate::seal() { std::sort(nths.begin(), nths.end()); }

void FaultInjector::compile() {
  for (std::uint32_t i = 0; i < plan_.rules.size(); ++i) {
    const FaultRule& r = plan_.rules[i];
    switch (r.kind) {
      case FaultKind::LinkDrop:
      case FaultKind::LinkCorrupt:
      case FaultKind::AckLoss:
      case FaultKind::Poison:
      case FaultKind::LinkDown:
        if (r.dir == LinkDir::Both || r.dir == LinkDir::Up) link_up_.add(r, i);
        if (r.dir == LinkDir::Both || r.dir == LinkDir::Down) {
          link_down_.add(r, i);
        }
        break;
      case FaultKind::CplUr:
      case FaultKind::CplCa:
        cpl_.add(r, i);
        break;
      case FaultKind::IommuFault:
        xlate_.add(r, i);
        break;
      case FaultKind::Downtrain:
        if (downtrain_rules_.empty()) {
          downtrain_from_ = r.from;
          downtrain_until_ = r.until;
        } else {
          downtrain_from_ = std::min(downtrain_from_, r.from);
          downtrain_until_ = std::max(downtrain_until_, r.until);
        }
        downtrain_rules_.push_back(i);
        break;
    }
  }
  link_up_.seal();
  link_down_.seal();
  cpl_.seal();
  xlate_.seal();
}

bool FaultInjector::matches(const FaultRule& rule, std::uint64_t ordinal,
                            std::uint64_t addr, Picos now, unsigned func) {
  if (now < rule.from || now >= rule.until) return false;
  if (addr < rule.addr_lo || addr > rule.addr_hi) return false;
  if (rule.nth != 0 && ordinal != rule.nth) return false;
  if (rule.every != 0 && ordinal % rule.every != 0) return false;
  // vf= is checked before the probability draw: another function's TLPs
  // must never consume randomness, or arming a per-VF fault plan would
  // perturb the other tenants' fault sequences (isolation identity).
  if (rule.vf >= 0 && static_cast<unsigned>(rule.vf) != func) return false;
  // The probability draw comes last so deterministic predicate misses
  // never consume randomness — keeps fault sequences stable when rules
  // are added or reordered.
  if (rule.prob > 0.0 && rng_.uniform() >= rule.prob) return false;
  return true;
}

LinkTxDecision FaultInjector::on_link_tx(const proto::Tlp& tlp, bool upstream,
                                         Picos now, unsigned port) {
  PortCounters& counters = ports_.at(port);
  Counter& c = upstream ? counters.up : counters.down;
  const std::uint64_t ordinal = ++c.ordinal;
  LinkTxDecision d;
  const SiteGate& gate = upstream ? link_up_ : link_down_;
  if (!gate.need_walk(ordinal, now, c.nth_ptr)) return d;
  // Full walk over this direction's plan-order subset — identical rule
  // and probability-draw order to a walk over the whole plan, because
  // direction-mismatched rules never drew randomness there either.
  for (const std::uint32_t index : gate.rules) {
    const FaultRule& rule = plan_.rules[index];
    switch (rule.kind) {
      case FaultKind::LinkDrop:
        if (!d.drop && matches(rule, ordinal, tlp.addr, now, tlp.func)) {
          d.drop = true;
          tally(FaultKind::LinkDrop);
        }
        break;
      case FaultKind::LinkCorrupt:
        if (matches(rule, ordinal, tlp.addr, now, tlp.func)) {
          d.corrupt_attempts += static_cast<unsigned>(rule.count);
          tally(FaultKind::LinkCorrupt);
        }
        break;
      case FaultKind::AckLoss:
        if (matches(rule, ordinal, tlp.addr, now, tlp.func)) {
          d.ack_losses += static_cast<unsigned>(rule.count);
          tally(FaultKind::AckLoss);
        }
        break;
      case FaultKind::Poison:
        // Only payload-carrying TLPs can be poisoned (EP covers data).
        if (!d.poison && tlp.payload > 0 &&
            matches(rule, ordinal, tlp.addr, now, tlp.func)) {
          d.poison = true;
          tally(FaultKind::Poison);
        }
        break;
      case FaultKind::LinkDown:
        if (!d.linkdown && matches(rule, ordinal, tlp.addr, now, tlp.func)) {
          d.linkdown = true;
          tally(FaultKind::LinkDown);
        }
        break;
      default:
        break;  // not a link-site rule
    }
  }
  return d;
}

CplFault FaultInjector::on_completion(const proto::Tlp& req, Picos now,
                                      unsigned port) {
  Counter& c = ports_.at(port).cpl;
  const std::uint64_t ordinal = ++c.ordinal;
  if (!cpl_.need_walk(ordinal, now, c.nth_ptr)) return CplFault::None;
  for (const std::uint32_t index : cpl_.rules) {
    const FaultRule& rule = plan_.rules[index];
    if (matches(rule, ordinal, req.addr, now, req.func)) {
      tally(rule.kind);
      return rule.kind == FaultKind::CplUr ? CplFault::UnsupportedRequest
                                           : CplFault::CompleterAbort;
    }
  }
  return CplFault::None;
}

bool FaultInjector::on_translate(std::uint64_t addr, bool is_write,
                                 Picos now, unsigned func) {
  (void)is_write;
  const std::uint64_t ordinal = ++translations_.ordinal;
  if (!xlate_.need_walk(ordinal, now, translations_.nth_ptr)) return false;
  for (const std::uint32_t index : xlate_.rules) {
    const FaultRule& rule = plan_.rules[index];
    if (matches(rule, ordinal, addr, now, func)) {
      tally(FaultKind::IommuFault);
      return true;
    }
  }
  return false;
}

const FaultRule* FaultInjector::downtrain_now(Picos now) const {
  // Window-hull fast path: links poll this on every TLP they serialize,
  // and outside the union of downtrain windows nothing can match.
  if (downtrain_rules_.empty() ||
      now < downtrain_from_ || now >= downtrain_until_) {
    return nullptr;
  }
  for (const std::uint32_t index : downtrain_rules_) {
    const FaultRule& rule = plan_.rules[index];
    if (now >= rule.from && now < rule.until) return &rule;
  }
  return nullptr;
}

std::uint64_t FaultInjector::injected_total() const {
  std::uint64_t sum = 0;
  for (const auto v : injected_) sum += v;
  return sum;
}

std::string FaultInjector::to_table() const {
  TextTable table({"fault", "injected"});
  for (std::size_t k = 0; k < kFaultKindCount; ++k) {
    if (injected_[k] == 0) continue;
    table.add_row({to_string(static_cast<FaultKind>(k)),
                   std::to_string(injected_[k])});
  }
  std::ostringstream os;
  os << table.to_string();
  os << "total injected: " << injected_total() << "\n";
  return os.str();
}

}  // namespace pcieb::fault
