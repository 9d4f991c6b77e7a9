// Deterministic fault injection over a FaultPlan.
//
// One injector is consulted from four sites in the TLP pipeline:
//  * on_link_tx    — per TLP handed to a link direction: drop, poison,
//    surprise link-down, and/or force corrupt (NAK-path) and ack-loss
//    (REPLAY_TIMER-path) replay attempts in the transmitter's DLL state
//    machine;
//  * on_completion — per read handled by a completer (the root complex):
//    force an Unsupported Request / Completer Abort completion status;
//  * on_translate  — per IOMMU translation: fail it;
//  * downtrain_now — polled by the links: the lane/gen override active at
//    a given sim time, if any.
//
// Each site keeps its own TLP ordinal, which is what nth=/every=
// predicates index. The link and completion sites count per port (each
// port's up link, down link and completions number their own), so a
// clause scoped to one device of a multi-device System indexes that
// device's stream; the one IOMMU is one translation site. Probabilistic
// rules draw from a single xoshiro stream seeded from the plan, consulted
// in event order — the discrete event simulator is deterministic, so the
// whole fault sequence is too: same plan + seed -> identical faults,
// identical run.
//
// The injector also tallies every fault it injects, by kind; --errors
// cross-checks these tallies against the AER log so every injected fault
// is attributable to an error category.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "fault/plan.hpp"
#include "pcie/tlp.hpp"

namespace pcieb::fault {

/// What happens to one TLP at link-transmit time.
struct LinkTxDecision {
  bool drop = false;
  bool poison = false;
  bool linkdown = false;          ///< surprise link-down fires on this TLP
  unsigned corrupt_attempts = 0;  ///< LCRC failures -> NAK -> replay
  unsigned ack_losses = 0;        ///< lost ACKs -> REPLAY_TIMER -> replay
};

enum class CplFault : std::uint8_t { None, UnsupportedRequest, CompleterAbort };

class FaultInjector {
 public:
  /// `ports` = how many ports' link TLPs and completions are numbered
  /// apart; sites name theirs by index (0..ports-1).
  explicit FaultInjector(const FaultPlan& plan, unsigned ports = 1);

  LinkTxDecision on_link_tx(const proto::Tlp& tlp, bool upstream, Picos now,
                            unsigned port = 0);
  CplFault on_completion(const proto::Tlp& req, Picos now, unsigned port = 0);
  /// True = translation fails for the page containing `addr`. `func` is
  /// the requesting function (IOMMU domain) for vf= predicates.
  bool on_translate(std::uint64_t addr, bool is_write, Picos now,
                    unsigned func = 0);
  /// The downtrain rule whose window covers `now`, or nullptr. Rules are
  /// checked in plan order; the first match wins.
  const FaultRule* downtrain_now(Picos now) const;
  /// Called by a link when it enters a downtrain window, so injected
  /// counts cover pull-style rules too.
  void tally_downtrain() { tally(FaultKind::Downtrain); }

  std::uint64_t injected(FaultKind k) const {
    return injected_[static_cast<std::size_t>(k)];
  }
  std::uint64_t injected_total() const;
  const FaultPlan& plan() const { return plan_; }

  /// "kind injected" table for --errors.
  std::string to_table() const;

 private:
  /// One site's ordinal at one port, and its gate's nth cursor.
  struct Counter {
    std::uint64_t ordinal = 0;
    std::size_t nth_ptr = 0;
  };

  /// Compiled per-site prefilter. Each injection site (link-tx per
  /// direction, completion, translation) gets the plan-order subset of
  /// rules that can ever apply there, plus a conservative gate answering
  /// "could ANY rule's deterministic predicates pass this event?" in a
  /// handful of branches. The gate is a strict superset test: it may
  /// demand a full walk that matches nothing, but it never skips a walk
  /// any rule could pass — so probability draws happen in exactly the
  /// order the plain loop would produce and fault sequences stay
  /// bit-identical. Rules whose only cheap-ungateable predicates are
  /// addr/vf/prob force always-walk.
  struct SiteGate {
    std::vector<std::uint32_t> rules;   ///< indices into plan_.rules
    std::vector<std::uint64_t> nths;    ///< sorted one-shot ordinals
    std::vector<std::uint64_t> everys;  ///< modulus list
    Picos hull_from = 0;                ///< union of bounded time windows
    Picos hull_until = 0;
    bool has_window = false;
    bool always = false;  ///< some rule needs the walk on every event

    void add(const FaultRule& r, std::uint32_t index);
    void seal();  ///< sort the nth table once the plan is classified

    /// Superset gate; `nth_ptr` is the cursor of the counter `ordinal`
    /// came from, which only grows, so the cursor advances with it.
    bool need_walk(std::uint64_t ordinal, Picos now,
                   std::size_t& nth_ptr) const {
      if (rules.empty()) return false;
      if (always) return true;
      while (nth_ptr < nths.size() && nths[nth_ptr] < ordinal) ++nth_ptr;
      if (nth_ptr < nths.size() && nths[nth_ptr] == ordinal) return true;
      for (const std::uint64_t e : everys) {
        if (ordinal % e == 0) return true;
      }
      return has_window && now >= hull_from && now < hull_until;
    }
  };

  /// Classify plan_.rules into the per-site gates (constructor helper).
  void compile();

  bool matches(const FaultRule& rule, std::uint64_t ordinal,
               std::uint64_t addr, Picos now, unsigned func);
  void tally(FaultKind k) { ++injected_[static_cast<std::size_t>(k)]; }

  FaultPlan plan_;
  Xoshiro256 rng_;
  /// Each port's TLPs seen on its up and down links and its completions.
  struct PortCounters {
    Counter up;
    Counter down;
    Counter cpl;
  };
  std::vector<PortCounters> ports_;
  Counter translations_;
  std::array<std::uint64_t, kFaultKindCount> injected_{};
  SiteGate link_up_;
  SiteGate link_down_;
  SiteGate cpl_;
  SiteGate xlate_;
  std::vector<std::uint32_t> downtrain_rules_;  ///< plan-order indices
  Picos downtrain_from_ = 0;  ///< window hull over downtrain rules
  Picos downtrain_until_ = 0;
};

}  // namespace pcieb::fault
