// Deterministic fault plans for the simulator.
//
// A FaultPlan is an ordered list of FaultRules, each binding one fault
// kind (drop / corrupt / ack-loss / poison / completer error / IOMMU
// fault / link downtrain) to a predicate over the TLP stream: nth-TLP,
// every-kth, time-window, address-range, and/or per-TLP probability. All
// predicates of a rule must match for it to fire. Plans are fully
// deterministic: probabilistic rules draw from one seeded xoshiro stream
// in event order, so the same plan + seed reproduces the same fault
// sequence bit-for-bit.
//
// Plans parse from a compact spec string (pciebench --faults=SPEC):
//
//   spec  := rule (';' rule)*
//   rule  := kind ('@' key '=' value (',' key '=' value)*)?
//   kind  := drop | corrupt | ack-loss | poison | cpl-ur | cpl-ca
//          | iommu | downtrain | linkdown
//   keys  := nth=N       fire on the N-th TLP seen at the site (1-based)
//            every=K     fire on every K-th TLP
//            count=N     consecutive attempts affected (corrupt bursts)
//            prob=P      per-TLP probability in [0,1]
//            time=A-B    only within sim-time window (e.g. 10us-2ms)
//            addr=L-H    only for targets in [L,H] (0x hex accepted)
//            dir=up|down restrict to one link direction
//            vf=K        restrict to TLPs of SR-IOV function K (multi-
//                        tenant systems; rejected on downtrain/linkdown,
//                        which are physical-layer, link-wide events)
//            lanes=N     downtrain: new lane count
//            gen=G       downtrain: new generation (1..5)
//
// Examples:
//   corrupt@prob=0.001                    marginal riser: random LCRC fails
//   drop@nth=100,dir=down                 lose the 100th downstream TLP
//   cpl-ur@every=5000                     periodic completer UR
//   iommu@addr=0x100000-0x1fffff          unmapped window
//   downtrain@time=50us-150us,lanes=4,gen=1  brown-out and recover
//   linkdown@nth=500,dir=up               surprise link-down (fatal; only
//                                         a recovery policy revives it)
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/units.hpp"

namespace pcieb::fault {

enum class FaultKind : std::uint8_t {
  LinkDrop,     ///< TLP vanishes on the wire (escapes DLL recovery)
  LinkCorrupt,  ///< LCRC failure: receiver NAKs, transmitter replays
  AckLoss,      ///< ACK DLLP lost: REPLAY_TIMER expiry forces a replay
  Poison,       ///< payload delivered with the EP (poisoned) bit set
  CplUr,        ///< completer answers a read with Unsupported Request
  CplCa,        ///< completer answers a read with Completer Abort
  IommuFault,   ///< IOMMU translation fails (unmapped / blocked page)
  Downtrain,    ///< link renegotiates to fewer lanes / lower gen
  LinkDown,     ///< surprise link-down: the port drops to detect and
                ///< stays down until a recovery policy hot-resets it
};
constexpr std::size_t kFaultKindCount = 9;

const char* to_string(FaultKind k);

enum class LinkDir : std::uint8_t { Up, Down, Both };

struct FaultRule {
  FaultKind kind = FaultKind::LinkCorrupt;
  LinkDir dir = LinkDir::Both;

  // Predicates: every configured one must hold. `nth`/`every` index the
  // TLP stream observed at the rule's site (per port and link direction,
  // per port's completions, or per translation — see FaultInjector).
  std::uint64_t nth = 0;    ///< 1-based one-shot index (0 = off)
  std::uint64_t every = 0;  ///< fire each k-th TLP (0 = off)
  double prob = 0.0;        ///< per-TLP probability (0 = off)
  Picos from = 0;           ///< time window start (inclusive)
  Picos until = std::numeric_limits<Picos>::max();  ///< window end (exclusive)
  std::uint64_t addr_lo = 0;
  std::uint64_t addr_hi = std::numeric_limits<std::uint64_t>::max();

  /// Restrict to one SR-IOV function's TLPs (-1 = any function). Checked
  /// before the probability draw, so TLPs of other functions never
  /// consume randomness — the property the tenant-isolation identity
  /// relies on. Not valid on Downtrain/LinkDown (link-wide events).
  int vf = -1;

  /// Consecutive transmission attempts affected when the rule fires —
  /// corrupt@count=5 NAKs one TLP five times in a row, driving the DLL
  /// past REPLAY_NUM into a link retrain.
  std::uint64_t count = 1;

  /// Downtrain targets (Downtrain rules only; the window [from, until)
  /// bounds the degraded period).
  unsigned lanes = 0;
  unsigned gen = 0;

  /// True when the rule fires on every TLP its predicates admit without
  /// consuming randomness.
  bool deterministic() const { return prob <= 0.0; }

  /// Format as one grammar rule. Exact inverse of parsing: for any rule
  /// the parser accepts (and any generated rule with times below 2^53 ps),
  /// parse_plan(describe()) reproduces the rule field-for-field — the
  /// property the round-trip tests and the chaos shrinker rely on.
  std::string describe() const;

  friend bool operator==(const FaultRule&, const FaultRule&) = default;
};

struct FaultPlan {
  std::vector<FaultRule> rules;
  std::uint64_t seed = 0x5eed;

  bool empty() const { return rules.empty(); }
  std::string describe() const;

  friend bool operator==(const FaultPlan&, const FaultPlan&) = default;
};

/// Parse the --faults spec grammar above; throws std::invalid_argument
/// with a pointed message on malformed input.
FaultPlan parse_plan(const std::string& spec);

}  // namespace pcieb::fault
