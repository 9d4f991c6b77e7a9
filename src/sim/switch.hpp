// PCIe switch: N downstream ports sharing one upstream port.
//
// Datacenter servers often hang several devices off one switch (or share
// root-port lanes), so the devices contend for a single link to the root
// complex — a different bottleneck than the shared-IOMMU case that a
// multi-device System (SystemConfig::devices) models with independent
// links. The switch:
//  * forwards upstream TLPs onto the shared upstream link (store and
//    forward, per-port ingress then shared egress serialization);
//  * translates request tags so concurrent devices' MRd tags cannot
//    collide (real switches disambiguate by requester ID);
//  * routes completions back to the issuing port, retiring each read's
//    route once its last completion has passed.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "pcie/link_config.hpp"
#include "pcie/tlp.hpp"
#include "sim/link.hpp"
#include "sim/simulator.hpp"

namespace pcieb::sim {

struct SwitchConfig {
  /// Forwarding latency through the switch, each direction.
  Picos forward_latency = from_nanos(100);
  /// Per-port link between device and switch (usually matches the
  /// device's own width); the upstream link is owned by the caller.
  proto::LinkConfig port_link;
};

class PcieSwitch {
 public:
  /// `upstream` carries traffic to the root complex; `downstream` carries
  /// completions and MMIO back from it. Port links are created per device
  /// via add_port().
  PcieSwitch(Simulator& sim, const SwitchConfig& cfg, Link& upstream);

  /// Create a port; returns its index. The returned ingress link is what
  /// the device transmits into; `deliver_to_device` receives TLPs routed
  /// back down to this port.
  unsigned add_port(Link::Deliver deliver_to_device);

  /// The link a device on `port` transmits into.
  Link& port_ingress(unsigned port);

  /// Wire this to the downstream (RC -> switch) link's deliver callback.
  void on_downstream(const proto::Tlp& tlp);

  std::uint64_t forwarded_upstream() const { return forwarded_up_; }
  std::uint64_t forwarded_downstream() const { return forwarded_down_; }
  /// Forwarded reads still waiting for completion bytes.
  std::size_t reads_in_flight() const { return tags_.size(); }

 private:
  void on_port_ingress(unsigned port, const proto::Tlp& tlp);

  struct Port {
    std::unique_ptr<Link> ingress;      ///< device -> switch
    std::unique_ptr<Link> egress;       ///< switch -> device
  };

  Simulator& sim_;
  SwitchConfig cfg_;
  Link& upstream_;
  std::vector<Port> ports_;
  /// Where one forwarded read's completions go, and how many of its
  /// bytes are still owed.
  struct Route {
    unsigned port;
    std::uint32_t device_tag;
    std::uint32_t remaining;
  };
  std::uint32_t next_tag_ = 1;
  std::unordered_map<std::uint32_t, Route> tags_;  ///< keyed by switch tag
  std::uint64_t forwarded_up_ = 0;
  std::uint64_t forwarded_down_ = 0;
};

}  // namespace pcieb::sim
