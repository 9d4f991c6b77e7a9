#include "sim/switch.hpp"

#include <stdexcept>

namespace pcieb::sim {

PcieSwitch::PcieSwitch(Simulator& sim, const SwitchConfig& cfg, Link& upstream)
    : sim_(sim), cfg_(cfg), upstream_(upstream) {
  cfg_.port_link.validate();
}

unsigned PcieSwitch::add_port(Link::Deliver deliver_to_device) {
  const unsigned index = static_cast<unsigned>(ports_.size());
  Port port;
  port.ingress =
      std::make_unique<Link>(sim_, cfg_.port_link, cfg_.forward_latency);
  port.egress =
      std::make_unique<Link>(sim_, cfg_.port_link, cfg_.forward_latency);
  port.ingress->set_deliver(
      [this, index](const proto::Tlp& t) { on_port_ingress(index, t); });
  port.egress->set_deliver(std::move(deliver_to_device));
  ports_.push_back(std::move(port));
  return index;
}

Link& PcieSwitch::port_ingress(unsigned port) {
  return *ports_.at(port).ingress;
}

void PcieSwitch::on_port_ingress(unsigned port, const proto::Tlp& tlp) {
  ++forwarded_up_;
  proto::Tlp out = tlp;
  if (tlp.type == proto::TlpType::MemRd) {
    // Translate the tag so completions can be routed back; real switches
    // key on requester ID, which our TLPs fold into the tag.
    const std::uint32_t switch_tag = next_tag_++;
    tags_[switch_tag] = {port, tlp.tag, tlp.read_len};
    out.tag = switch_tag;
  }
  upstream_.send(out);
}

void PcieSwitch::on_downstream(const proto::Tlp& tlp) {
  ++forwarded_down_;
  if (tlp.type == proto::TlpType::CplD || tlp.type == proto::TlpType::Cpl) {
    const auto it = tags_.find(tlp.tag);
    if (it == tags_.end()) {
      throw std::logic_error("PcieSwitch: completion for unknown tag");
    }
    Route& route = it->second;
    const unsigned port = route.port;
    proto::Tlp out = tlp;
    out.tag = route.device_tag;
    // A read's completions may arrive as several CplDs: the route retires
    // with the one that carries its last byte, or with a data-less error
    // completion, which ends the request.
    if (tlp.type == proto::TlpType::Cpl || tlp.payload >= route.remaining) {
      tags_.erase(it);
    } else {
      route.remaining -= tlp.payload;
    }
    ports_.at(port).egress->send(out);
    return;
  }
  // Broadcast-free model: host MMIO routing by address is not needed by
  // the shared-uplink study; posted writes from the host are rare. Route
  // MMIO to port 0 by convention.
  if (!ports_.empty()) ports_[0].egress->send(tlp);
}

}  // namespace pcieb::sim
