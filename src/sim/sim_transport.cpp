#include "sim/sim_transport.hpp"

#include <utility>

namespace ew::sim {

Status SimTransport::bind(const Endpoint& self, PacketHandler handler) {
  if (!self.valid()) return Status(Err::kRejected, "invalid endpoint");
  auto [it, inserted] = bindings_.emplace(self, std::move(handler));
  (void)it;
  if (!inserted) {
    return Status(Err::kRejected, "endpoint already bound: " + self.to_string());
  }
  return {};
}

void SimTransport::unbind(const Endpoint& self) { bindings_.erase(self); }

void SimTransport::set_host_up(const std::string& host, bool up) {
  if (up) {
    down_hosts_.erase(host);
  } else {
    down_hosts_.insert(host);
  }
}

bool SimTransport::host_up(const std::string& host) const {
  return !down_hosts_.contains(host);
}

Status SimTransport::send(const Endpoint& from, const Endpoint& to, Packet packet) {
  if (!host_up(from.host)) {
    // The sending host died between scheduling and sending; nothing leaves.
    ++dropped_;
    return Status(Err::kUnavailable, "sending host is down");
  }
  if (!host_up(to.host)) {
    ++dropped_;
    return {};  // SYN into the void: the sender only learns via time-out
  }
  if (!bindings_.contains(to)) {
    return Status(Err::kRefused, "no listener at " + to.to_string());
  }
  if (drop_ && drop_(from, to, packet)) {
    ++dropped_;
    return {};  // injected fault: silent loss
  }
  const std::size_t size = wire::kHeaderSize + packet.payload.size();
  const auto d = network_.sample(from.host, to.host, size);
  if (!d.deliver) {
    ++dropped_;
    return {};  // lost in the network
  }
  ++sent_;
  bytes_ += size;
  // Label the delivery (and, by inheritance, everything the receiving
  // handler schedules) with the destination host: the model checker's
  // independence relation is "different hosts commute".
  EventQueue::LabelScope scope(events_, to.host);
  events_.schedule(d.latency, [this, from, to, pkt = std::move(packet)]() mutable {
    if (!host_up(to.host)) return;  // receiver died in flight
    auto it = bindings_.find(to);
    if (it == bindings_.end()) return;  // unbound in flight
    it->second(IncomingMessage{from, std::move(pkt)});
  });
  return {};
}

}  // namespace ew::sim
