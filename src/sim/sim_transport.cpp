#include "sim/sim_transport.hpp"

#include <utility>

namespace ew::sim {

SimTransport::Host& SimTransport::host(const std::string& name) {
  auto [it, inserted] = hosts_.try_emplace(name);
  if (inserted) {
    it->second.label = events_.label_id(name);
    it->second.net = network_.host(name);
  }
  return it->second;
}

Status SimTransport::bind(const Endpoint& self, PacketHandler handler) {
  if (!self.valid()) return Status(Err::kRejected, "invalid endpoint");
  if (bindings_.contains(self)) {
    return Status(Err::kRejected, "endpoint already bound: " + self.to_string());
  }
  bindings_.emplace(self, Binding{std::move(handler), &host(self.host)});
  return {};
}

void SimTransport::unbind(const Endpoint& self) { bindings_.erase(self); }

void SimTransport::set_host_up(const std::string& name, bool up) {
  host(name).up = up;
}

bool SimTransport::host_up(const std::string& name) const {
  auto it = hosts_.find(name);
  return it == hosts_.end() || it->second.up;
}

Status SimTransport::send(const Endpoint& from, const Endpoint& to, Packet packet) {
  const Host& src = host(from.host);
  if (!src.up) {
    // The sending host died between scheduling and sending; nothing leaves.
    ++dropped_;
    return Status(Err::kUnavailable, "sending host is down");
  }
  auto bound = bindings_.find(to);
  if (bound == bindings_.end()) {
    if (!host_up(to.host)) {
      ++dropped_;
      return {};  // SYN into the void: the sender only learns via time-out
    }
    return Status(Err::kRefused, "no listener at " + to.to_string());
  }
  Host& dest = *bound->second.host;
  if (!dest.up) {
    ++dropped_;
    return {};
  }
  if (drop_ && drop_(from, to, packet)) {
    ++dropped_;
    return {};  // injected fault: silent loss
  }
  const std::size_t size = wire::kHeaderSize + packet.payload.size();
  const auto d = network_.sample(src.net, dest.net, size);
  if (!d.deliver) {
    ++dropped_;
    return {};  // lost in the network
  }
  ++sent_;
  bytes_ += size;
  const std::uint32_t slot = park(from, to, std::move(packet), &dest);
  // Label the delivery (and, by inheritance, everything the receiving
  // handler schedules) with the destination host: the model checker's
  // independence relation is "different hosts commute".
  EventQueue::LabelScope scope(events_, dest.label);
  events_.schedule(d.latency, [this, slot] { deliver(slot); });
  return {};
}

std::uint32_t SimTransport::park(const Endpoint& from, const Endpoint& to,
                                 Packet packet, Host* dest) {
  std::uint32_t slot = free_;
  if (slot == kNone) {
    slot = static_cast<std::uint32_t>(in_flight_.size());
    in_flight_.emplace_back();
  } else {
    free_ = in_flight_[slot].next;
  }
  InFlight& f = in_flight_[slot];
  f.from = from;
  f.to = to;
  f.packet = std::move(packet);
  f.dest = dest;
  return slot;
}

void SimTransport::deliver(std::uint32_t slot) {
  InFlight& f = in_flight_[slot];
  IncomingMessage msg{std::move(f.from), std::move(f.packet)};
  // Receiver died in flight, or the endpoint was unbound in flight.
  auto it = f.dest->up ? bindings_.find(f.to) : bindings_.end();
  // Free the slot before the handler runs: what it sends may reuse it, and
  // may grow the arena, so `f` is not touched past this point.
  f.next = free_;
  free_ = slot;
  if (it == bindings_.end()) return;
  it->second.handler(std::move(msg));
}

}  // namespace ew::sim
