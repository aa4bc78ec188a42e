// SimTransport: packet delivery through the simulated network.
//
// The simulator's counterpart of TcpTransport. Sends consult the
// NetworkModel for loss/latency/partitions and schedule delivery on the
// EventQueue. Failure semantics mirror TCP as the toolkit experiences it:
//   * destination host down, or message lost → silent drop; the sender finds
//     out via its (forecast-driven) time-out, exactly as at SC98,
//   * host up but nothing bound to the port → immediate kRefused (RST).
//
// Per packet nothing is allocated and no string is hashed twice: each host
// has one record (power state, event label id, network-model id) that its
// bindings point to, and a packet in flight waits in a slot of a reusable
// arena, so the delivery event captures only (this, slot). The binding is
// looked up when the packet lands, so a rebind in flight reaches the new
// handler.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "net/transport.hpp"
#include "sim/event_queue.hpp"
#include "sim/network_model.hpp"

namespace ew::sim {

class SimTransport final : public Transport {
 public:
  SimTransport(EventQueue& events, NetworkModel& network)
      : events_(events), network_(network) {}

  Status bind(const Endpoint& self, PacketHandler handler) override;
  void unbind(const Endpoint& self) override;
  Status send(const Endpoint& from, const Endpoint& to, Packet packet) override;

  /// Host power state; a down host's endpoints receive nothing and sends to
  /// them are silently dropped. Hosts default to up.
  void set_host_up(const std::string& host, bool up);
  [[nodiscard]] bool host_up(const std::string& host) const;

  /// Targeted fault injection: return true to silently drop a message,
  /// on top of the network model's stochastic loss. Pass nullptr to clear.
  using DropFn = std::function<bool(const Endpoint& from, const Endpoint& to,
                                    const Packet&)>;
  void set_drop_fn(DropFn fn) { drop_ = std::move(fn); }

  [[nodiscard]] std::uint64_t packets_sent() const { return sent_; }
  [[nodiscard]] std::uint64_t packets_dropped() const { return dropped_; }
  [[nodiscard]] std::uint64_t bytes_sent() const { return bytes_; }

 private:
  /// One per host name ever seen; records never move or die, so bindings
  /// and in-flight packets hold plain pointers to them.
  struct Host {
    bool up = true;
    std::uint32_t label = 0;       // EventQueue label id of the host name
    NetworkModel::HostId net = 0;  // the host's id in the network model
  };
  struct Binding {
    PacketHandler handler;
    Host* host = nullptr;
  };
  /// A packet between send and delivery. Free slots chain through `next`.
  struct InFlight {
    Endpoint from;
    Endpoint to;
    Packet packet;
    Host* dest = nullptr;
    std::uint32_t next = 0;
  };
  static constexpr std::uint32_t kNone = UINT32_MAX;

  Host& host(const std::string& name);
  std::uint32_t park(const Endpoint& from, const Endpoint& to, Packet packet,
                     Host* dest);
  void deliver(std::uint32_t slot);

  EventQueue& events_;
  NetworkModel& network_;
  std::unordered_map<std::string, Host> hosts_;  // node-based: stable records
  std::unordered_map<Endpoint, Binding, EndpointHash> bindings_;
  std::vector<InFlight> in_flight_;
  std::uint32_t free_ = kNone;  // head of the free-slot list
  DropFn drop_;
  std::uint64_t sent_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t bytes_ = 0;
};

}  // namespace ew::sim
