// SimTransport: packet delivery through the simulated network.
//
// The simulator's counterpart of TcpTransport. Sends consult the
// NetworkModel for loss/latency/partitions and schedule delivery on the
// EventQueue. Failure semantics mirror TCP as the toolkit experiences it:
//   * destination host down, or message lost → silent drop; the sender finds
//     out via its (forecast-driven) time-out, exactly as at SC98,
//   * host up but nothing bound to the port → immediate kRefused (RST).
#pragma once

#include <unordered_map>
#include <unordered_set>

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
  EventQueue& events_;
  NetworkModel& network_;
  std::unordered_map<Endpoint, PacketHandler, EndpointHash> bindings_;
  std::unordered_set<std::string> down_hosts_;
  DropFn drop_;
  std::uint64_t sent_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t bytes_ = 0;
};

}  // namespace ew::sim
