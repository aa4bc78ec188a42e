// Abstract message transport.
//
// A Transport moves packets between endpoints. Delivery is best-effort and
// asynchronous — exactly the guarantees the paper's toolkit assumes (failure
// detection happens above, via forecast-driven time-outs). Two
// implementations:
//   * sim::SimTransport — simulator delivery with latency/loss/partitions
//     (unit tests run it on a quiet model: no loss, no jitter),
//   * TcpTransport      — real TCP sockets with the packet framing layer.
// tests/test_transport_contract.cpp pins the contract below through both
// and names where they differ.
#pragma once

#include <functional>
#include <memory>

#include "common/result.hpp"
#include "net/endpoint.hpp"
#include "net/packet.hpp"

namespace ew {

/// Delivered message plus the address of its sender (when known).
struct IncomingMessage {
  Endpoint from;
  Packet packet;
};

/// Handler invoked for each packet delivered to a bound endpoint.
using PacketHandler = std::function<void(IncomingMessage)>;

class Transport {
 public:
  virtual ~Transport() = default;

  /// Start receiving for `self`; `handler` is invoked on the transport's
  /// executor thread for every delivered packet, never inside send().
  /// Binding an endpoint twice, or an invalid one (empty host or port 0),
  /// returns kRejected.
  virtual Status bind(const Endpoint& self, PacketHandler handler) = 0;

  /// Stop receiving for `self`; in-flight packets to it are dropped.
  virtual void unbind(const Endpoint& self) = 0;

  /// Queue `packet` for delivery from `from` to `to`. A returned error means
  /// the send is known-failed immediately (e.g. connection refused); success
  /// does NOT guarantee delivery.
  virtual Status send(const Endpoint& from, const Endpoint& to, Packet packet) = 0;
};

}  // namespace ew
