// Network endpoints.
//
// An Endpoint names a contact address for an EveryWare component — the same
// (host, port) pair the paper's components register with the Gossip service.
// In simulation the "host" is a symbolic host name; over real TCP it is an
// IPv4 address or DNS name.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

namespace ew {

struct Endpoint {
  std::string host;
  std::uint16_t port = 0;

  [[nodiscard]] std::string to_string() const {
    return host + ":" + std::to_string(port);
  }
  [[nodiscard]] bool valid() const { return !host.empty() && port != 0; }

  /// Wire layout (common/wire.hpp): length-prefixed host, then port.
  template <class Ar>
  void fields(Ar& ar) {
    ar(host, port);
  }

  friend bool operator==(const Endpoint& a, const Endpoint& b) = default;
  friend auto operator<=>(const Endpoint& a, const Endpoint& b) = default;
};

struct EndpointHash {
  std::size_t operator()(const Endpoint& e) const {
    return std::hash<std::string>{}(e.host) * 1000003u ^ e.port;
  }
};

}  // namespace ew
