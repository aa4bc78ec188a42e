// Legion adapter: the translator object (paper Section 5.3).
//
// "To communicate with the other infrastructures, we implemented a
// translator object for the lingua franca. ... it gave us a single
// monitoring point for all messages headed to and from Legion application
// components."
//
// TranslatorServer forwards configured message types to their real targets
// (with failover) and relays the responses, adding Legion's method-
// invocation overhead per hop. Legion-pool clients are built with the
// translator as their scheduler address, so every scheduler interaction
// crosses it — and if the translator's host is partitioned, the Legion side
// is cut off exactly as the paper anticipates.
#pragma once

#include <unordered_map>

#include "infra/pool.hpp"
#include "net/node.hpp"

namespace ew::infra {

class TranslatorServer {
 public:
  struct Options {
    Duration processing_delay = 25 * kMillisecond;  // per translated call
  };

  TranslatorServer(Node& node, Options opts) : node_(node), opts_(opts) {}
  explicit TranslatorServer(Node& node) : TranslatorServer(node, Options{}) {}

  /// Forward requests of `type` to `targets` (failover order).
  void forward(MsgType type, std::vector<Endpoint> targets);

  [[nodiscard]] std::uint64_t translated() const { return translated_; }

 private:
  void relay(MsgType type, const Bytes& payload, Responder resp,
             std::size_t target_index, std::size_t attempts);

  Node& node_;
  Options opts_;
  std::unordered_map<MsgType, std::vector<Endpoint>> routes_;
  std::uint64_t translated_ = 0;
};

class LegionAdapter final : public InfraAdapter {
 public:
  struct Config {
    std::string gate_host = "legion-gate";
    TranslatorServer::Options translator;
  };

  LegionAdapter(sim::EventQueue& events, sim::SimTransport& transport,
                sim::NetworkModel& network, std::uint64_t seed,
                PoolProfile profile, Config config);

  void start(ClientFactory factory) override;
  void stop() override;

  [[nodiscard]] Endpoint translator_endpoint() const { return node_->self(); }
  [[nodiscard]] TranslatorServer& translator() { return *translator_; }

 private:
  Config config_;
  std::optional<Node> node_;
  std::optional<TranslatorServer> translator_;
};

}  // namespace ew::infra
