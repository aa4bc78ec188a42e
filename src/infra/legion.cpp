#include "infra/legion.hpp"

namespace ew::infra {

void TranslatorServer::forward(MsgType type, std::vector<Endpoint> targets) {
  routes_[type] = std::move(targets);
  node_.handle(type, [this, type](const IncomingMessage& m, Responder r) {
    // Legion method dispatch is not free: model the invocation overhead,
    // then relay ("the role of the translator was to invoke an appropriate
    // Legion method based on message receipt").
    node_.executor().schedule(
        opts_.processing_delay,
        [this, type, payload = m.packet.payload, r = std::move(r)] {
          relay(type, payload, r, 0, 0);
        });
  });
}

void TranslatorServer::relay(MsgType type, const Bytes& payload, Responder resp,
                             std::size_t target_index, std::size_t attempts) {
  const auto& targets = routes_.at(type);
  if (attempts >= targets.size()) {
    resp.fail(Err::kUnavailable, "all translation targets unreachable");
    return;
  }
  const Endpoint target = targets[target_index % targets.size()];
  // The translator's resilience is its own target failover (next arm of
  // this function), so each relayed call stays single-attempt: the relayed
  // request may not be idempotent at the destination.
  CallOptions relay_opts;
  relay_opts.trace_tag = "legion.relay";
  node_.call(target, type, payload, std::move(relay_opts),
             [this, type, payload, resp, target_index,
              attempts](Result<Bytes> r) {
               if (r.ok()) {
                 ++translated_;
                 resp.ok(*r);
                 return;
               }
               if (r.code() == Err::kRejected) {
                 // Application-level rejection must reach the client intact
                 // (e.g. "unregistered client" triggers re-registration).
                 resp.fail(Err::kRejected, r.error().message);
                 return;
               }
               relay(type, payload, resp, target_index + 1, attempts + 1);
             });
}

LegionAdapter::LegionAdapter(sim::EventQueue& events, sim::SimTransport& transport,
                             sim::NetworkModel& network, std::uint64_t seed,
                             PoolProfile profile, Config config)
    : InfraAdapter(events, transport, network, seed, std::move(profile)),
      config_(std::move(config)) {
  network.set_site(config_.gate_host, pool_.profile().site);
  node_.emplace(events, transport, Endpoint{config_.gate_host, 801});
  translator_.emplace(*node_, config_.translator);
}

void LegionAdapter::start(ClientFactory factory) {
  node_->start();
  InfraAdapter::start(std::move(factory));
}

void LegionAdapter::stop() {
  InfraAdapter::stop();
  node_->stop();
}

}  // namespace ew::infra
