#include "infra/netsolve.hpp"

namespace ew::infra {

NetSolveAdapter::NetSolveAdapter(sim::EventQueue& events,
                                 sim::SimTransport& transport,
                                 sim::NetworkModel& network, std::uint64_t seed,
                                 PoolProfile profile, Config config)
    : InfraAdapter(events, transport, network, seed, std::move(profile)),
      config_(std::move(config)) {
  network.set_site(config_.agent_host, pool_.profile().site);
  agent_.emplace(events, transport, Endpoint{config_.agent_host, 901});
}

void NetSolveAdapter::start(ClientFactory factory) {
  if (running_) return;
  running_ = true;
  agent_->start();
  agent_->handle(core::msgtype::kNetSolveRequest,
                 [this](const IncomingMessage&, Responder r) { on_request(r); });
  pool_.set_launch_hook([this](std::size_t i) {
    // The server advertises its capabilities to the agent as it comes up.
    advertised_.insert(i);
    if (!requested_) return;
    events_.schedule(config_.dispatch_delay, [this, i] {
      if (running_ && pool_.hosts()[i]->up()) pool_.run_client(i);
    });
  });
  pool_.start(std::move(factory));
}

void NetSolveAdapter::stop() {
  if (!running_) return;
  running_ = false;
  pool_.stop();
  agent_->stop();
}

void NetSolveAdapter::on_request(const Responder& resp) {
  Writer w;
  w.u32(static_cast<std::uint32_t>(advertised_.size()));
  resp.ok(w.take());
  if (requested_) return;
  requested_ = true;
  for (std::size_t i : advertised_) {
    if (!pool_.hosts()[i]->up() || pool_.client_running(i)) continue;
    events_.schedule(config_.dispatch_delay, [this, i] {
      if (running_ && pool_.hosts()[i]->up()) pool_.run_client(i);
    });
  }
}

}  // namespace ew::infra
