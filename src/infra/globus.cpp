#include "infra/globus.hpp"

#include "common/wire.hpp"

namespace ew::infra {

GlobusAdapter::GlobusAdapter(sim::EventQueue& events, sim::SimTransport& transport,
                             sim::NetworkModel& network, std::uint64_t seed,
                             PoolProfile profile, Config config)
    : InfraAdapter(events, transport, network, seed, std::move(profile)),
      config_(std::move(config)) {
  network.set_site(config_.control_host, config_.control_site);
  mds_.emplace(events, transport, Endpoint{config_.control_host, 701});
  gram_.emplace(events, transport, Endpoint{config_.control_host, 702});
  gass_.emplace(events, transport, Endpoint{config_.control_host, 703});
}

void GlobusAdapter::start(ClientFactory factory) {
  if (running_) return;
  running_ = true;
  mds_->start();
  gram_->start();
  gass_->start();

  mds_->handle(core::msgtype::kMdsQuery,
               [this](const IncomingMessage&, Responder r) { on_mds_query(r); });
  gram_->handle(core::msgtype::kGramAuth,
                [](const IncomingMessage&, Responder r) { r.ok(); });
  gram_->handle(core::msgtype::kGramSubmit,
                [this](const IncomingMessage& m, Responder r) { on_submit(m, r); });
  gass_->handle(core::msgtype::kGassFetch,
                [this](const IncomingMessage& m, Responder r) {
                  Reader rd(m.packet.payload);
                  auto name = rd.str();
                  if (!name) {
                    r.fail(Err::kProtocol, "missing binary name");
                    return;
                  }
                  ++gass_fetches_;
                  r.ok(Bytes(config_.binary_size, 0));
                });

  pool_.set_launch_hook([this](std::size_t i) {
    if (switched_on_) stage_and_launch(i);
    // Not switched on: the host idles until a submission arrives.
  });
  pool_.start(std::move(factory));
}

void GlobusAdapter::stop() {
  if (!running_) return;
  running_ = false;
  pool_.stop();
  mds_->stop();
  gram_->stop();
  gass_->stop();
}

void GlobusAdapter::on_mds_query(const Responder& resp) {
  Writer w;
  wire::write(w, gram_->self());
  wire::write(w, gass_->self());
  w.u32(static_cast<std::uint32_t>(pool_.hosts_up()));
  resp.ok(w.take());
}

void GlobusAdapter::on_submit(const IncomingMessage& msg, const Responder& resp) {
  Reader r(msg.packet.payload);
  auto binary = r.str();
  if (!binary) {
    resp.fail(Err::kProtocol, "missing binary name");
    return;
  }
  resp.ok();
  if (switched_on_) return;
  switched_on_ = true;
  for (std::size_t i = 0; i < pool_.hosts().size(); ++i) {
    if (pool_.hosts()[i]->up() && !pool_.client_running(i)) stage_and_launch(i);
  }
}

void GlobusAdapter::stage_and_launch(std::size_t i) {
  if (binary_cached_) {
    events_.schedule(config_.gram_overhead, [this, i] {
      if (running_) pool_.run_client(i);
    });
    return;
  }
  awaiting_stage_.push_back(i);
  if (staging_in_flight_) return;  // one fetch serves every waiting host
  staging_in_flight_ = true;
  // First launch: the gatekeeper pulls the image from the GASS repository
  // ("using the gatekeeper as a grappling hook").
  Writer w;
  w.str("ramsey-client");
  // A GASS fetch is a read of an immutable binary image: retry freely
  // before falling back to the 30s re-stage below.
  CallOptions fetch;
  fetch.retry = RetryPolicy::standard(2);
  fetch.trace_tag = "globus.gass";
  gram_->call(gass_->self(), core::msgtype::kGassFetch, w.take(),
              std::move(fetch), [this](Result<Bytes> r) {
                if (!running_) return;
                staging_in_flight_ = false;
                const std::vector<std::size_t> waiting = std::move(awaiting_stage_);
                awaiting_stage_.clear();
                if (!r.ok()) {
                  // Retry staging for the waiting hosts after a beat.
                  events_.schedule(30 * kSecond, [this, waiting] {
                    if (!running_ || !switched_on_) return;
                    for (std::size_t i : waiting) {
                      if (pool_.hosts()[i]->up()) stage_and_launch(i);
                    }
                  });
                  return;
                }
                binary_cached_ = true;
                for (std::size_t i : waiting) {
                  events_.schedule(config_.gram_overhead, [this, i] {
                    if (running_ && pool_.hosts()[i]->up()) pool_.run_client(i);
                  });
                }
              });
}

}  // namespace ew::infra
