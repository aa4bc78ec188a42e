#include "infra/pool.hpp"

#include <cmath>

namespace ew::infra {

namespace {
constexpr Duration kLoadStep = 30 * kSecond;
}

HostPool::HostPool(sim::EventQueue& events, sim::SimTransport& transport,
                   sim::NetworkModel& network, PoolProfile profile,
                   std::uint64_t seed)
    : events_(events),
      transport_(transport),
      network_(network),
      profile_(std::move(profile)),
      rng_(seed) {}

HostPool::~HostPool() { stop(); }

void HostPool::start(ClientFactory factory) {
  if (running_) return;
  running_ = true;
  factory_ = std::move(factory);
  hosts_.reserve(static_cast<std::size_t>(profile_.host_count));
  clients_.resize(static_cast<std::size_t>(profile_.host_count));
  for (int i = 0; i < profile_.host_count; ++i) {
    HostSpec spec;
    spec.name = profile_.host_prefix + "-" + std::to_string(i);
    spec.site = profile_.site;
    spec.infra = profile_.infra;
    spec.ops_per_sec =
        profile_.rate_fn
            ? profile_.rate_fn(i, rng_)
            : profile_.rate_median * rng_.lognormal(0.0, profile_.rate_sigma);
    network_.set_site(spec.name, profile_.site);
    auto host = std::make_unique<SimHost>(events_, transport_, std::move(spec),
                                          profile_.load, profile_.churn,
                                          rng_.next_u64());
    const auto idx = static_cast<std::size_t>(i);
    host->set_on_up([this, idx] { on_host_up(idx); });
    host->set_on_down([this, idx] { on_host_down(idx); });
    hosts_.push_back(std::move(host));
  }
  for (auto& h : hosts_) {
    h->start(rng_.chance(profile_.initially_up));
    // Armed right after host 0 starts: the timer-id position that keeps
    // every load step in order against every other event (DESIGN §17).
    if (h == hosts_.front()) schedule_load_step();
  }
}

void HostPool::stop() {
  if (!running_) return;
  running_ = false;
  for (std::size_t i = 0; i < clients_.size(); ++i) kill_client(i);
  events_.cancel(load_timer_);
  for (auto& h : hosts_) h->shutdown();
}

int HostPool::hosts_up() const {
  int n = 0;
  for (const auto& h : hosts_) n += h->up() ? 1 : 0;
  return n;
}

int HostPool::hosts_active() const {
  int n = 0;
  for (std::size_t i = 0; i < hosts_.size(); ++i) {
    if (hosts_[i]->up() && clients_[i]) ++n;
  }
  return n;
}

void HostPool::reclaim_fraction(double fraction, Duration at_least) {
  // Deterministic: reclaim every k-th up host.
  if (fraction <= 0.0) return;
  const int up = hosts_up();
  const int to_reclaim = static_cast<int>(std::ceil(up * fraction));
  int reclaimed = 0;
  for (auto& h : hosts_) {
    if (reclaimed >= to_reclaim) break;
    if (h->up()) {
      h->force_down(at_least);
      ++reclaimed;
    }
  }
}

void HostPool::set_pressure(double factor) {
  for (auto& h : hosts_) h->set_pressure(factor);
}

void HostPool::schedule_load_step() {
  load_timer_ = events_.schedule(kLoadStep, [this] {
    if (!running_) return;
    for (auto& h : hosts_) h->step_load();
    schedule_load_step();
  });
}

void HostPool::on_host_up(std::size_t i) {
  if (!running_) return;
  if (launch_hook_) {
    launch_hook_(i);
    return;
  }
  // Default ceremony: the infrastructure takes relaunch_delay to notice the
  // host and start the client.
  events_.schedule(profile_.relaunch_delay, [this, i] {
    if (!running_) return;
    if (hosts_[i]->up()) run_client(i);
  });
}

void HostPool::on_host_down(std::size_t i) {
  if (!running_) return;
  if (clients_[i]) ++evictions_;
  kill_client(i);
}

void HostPool::run_client(std::size_t i) {
  if (!running_ || clients_[i] || !factory_) return;
  if (!hosts_[i]->up()) return;
  clients_[i] = factory_(*hosts_[i]);
}

void HostPool::kill_client(std::size_t i) {
  clients_[i].reset();
}

bool HostPool::client_running(std::size_t i) const {
  return static_cast<bool>(clients_[i]);
}

void InfraAdapter::apply_spike(const sim::Spike& spike) {
  pool_.set_pressure(spike.cpu_pressure);
  if (spike.reclaim_fraction > 0) {
    pool_.reclaim_fraction(spike.reclaim_fraction, spike.end - spike.start);
  }
}

}  // namespace ew::infra
