// Default pool profiles per infrastructure, calibrated against the SC98
// deployment (paper Figures 3-4), plus the shared PoolAdapter base.
//
// Host counts follow Figure 3b (Condor ~110 hosts, NT ~70, Legion ~30,
// Globus ~25, Unix ~15, Java ~12, NetSolve ~3); per-host rates are set so
// the per-infrastructure delivered-performance curves peak near Figure 3a's
// levels (Condor ~0.9 Gops/s, NT ~0.7, Unix ~0.35, Globus ~0.25, Legion
// ~0.2, Java ~2e7, NetSolve ~3e6; total ~2.4 Gops/s). Churn parameters are
// chosen per infrastructure character: Condor workstations are reclaimed by
// owners frequently, batch gangs hold nodes for hours, Java browser sessions
// are minutes long, NetSolve/Unix servers are stable.
#pragma once

#include "infra/pool.hpp"

namespace ew::infra {

PoolProfile default_profile(core::Infra kind);

/// Adapter over a single HostPool with spike plumbing; concrete adapters
/// derive and add their infrastructure's services and quirks.
class PoolAdapter : public InfraAdapter {
 public:
  PoolAdapter(sim::EventQueue& events, sim::SimTransport& transport,
              sim::NetworkModel& network, PoolProfile profile,
              std::uint64_t seed)
      : events_(events),
        transport_(transport),
        network_(network),
        pool_(events, transport, network, std::move(profile), seed) {}

  [[nodiscard]] core::Infra kind() const override { return pool_.profile().infra; }
  void start(ClientFactory factory) override { pool_.start(std::move(factory)); }
  void stop() override { pool_.stop(); }
  [[nodiscard]] int hosts_active() const override { return pool_.hosts_active(); }

  void apply_spike(const sim::Spike& spike) override {
    pool_.set_pressure(spike.cpu_pressure);
    if (spike.reclaim_fraction > 0) {
      pool_.reclaim_fraction(spike.reclaim_fraction, spike.end - spike.start);
    }
  }
  void clear_spike() override { pool_.set_pressure(1.0); }

  [[nodiscard]] HostPool& pool() { return pool_; }

 protected:
  sim::EventQueue& events_;
  sim::SimTransport& transport_;
  sim::NetworkModel& network_;
  HostPool pool_;
};

}  // namespace ew::infra
