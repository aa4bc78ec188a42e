// The scaffold every model-checker world builds on (DESIGN.md §14): one
// event queue, a deterministic network, the sim transport, a chaos engine
// for the fault menu, and the process-wide trace recorder for the branch.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "obs/invariants.hpp"
#include "obs/trace.hpp"
#include "sim/chaos.hpp"
#include "sim/mc/explorer.hpp"
#include "sim/network_model.hpp"
#include "sim/sim_transport.hpp"

namespace ew::sim::mc {

/// Deterministic-network base: loss and jitter zeroed so the NetworkModel's
/// unconditional RNG draws are value-irrelevant (chance(0) is always false,
/// lognormal(0,0) is exactly 1) — the precondition for the Explorer's
/// host-disjoint independence relation (DESIGN.md §14). Every host sits in
/// the default site, so all deliveries take the same base latency and
/// same-tick sends collide into genuine choice points. Each world owns the
/// process-wide trace recorder for the duration of its branch.
class BaseWorld : public World {
 public:
  explicit BaseWorld(std::uint64_t seed)
      : network_(Rng(seed)), transport_(events_, network_),
        chaos_(events_, network_) {
    network_.set_loss_rate(0.0);
    network_.set_jitter_sigma(0.0);
    auto& tr = obs::trace();
    tr.reset();
    tr.set_capacity(1u << 16);
    tr.set_enabled(true);
  }

  ~BaseWorld() override {
    auto& tr = obs::trace();
    tr.set_enabled(false);
    tr.reset();
    tr.set_capacity(4096);
  }

  EventQueue& events() override { return events_; }

  /// The fault menu: crash the fault target, then restart it.
  std::vector<FaultAction> fault_actions() override {
    const std::string h = fault_host_;
    return {
        {"crash " + h,
         [this, h] { chaos_.inject({0, FaultKind::kCrash, h}); }},
        {"restart " + h,
         [this, h] { chaos_.inject({0, FaultKind::kRestart, h}); }},
    };
  }

 protected:
  /// Register `host`'s kill/restart handles with the chaos engine and make
  /// it the host the fault menu crashes and restarts.
  void set_fault_target(const std::string& host, ChaosEngine::Process p) {
    fault_host_ = host;
    chaos_.register_process(host, std::move(p));
  }

  std::vector<std::string> trace_violations(const obs::InvariantOptions& io) {
    return obs::check_invariants(obs::trace(), io).violations;
  }

  EventQueue events_;
  NetworkModel network_;
  SimTransport transport_;
  ChaosEngine chaos_;

 private:
  std::string fault_host_;
};

}  // namespace ew::sim::mc
