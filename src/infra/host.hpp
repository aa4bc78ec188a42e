// SimHost: one simulated machine.
//
// A host has a peak integer-op rate (what the Ramsey kernels would measure
// on it), a mean-reverting load process (time-sharing with other users —
// the client only gets a fraction of peak), and an availability churn
// process (owner reclamation, batch expiry, reboots, browsers closing).
// The host runs its own churn, but its load moves only when its owner calls
// step_load(): a HostPool steps all its hosts from one 30 s tick, and a
// standalone SimHost's load stays put.
// When a host goes down its transport endpoints go silent — exactly how the
// toolkit experiences failure — and the owning pool kills the client
// process, losing its local state (the paper's first state class).
#pragma once

#include <functional>
#include <string>

#include "common/rng.hpp"
#include "core/protocol.hpp"
#include "sim/event_queue.hpp"
#include "sim/sim_transport.hpp"
#include "sim/traces.hpp"

namespace ew::infra {

struct HostSpec {
  std::string name;           // unique; also the endpoint host
  std::string site;           // network site (latency domain)
  core::Infra infra = core::Infra::kUnix;
  double ops_per_sec = 1e7;   // peak deliverable integer-op rate
};

class SimHost {
 public:
  SimHost(sim::EventQueue& events, sim::SimTransport& transport, HostSpec spec,
          sim::Ar1Process::Params load, sim::DurationSampler::Params churn,
          std::uint64_t seed);

  /// Begin the availability process.
  void start(bool initially_up);
  /// Permanent stop (end of scenario).
  void shutdown();

  [[nodiscard]] const HostSpec& spec() const { return spec_; }
  [[nodiscard]] bool up() const { return up_; }
  /// Deliverable ops/sec for a guest job right now (0 when down).
  [[nodiscard]] double current_rate() const;

  void set_on_up(std::function<void()> fn) { on_up_ = std::move(fn); }
  void set_on_down(std::function<void()> fn) { on_down_ = std::move(fn); }

  /// Reclaim the host now; it stays down at least `at_least` (plus the
  /// normal sampled downtime). No-op when already down.
  void force_down(Duration at_least);

  /// Ambient CPU contention multiplier on the load process mean (judging
  /// spike); 1.0 = normal.
  void set_pressure(double factor) { load_.set_pressure(factor); }
  /// Advance the load process one step (its owner's 30 s tick).
  void step_load() { load_.step(); }

  [[nodiscard]] std::uint64_t up_transitions() const { return up_transitions_; }

 private:
  void go_up();
  void go_down(Duration extra_down);

  sim::EventQueue& events_;
  sim::SimTransport& transport_;
  HostSpec spec_;
  sim::Ar1Process load_;
  sim::DurationSampler churn_;
  Rng rng_;
  bool up_ = false;
  bool running_ = false;
  std::uint64_t up_transitions_ = 0;
  std::function<void()> on_up_;
  std::function<void()> on_down_;
  TimerId transition_timer_ = kInvalidTimer;
};

}  // namespace ew::infra
