// HostPool: a fleet of simulated hosts under one infrastructure, plus
// InfraAdapter, the one adapter class every infrastructure is built from.
//
// The pool owns host lifecycles and their load: one pool timer steps every
// host's load process every 30 s, in host index order (a standalone SimHost's
// load moves only when its owner calls step_load()). By default the pool
// also launches a client process on each host when it comes up, after the
// infrastructure's characteristic start-up delay — the paper's observation
// that "each infrastructure exported its own interface for launching and
// terminating processes" (Section 5.1) becomes per-adapter launch ceremony
// around a common ClientFactory. Unix, Java and Condor need nothing beyond
// their profile (profiles.hpp) and run as a plain InfraAdapter; Globus,
// Legion, NT and NetSolve derive from it to add their services or launch
// quirks.
#pragma once

#include <memory>
#include <vector>

#include "infra/host.hpp"
#include "sim/network_model.hpp"

namespace ew::infra {

/// A running client process handle; destroying it terminates the process.
class Process {
 public:
  virtual ~Process() = default;
};

/// Creates a client process executing on `host`. The factory binds whatever
/// endpoints it needs on host.spec().name.
using ClientFactory = std::function<std::unique_ptr<Process>(SimHost&)>;

struct PoolProfile {
  core::Infra infra = core::Infra::kUnix;
  std::string site = "wan";
  std::string host_prefix = "host";
  int host_count = 8;
  double rate_median = 1e7;   // per-host peak ops/sec (lognormal median)
  double rate_sigma = 0.4;    // lognormal shape across hosts
  /// Overrides the lognormal draw when set (e.g. Java's two JIT/interpreted
  /// tiers, Section 5.6).
  std::function<double(int index, Rng& rng)> rate_fn;
  sim::Ar1Process::Params load;
  sim::DurationSampler::Params churn;
  Duration relaunch_delay = 30 * kSecond;  // launch ceremony after host-up
  double initially_up = 0.85;
};

class HostPool {
 public:
  HostPool(sim::EventQueue& events, sim::SimTransport& transport,
           sim::NetworkModel& network, PoolProfile profile, std::uint64_t seed);
  ~HostPool();
  HostPool(const HostPool&) = delete;
  HostPool& operator=(const HostPool&) = delete;

  /// Create hosts, register their sites, start churn, and launch clients on
  /// up hosts via `factory` (after relaunch_delay).
  void start(ClientFactory factory);
  void stop();

  [[nodiscard]] int hosts_total() const { return static_cast<int>(hosts_.size()); }
  [[nodiscard]] int hosts_up() const;
  /// Hosts that are up AND currently running a client (Figure 3b counts
  /// hosts delivering cycles, not merely powered).
  [[nodiscard]] int hosts_active() const;
  [[nodiscard]] const PoolProfile& profile() const { return profile_; }
  [[nodiscard]] std::vector<std::unique_ptr<SimHost>>& hosts() { return hosts_; }

  /// Reclaim a deterministic fraction of up hosts (judging-time spike).
  void reclaim_fraction(double fraction, Duration at_least);
  /// Ambient CPU contention multiplier for all hosts.
  void set_pressure(double factor);

  /// Adapter hook: launch ceremony. The default schedules `factory` after
  /// relaunch_delay; adapters override wiring via set_launch_hook to add
  /// staging, brokering, or kill quirks. The hook is responsible for calling
  /// run_client(i) eventually (or not, if launch fails).
  using LaunchHook = std::function<void(std::size_t host_index)>;
  void set_launch_hook(LaunchHook hook) { launch_hook_ = std::move(hook); }

  /// Instantiate the client on host i now (idempotent while up).
  void run_client(std::size_t host_index);
  /// Kill the client on host i (host stays up).
  void kill_client(std::size_t host_index);
  [[nodiscard]] bool client_running(std::size_t host_index) const;

  /// Running clients killed because their host went down (for Condor, the
  /// owner reclaiming a workstation: a vanilla-universe eviction).
  [[nodiscard]] std::uint64_t evictions() const { return evictions_; }

 private:
  void on_host_up(std::size_t i);
  void on_host_down(std::size_t i);
  void schedule_load_step();

  sim::EventQueue& events_;
  sim::SimTransport& transport_;
  sim::NetworkModel& network_;
  PoolProfile profile_;
  Rng rng_;
  std::vector<std::unique_ptr<SimHost>> hosts_;
  std::vector<std::unique_ptr<Process>> clients_;
  ClientFactory factory_;
  LaunchHook launch_hook_;
  TimerId load_timer_ = kInvalidTimer;
  bool running_ = false;
  std::uint64_t evictions_ = 0;
};

/// One infrastructure as the scenario builder consumes it: a HostPool with
/// spike plumbing. Subclasses add their infrastructure's services (start
/// and stop them around the pool) or install a launch hook on pool_.
class InfraAdapter {
 public:
  InfraAdapter(sim::EventQueue& events, sim::SimTransport& transport,
               sim::NetworkModel& network, std::uint64_t seed,
               PoolProfile profile)
      : events_(events),
        pool_(events, transport, network, std::move(profile), seed) {}
  virtual ~InfraAdapter() = default;
  InfraAdapter(const InfraAdapter&) = delete;
  InfraAdapter& operator=(const InfraAdapter&) = delete;

  /// Start hosts + infrastructure services; clients come from `factory`.
  virtual void start(ClientFactory factory) { pool_.start(std::move(factory)); }
  virtual void stop() { pool_.stop(); }

  [[nodiscard]] core::Infra kind() const { return pool_.profile().infra; }
  [[nodiscard]] int hosts_active() const { return pool_.hosts_active(); }
  /// Scripted contention events (Figure 2's judging spike).
  void apply_spike(const sim::Spike& spike);
  void clear_spike() { pool_.set_pressure(1.0); }
  [[nodiscard]] HostPool& pool() { return pool_; }

 protected:
  sim::EventQueue& events_;
  HostPool pool_;
};

}  // namespace ew::infra
