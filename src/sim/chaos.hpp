// Deterministic chaos engine: a seeded, scripted schedule of faults.
//
// The paper's dependability claim — EveryWare "ran continuously from early
// June 1998 until November 12, 1998" — rests on recovery paths (Gossip
// re-registration, clique rejoin/merge, scheduler work-unit re-issue,
// persistent-state reload) that only fire when processes actually die and
// come back. A FaultPlan scripts exactly that: crash-stop, crash-restart
// after a delay and link flaps, all driven through the EventQueue so two
// runs with the same seed replay bit-identically. The ChaosEngine executes
// the plan against registered per-host process handles (kill/restart
// closures owned by the test or scenario) and the NetworkModel's
// partitions.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/clock.hpp"
#include "sim/event_queue.hpp"
#include "sim/network_model.hpp"

namespace ew::sim {

/// What one FaultEvent does when it fires.
enum class FaultKind : std::uint8_t {
  kCrash = 0,     // kill the process registered on `target`
  kRestart = 1,   // restart the process registered on `target`
  kLinkDown = 2,  // partition sites; target = "siteA|siteB"
  kLinkUp = 3,    // heal the partition; target = "siteA|siteB"
};

[[nodiscard]] const char* fault_kind_name(FaultKind k);

/// One scripted fault at an absolute sim time.
struct FaultEvent {
  TimePoint at = 0;
  FaultKind kind = FaultKind::kCrash;
  std::string target;  // host (crash/restart) or "siteA|siteB" (links)
};

/// The schedule. Building one is plain data manipulation — no randomness is
/// drawn until a generator like churn() is asked for, and then only from its
/// own seed, so plans compose without perturbing each other.
struct FaultPlan {
  std::vector<FaultEvent> events;

  FaultPlan& crash(TimePoint at, std::string host);
  FaultPlan& restart(TimePoint at, std::string host);
  /// Crash at `at`, restart the same host `downtime` later.
  FaultPlan& crash_restart(TimePoint at, const std::string& host,
                           Duration downtime);
  FaultPlan& link_down(TimePoint at, const std::string& site_a,
                       const std::string& site_b);
  FaultPlan& link_up(TimePoint at, const std::string& site_a,
                     const std::string& site_b);
  /// Cut at `at`, heal `for_how_long` later.
  FaultPlan& link_flap(TimePoint at, const std::string& site_a,
                       const std::string& site_b, Duration for_how_long);

  /// Stable sort by time (insertion order breaks ties): the order faults
  /// are armed in, hence the replay order at equal timestamps.
  void normalize();

  /// Seeded crash/restart churn: every host cycles up/down with
  /// exponentially distributed up-times (mean `mean_up`) and down-times
  /// (mean `mean_down`) over [start, end). Identical seeds produce
  /// identical plans.
  static FaultPlan churn(std::uint64_t seed,
                         const std::vector<std::string>& hosts,
                         TimePoint start, TimePoint end, Duration mean_up,
                         Duration mean_down);
};

/// Executes a FaultPlan against the sim. Tests and scenarios register one
/// Process handle per chaos-visible host; the engine tracks liveness so a
/// double-crash is a no-op and restart only fires on a dead process.
class ChaosEngine {
 public:
  struct Process {
    std::function<void()> kill;
    std::function<void()> restart;
  };

  ChaosEngine(EventQueue& events, NetworkModel& network)
      : events_(events), network_(network) {}

  /// Register (or replace) the kill/restart handles for a host.
  void register_process(const std::string& host, Process p);

  /// Schedule every event of `plan` on the event queue (times are absolute;
  /// events already in the past fire immediately). Call once per plan.
  void arm(FaultPlan plan);

  /// Apply one fault right now, bypassing the queue. The model checker's
  /// fault-placement choices use this: the Explorer decides *between* events
  /// whether a fault fires, so the fault must not itself be an event.
  /// Liveness tracking is identical to an armed plan (double-crash no-op,
  /// restart only on a dead process) and the same kChaosFault span is
  /// recorded, so the invariant checker sees scripted and explored faults
  /// the same way.
  void inject(const FaultEvent& ev) { apply(ev); }

  [[nodiscard]] std::uint64_t faults_injected() const { return injected_; }
  [[nodiscard]] std::uint64_t crashes() const { return crashes_; }
  [[nodiscard]] std::uint64_t restarts() const { return restarts_; }
  /// Is the registered process on `host` currently alive? (Unregistered
  /// hosts are reported alive: chaos never touched them.)
  [[nodiscard]] bool process_alive(const std::string& host) const;

 private:
  struct ProcState {
    Process handles;
    bool alive = true;
  };

  void apply(const FaultEvent& ev);

  EventQueue& events_;
  NetworkModel& network_;
  std::unordered_map<std::string, ProcState> procs_;
  std::uint64_t injected_ = 0;
  std::uint64_t crashes_ = 0;
  std::uint64_t restarts_ = 0;
};

}  // namespace ew::sim
