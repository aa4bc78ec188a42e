#include "sim/chaos.hpp"

#include <algorithm>

#include "common/rng.hpp"
#include "obs/trace.hpp"

namespace ew::sim {

const char* fault_kind_name(FaultKind k) {
  switch (k) {
    case FaultKind::kCrash: return "crash";
    case FaultKind::kRestart: return "restart";
    case FaultKind::kLinkDown: return "link_down";
    case FaultKind::kLinkUp: return "link_up";
  }
  return "?";
}

FaultPlan& FaultPlan::crash(TimePoint at, std::string host) {
  events.push_back({at, FaultKind::kCrash, std::move(host)});
  return *this;
}

FaultPlan& FaultPlan::restart(TimePoint at, std::string host) {
  events.push_back({at, FaultKind::kRestart, std::move(host)});
  return *this;
}

FaultPlan& FaultPlan::crash_restart(TimePoint at, const std::string& host,
                                    Duration downtime) {
  crash(at, host);
  restart(at + downtime, host);
  return *this;
}

namespace {
std::string link_key(const std::string& a, const std::string& b) {
  return a + "|" + b;
}
}  // namespace

FaultPlan& FaultPlan::link_down(TimePoint at, const std::string& site_a,
                                const std::string& site_b) {
  events.push_back({at, FaultKind::kLinkDown, link_key(site_a, site_b)});
  return *this;
}

FaultPlan& FaultPlan::link_up(TimePoint at, const std::string& site_a,
                              const std::string& site_b) {
  events.push_back({at, FaultKind::kLinkUp, link_key(site_a, site_b)});
  return *this;
}

FaultPlan& FaultPlan::link_flap(TimePoint at, const std::string& site_a,
                                const std::string& site_b,
                                Duration for_how_long) {
  link_down(at, site_a, site_b);
  link_up(at + for_how_long, site_a, site_b);
  return *this;
}

void FaultPlan::normalize() {
  std::stable_sort(events.begin(), events.end(),
                   [](const FaultEvent& x, const FaultEvent& y) {
                     return x.at < y.at;
                   });
}

FaultPlan FaultPlan::churn(std::uint64_t seed,
                           const std::vector<std::string>& hosts,
                           TimePoint start, TimePoint end, Duration mean_up,
                           Duration mean_down) {
  FaultPlan plan;
  Rng rng(seed);
  for (const std::string& host : hosts) {
    // Per-host sub-stream: host order in `hosts` never changes another
    // host's schedule.
    Rng hr = rng.split();
    TimePoint t = start;
    for (;;) {
      t += std::max<Duration>(
          static_cast<Duration>(hr.exponential(static_cast<double>(mean_up))),
          1);
      if (t >= end) break;
      const Duration down = std::max<Duration>(
          static_cast<Duration>(hr.exponential(static_cast<double>(mean_down))),
          1);
      plan.crash(t, host);
      // A restart past `end` still fires: a plan must never leave a role
      // dead forever, or "no work unit permanently lost" is unprovable.
      plan.restart(t + down, host);
      t += down;
    }
  }
  plan.normalize();
  return plan;
}

void ChaosEngine::register_process(const std::string& host, Process p) {
  auto& st = procs_[host];
  st.handles = std::move(p);
  st.alive = true;
}

bool ChaosEngine::process_alive(const std::string& host) const {
  auto it = procs_.find(host);
  return it == procs_.end() || it->second.alive;
}

void ChaosEngine::arm(FaultPlan plan) {
  plan.normalize();
  const TimePoint now = events_.now();
  for (FaultEvent& ev : plan.events) {
    const Duration delay = ev.at > now ? ev.at - now : 0;
    events_.schedule(delay, [this, ev = std::move(ev)] { apply(ev); });
  }
}

void ChaosEngine::apply(const FaultEvent& ev) {
  ++injected_;
  auto& tr = obs::trace();
  if (tr.enabled()) {
    tr.record(events_.now(), obs::SpanKind::kChaosFault, tr.intern(ev.target),
              static_cast<std::int64_t>(ev.kind));
  }
  switch (ev.kind) {
    case FaultKind::kCrash: {
      auto it = procs_.find(ev.target);
      if (it == procs_.end() || !it->second.alive) return;
      it->second.alive = false;
      ++crashes_;
      if (it->second.handles.kill) it->second.handles.kill();
      return;
    }
    case FaultKind::kRestart: {
      auto it = procs_.find(ev.target);
      if (it == procs_.end() || it->second.alive) return;
      it->second.alive = true;
      ++restarts_;
      if (it->second.handles.restart) it->second.handles.restart();
      return;
    }
    case FaultKind::kLinkDown:
    case FaultKind::kLinkUp: {
      const auto bar = ev.target.find('|');
      if (bar == std::string::npos) return;
      network_.set_partitioned(ev.target.substr(0, bar),
                               ev.target.substr(bar + 1),
                               ev.kind == FaultKind::kLinkDown);
      return;
    }
  }
}

}  // namespace ew::sim
