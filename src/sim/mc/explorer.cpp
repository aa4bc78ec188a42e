#include "sim/mc/explorer.hpp"

#include <algorithm>
#include <limits>

namespace ew::sim::mc {

std::string Repro::to_string() const {
  std::string out = "world=" + world + " steps:";
  if (choices.empty()) out += " (all-default)";
  for (const auto& [step, c] : choices) {
    out += ' ';
    out += std::to_string(step);
    out += ':';
    out += (c.kind == Choice::Kind::kFault) ? "fault[" : "ev[";
    out += std::to_string(c.index) + "]";
  }
  return out;
}

namespace {

/// Host-disjoint events commute; unlabelled events never do.
bool independent(const std::string& a, const std::string& b) {
  return !a.empty() && !b.empty() && a != b;
}

/// Dense path from a sparse repro: defaults at unlisted steps.
std::vector<Choice> densify(const Repro& repro) {
  std::uint32_t len = 0;
  for (const auto& [step, c] : repro.choices) len = std::max(len, step + 1);
  std::vector<Choice> dense(len);
  for (const auto& [step, c] : repro.choices) dense[step] = c;
  return dense;
}

/// Sparse repro from a dense path: only the non-default choices.
Repro sparsify(const std::string& world, const std::vector<Choice>& dense) {
  Repro r;
  r.world = world;
  for (std::uint32_t i = 0; i < dense.size(); ++i) {
    if (!dense[i].is_default()) r.choices.emplace_back(i, dense[i]);
  }
  return r;
}

}  // namespace

Explorer::ExecResult Explorer::execute(const Path& path, bool run_to_end) {
  ExecResult r;
  std::unique_ptr<World> world = factory_();
  world->warmup();
  EventQueue& q = world->events();
  const TimePoint t_end = opts_.window > 0
                              ? q.now() + opts_.window
                              : std::numeric_limits<TimePoint>::max();
  std::vector<FaultAction> faults = world->fault_actions();
  std::vector<bool> used(faults.size(), false);
  std::uint32_t faults_used = 0;
  std::uint32_t step = 0;
  for (;;) {
    std::vector<EventQueue::EligibleEvent> elig = q.eligible();
    if (!elig.empty() && elig.front().at > t_end) elig.clear();
    if (elig.empty() || step >= opts_.max_steps) {
      world->settle();
      r.terminal = true;
      r.depth = step;
      r.violations = world->check();
      r.fingerprint = world->fingerprint();
      return r;
    }
    Choice c;  // the default: fire the FIFO head
    if (step < path.size()) {
      c = path[step];
    } else if (!run_to_end) {
      // Frontier: hand the menu to the DFS.
      r.depth = step;
      r.menu = std::move(elig);
      if (faults_used < opts_.max_faults) {
        for (std::uint32_t i = 0; i < faults.size(); ++i) {
          if (!used[i]) r.fault_menu.push_back(i);
        }
      }
      return r;
    }
    if (c.kind == Choice::Kind::kFault) {
      if (c.index >= faults.size() || used[c.index] ||
          faults_used >= opts_.max_faults) {
        r.prefix_ok = false;  // stale path (minimization trial): abandon
        r.terminal = true;
        r.depth = step;
        return r;
      }
      used[c.index] = true;
      ++faults_used;
      faults[c.index].apply();
    } else {
      if (c.index >= elig.size() || !q.step_event(elig[c.index].id)) {
        r.prefix_ok = false;
        r.terminal = true;
        r.depth = step;
        return r;
      }
    }
    ++step;
  }
}

void Explorer::dfs(Path& path, const Sleep& sleep, Report& rep) {
  if (rep.branch_cap_hit) return;
  if (opts_.stop_at_first_violation && !rep.violations.empty()) return;
  ++rep.runs;
  ExecResult r = execute(path, /*run_to_end=*/false);
  if (r.terminal) {
    ++rep.branches;
    rep.fingerprints.insert(r.fingerprint);
    if (!r.violations.empty()) record_violation(path, r, rep);
    if (rep.branches >= opts_.max_branches) rep.branch_cap_hit = true;
    return;
  }
  ++rep.choice_points;
  if (r.menu.size() + r.fault_menu.size() >= 2) ++rep.branching_points;
  rep.max_eligible = std::max(rep.max_eligible, r.menu.size());

  // Events first (index 0 is the replay default), then fault placements.
  Sleep done;  // events already explored at this node
  for (std::uint32_t i = 0; i < r.menu.size(); ++i) {
    if (rep.branch_cap_hit) return;
    const EventQueue::EligibleEvent& ev = r.menu[i];
    if (opts_.reduce &&
        std::any_of(sleep.begin(), sleep.end(),
                    [&](const auto& s) { return s.first == ev.id; })) {
      // A sibling subtree already covers every trace that starts here.
      ++rep.sleep_pruned;
      continue;
    }
    Sleep child_sleep;
    if (opts_.reduce) {
      // Classic sleep-set update: transitions that stay asleep are those
      // already covered elsewhere AND independent of the chosen one.
      for (const auto& s : sleep) {
        if (independent(s.second, ev.label)) child_sleep.push_back(s);
      }
      for (const auto& d : done) {
        if (independent(d.second, ev.label)) child_sleep.push_back(d);
      }
    }
    path.push_back({Choice::Kind::kEvent, i});
    dfs(path, child_sleep, rep);
    path.pop_back();
    done.emplace_back(ev.id, ev.label);
  }
  for (std::uint32_t idx : r.fault_menu) {
    if (rep.branch_cap_hit) return;
    // Faults are dependent with everything: children start wide awake.
    path.push_back({Choice::Kind::kFault, idx});
    dfs(path, Sleep{}, rep);
    path.pop_back();
  }
}

Repro Explorer::minimize(const Path& path, std::uint64_t* extra_runs) {
  Path dense = path;
  const auto violates = [&](const Path& trial) {
    ++*extra_runs;
    ExecResult r = execute(trial, /*run_to_end=*/true);
    return r.prefix_ok && !r.violations.empty();
  };
  // 1. Trailing defaults are implied by replay: drop them outright.
  while (!dense.empty() && dense.back().is_default()) dense.pop_back();
  // 2. Greedy: try to turn each remaining non-default choice back into the
  //    default, keeping the substitution whenever the violation survives.
  for (std::size_t i = 0; i < dense.size(); ++i) {
    if (dense[i].is_default()) continue;
    Path trial = dense;
    trial[i] = Choice{};
    if (violates(trial)) {
      dense = std::move(trial);
      while (!dense.empty() && dense.back().is_default()) dense.pop_back();
    }
  }
  return sparsify(factory_()->name(), dense);
}

void Explorer::record_violation(const Path& path, const ExecResult& r,
                                Report& rep) {
  Violation v;
  v.messages = r.violations;
  v.raw_steps = r.depth;
  v.repro = minimize(path, &rep.runs);
  // Prove the repro replays deterministically: two fresh executions must
  // agree with each other on both the violations and the end state.
  const Path dense = densify(v.repro);
  ExecResult a = execute(dense, /*run_to_end=*/true);
  ExecResult b = execute(dense, /*run_to_end=*/true);
  rep.runs += 2;
  v.replay_deterministic = a.prefix_ok && !a.violations.empty() &&
                           a.violations == b.violations &&
                           a.fingerprint == b.fingerprint;
  rep.violations.push_back(std::move(v));
}

Report Explorer::explore() {
  Report rep;
  Path path;
  dfs(path, Sleep{}, rep);
  return rep;
}

std::vector<std::string> Explorer::replay(const Repro& repro) {
  ExecResult r = execute(densify(repro), /*run_to_end=*/true);
  if (!r.prefix_ok) return {"repro prefix no longer applies"};
  return r.violations;
}

}  // namespace ew::sim::mc
