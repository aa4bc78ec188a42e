// Model-checker gate: systematic interleaving + fault-placement exploration
// over the three protocol fixtures (DESIGN.md §14, EXPERIMENTS.md
// "Model-checker exploration").
//
// Four gates:
//
//   * the clique, gossip, and scheduler worlds explore to quiescence within
//     their bounds with at least one fault placement per world and ZERO
//     invariant violations;
//   * sleep-set reduction prunes >= 5x: the same bounds explored with
//     reduction off must execute >= 5x the branches (aggregated across the
//     worlds) while visiting the same set of end-state fingerprints;
//   * the deliberately seeded bug ("sched-nodedupe": clients send seq 0,
//     opting out of the production scheduler's reply cache) IS caught,
//     with a minimized repro of <= 20 choices;
//   * that repro replays deterministically (two fresh re-executions agree).
//
// Emits ONE machine-readable JSON line:
//
//   {"bench":"mc_explore","worlds":[{"world":...,"branches":...,
//    "branches_naive":...,"reduction":...,"choice_points":...,
//    "sleep_pruned":...,"fingerprints":...,"violations":0},...],
//    "reduction_aggregate":...,"bug_caught":1,"bug_repro_choices":...,
//    "bug_replay_deterministic":1}
//
// --quick tightens the depth bounds for the CI smoke run (mc_smoke) but
// keeps every gate, including the naive-vs-reduced comparison.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "sim/mc/explorer.hpp"
#include "sim/mc/fixtures.hpp"

namespace ew::sim::mc {
namespace {

constexpr std::uint64_t kSeed = 0x5eed0901;

struct WorldRun {
  std::string name;
  Report reduced;
  Report naive;
};

WorldRun run_world(const std::string& name, const WorldFactory& factory,
                   Options opts) {
  WorldRun r;
  r.name = name;
  opts.reduce = true;
  r.reduced = Explorer(factory, opts).explore();
  opts.reduce = false;
  r.naive = Explorer(factory, opts).explore();
  return r;
}

int run(bool quick) {
  // Bounds per world: deep enough that every world has >= 1 fault placement
  // and a real interleaving fan-out, small enough that the naive comparison
  // run stays tractable.
  Options clique_opts;
  clique_opts.max_steps = quick ? 10 : 12;
  clique_opts.window = 8 * kSecond;
  Options gossip_opts;
  gossip_opts.max_steps = quick ? 8 : 10;
  gossip_opts.window = 12 * kSecond;
  Options sched_opts;
  sched_opts.max_steps = quick ? 8 : 10;
  sched_opts.window = 3 * kSecond;

  std::vector<WorldRun> runs;
  runs.push_back(run_world(
      "clique", [] { return make_clique_world(kSeed); }, clique_opts));
  runs.push_back(run_world(
      "gossip", [] { return make_gossip_world(kSeed); }, gossip_opts));
  runs.push_back(run_world(
      "sched", [] { return make_sched_world(kSeed, /*dedupe=*/true); },
      sched_opts));

  // The seeded bug: same scheduler world, clients opted out of the reply
  // cache.
  // Reduced exploration only — the repro length + determinism are the gate.
  Options bug_opts = sched_opts;
  bug_opts.stop_at_first_violation = true;
  Report bug = Explorer([] { return make_sched_world(kSeed, false); },
                        bug_opts)
                   .explore();

  std::uint64_t reduced_total = 0;
  std::uint64_t naive_total = 0;
  std::string worlds_json = "[";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const WorldRun& r = runs[i];
    reduced_total += r.reduced.branches;
    naive_total += r.naive.branches;
    bench::JsonWriter w;
    w.str("world", r.name)
        .u64("branches", r.reduced.branches)
        .u64("branches_naive", r.naive.branches)
        .f("reduction",
           r.reduced.branches
               ? static_cast<double>(r.naive.branches) /
                     static_cast<double>(r.reduced.branches)
               : 0.0,
           2)
        .u64("choice_points", r.reduced.choice_points)
        .u64("sleep_pruned", r.reduced.sleep_pruned)
        .u64("max_eligible", r.reduced.max_eligible)
        .u64("fingerprints", r.reduced.fingerprints.size())
        .u64("fingerprints_naive", r.naive.fingerprints.size())
        .u64("violations", r.reduced.violations.size());
    worlds_json += (i ? "," : "") + w.object();
  }
  worlds_json += "]";

  const double aggregate =
      reduced_total ? static_cast<double>(naive_total) /
                          static_cast<double>(reduced_total)
                    : 0.0;
  const bool bug_caught = !bug.violations.empty();
  const std::size_t repro_len =
      bug_caught ? bug.violations.front().repro.choices.size() : 0;
  const bool replay_ok =
      bug_caught && bug.violations.front().replay_deterministic;

  bench::JsonWriter w;
  w.raw("worlds", worlds_json)
      .u64("branches_reduced", reduced_total)
      .u64("branches_naive", naive_total)
      .f("reduction_aggregate", aggregate, 2)
      .u64("bug_caught", bug_caught ? 1 : 0)
      .u64("bug_branches", bug.branches)
      .u64("bug_repro_choices", repro_len)
      .u64("bug_replay_deterministic", replay_ok ? 1 : 0);
  if (bug_caught) {
    w.str("bug_repro", bug.violations.front().repro.to_string());
    w.str("bug_violation", bug.violations.front().messages.front());
  }
  bench::emit_json("mc_explore", w);

  int rc = 0;
  for (const WorldRun& r : runs) {
    if (!r.reduced.violations.empty()) {
      std::fprintf(stderr, "FAIL: %s world: %zu invariant violations:\n",
                   r.name.c_str(), r.reduced.violations.size());
      for (const Violation& v : r.reduced.violations) {
        for (const std::string& m : v.messages) {
          std::fprintf(stderr, "  %s\n", m.c_str());
        }
        std::fprintf(stderr, "  repro: %s\n", v.repro.to_string().c_str());
      }
      rc = 1;
    }
    if (r.reduced.branch_cap_hit || r.naive.branch_cap_hit) {
      std::fprintf(stderr, "FAIL: %s world hit the branch cap\n",
                   r.name.c_str());
      rc = 1;
    }
    // The reduced run must not have missed outcomes the naive run saw.
    for (std::uint64_t fp : r.naive.fingerprints) {
      if (!r.reduced.fingerprints.contains(fp)) {
        std::fprintf(stderr,
                     "FAIL: %s world: naive found an end state the reduced "
                     "run missed\n",
                     r.name.c_str());
        rc = 1;
        break;
      }
    }
  }
  if (aggregate < 5.0) {
    std::fprintf(stderr, "FAIL: sleep-set reduction only %.2fx (gate 5x)\n",
                 aggregate);
    rc = 1;
  }
  if (!bug_caught) {
    std::fprintf(stderr, "FAIL: seeded no-dedupe bug not caught\n");
    rc = 1;
  } else {
    if (repro_len > 20) {
      std::fprintf(stderr, "FAIL: bug repro has %zu choices (gate 20)\n",
                   repro_len);
      rc = 1;
    }
    if (!replay_ok) {
      std::fprintf(stderr, "FAIL: bug repro did not replay deterministically\n");
      rc = 1;
    }
  }
  return rc;
}

}  // namespace
}  // namespace ew::sim::mc

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  return ew::sim::mc::run(quick);
}
