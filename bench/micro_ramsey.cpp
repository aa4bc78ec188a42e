// Microbenchmark for the Ramsey kernels: clique counting, flip deltas,
// heuristic move throughput — the "useful work" whose instrumented ops the
// whole evaluation counts — plus the graph image codec and the persistent
// state manager's counter-example check.
//
// The ns and ops/s numbers are informational. The shape checks are
// deterministic and always enforced: the Paley(17) graph is a K4-free
// counter-example, a graph image round-trips, and every heuristic does work.
// Emits ONE machine-readable JSON line (see EXPERIMENTS.md,
// "Microbenchmarks"):
//
//   {"bench":"micro_ramsey","iters":...,
//    "ns_count_bad_cliques_17_4":...,"ns_count_bad_cliques_25_4":...,
//    "ns_count_bad_cliques_42_5":...,"ns_count_bad_cliques_64_5":...,
//    "ns_flip_delta_17_4":...,"ns_flip_delta_42_5":...,
//    "ops_per_s_greedy":...,"ops_per_s_tabu":...,"ops_per_s_anneal":...,
//    "ns_graph_serialize_42":...,"ns_graph_deserialize_42":...,
//    "ns_is_counterexample_paley17":...,"checksum":...}
#include <chrono>
#include <cstdio>
#include <cstring>

#include "bench/bench_util.hpp"
#include "common/rng.hpp"
#include "ramsey/clique.hpp"
#include "ramsey/heuristic.hpp"

namespace ew::ramsey {
namespace {

double now_ns() {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Timed {
  double ns_per_op = 0;
  double checksum = 0;  // defeats dead-code elimination
};

template <typename F>
Timed time_op(std::size_t iters, F&& op) {
  Timed t;
  const double t0 = now_ns();
  for (std::size_t i = 0; i < iters; ++i) t.checksum += static_cast<double>(op(i));
  t.ns_per_op = (now_ns() - t0) / static_cast<double>(iters);
  return t;
}

Timed count_bad(std::size_t iters, int n, int k) {
  Rng rng(1);
  const ColoredGraph g = ColoredGraph::random(n, rng);
  return time_op(iters, [&](std::size_t) {
    OpsCounter ops;
    return count_bad_cliques(g, k, ops) + ops.ops;
  });
}

Timed flip(std::size_t iters, int n, int k) {
  Rng rng(2);
  const ColoredGraph g = ColoredGraph::random(n, rng);
  const auto un = static_cast<std::size_t>(n);
  return time_op(iters, [&](std::size_t i) {
    const int a = static_cast<int>(i % un);
    const int b = static_cast<int>((i % un + 1 + (i / un) % (un - 1)) % un);
    OpsCounter ops;
    return flip_delta(g, k, a, b, ops);
  });
}

/// Native instrumented-op rate of one heuristic: the per-host calibration
/// number behind the simulator's ops accounting.
double heuristic_ops_per_s(HeuristicKind kind, std::size_t rounds, bool& worked) {
  HeuristicParams p;
  p.n = 42;
  p.k = 5;
  p.seed = 3;
  auto h = make_heuristic(kind, p);
  std::uint64_t ops = 0;
  const double t0 = now_ns();
  for (std::size_t i = 0; i < rounds; ++i) ops += h->run(1'000'000).ops_used;
  const double secs = (now_ns() - t0) / 1e9;
  worked = worked && ops > 0;
  return static_cast<double>(ops) / secs;
}

}  // namespace
}  // namespace ew::ramsey

int main(int argc, char** argv) {
  using namespace ew;
  using namespace ew::ramsey;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  const std::size_t kIters = quick ? 200 : 20'000;
  const std::size_t kRounds = quick ? 1 : 20;

  const Timed c17 = count_bad(kIters, 17, 4);
  const Timed c25 = count_bad(kIters, 25, 4);
  const Timed c42 = count_bad(kIters / 10, 42, 5);
  const Timed c64 = count_bad(kIters / 100, 64, 5);
  const Timed f17 = flip(kIters * 10, 17, 4);
  const Timed f42 = flip(kIters * 10, 42, 5);

  bool worked = true;
  const double greedy = heuristic_ops_per_s(HeuristicKind::kGreedy, kRounds, worked);
  const double tabu = heuristic_ops_per_s(HeuristicKind::kTabu, kRounds, worked);
  const double anneal = heuristic_ops_per_s(HeuristicKind::kAnneal, kRounds, worked);

  Rng rng(4);
  const ColoredGraph g42 = ColoredGraph::random(42, rng);
  const Bytes image = g42.serialize();
  const Timed ser = time_op(kIters * 10, [&](std::size_t) { return g42.serialize().size(); });
  const Timed de = time_op(kIters * 10, [&](std::size_t) {
    return ColoredGraph::deserialize(image).ok() ? 1 : 0;
  });
  const auto paley = ColoredGraph::paley(17);
  const Timed cx = time_op(kIters, [&](std::size_t) {
    return paley.ok() && is_counterexample(*paley, 4) ? 1 : 0;
  });

  const auto back = ColoredGraph::deserialize(image);
  const bool round_trips = back.ok() && *back == g42;
  const double checksum = c17.checksum + c25.checksum + c42.checksum + c64.checksum +
                          f17.checksum + f42.checksum + ser.checksum + de.checksum +
                          cx.checksum;

  bench::JsonWriter line;
  line.u64("iters", kIters)
      .f("ns_count_bad_cliques_17_4", c17.ns_per_op, 1)
      .f("ns_count_bad_cliques_25_4", c25.ns_per_op, 1)
      .f("ns_count_bad_cliques_42_5", c42.ns_per_op, 1)
      .f("ns_count_bad_cliques_64_5", c64.ns_per_op, 1)
      .f("ns_flip_delta_17_4", f17.ns_per_op, 1)
      .f("ns_flip_delta_42_5", f42.ns_per_op, 1)
      .g("ops_per_s_greedy", greedy)
      .g("ops_per_s_tabu", tabu)
      .g("ops_per_s_anneal", anneal)
      .f("ns_graph_serialize_42", ser.ns_per_op, 1)
      .f("ns_graph_deserialize_42", de.ns_per_op, 1)
      .f("ns_is_counterexample_paley17", cx.ns_per_op, 1)
      .g("checksum", checksum);
  bench::emit_json("micro_ramsey", line);

  bool ok = true;
  if (cx.checksum != static_cast<double>(kIters)) {
    std::fprintf(stderr, "micro_ramsey: Paley(17) is not a K4-free counter-example\n");
    ok = false;
  }
  if (!round_trips || de.checksum != static_cast<double>(kIters * 10)) {
    std::fprintf(stderr, "micro_ramsey: a graph image failed to round-trip\n");
    ok = false;
  }
  if (!worked) {
    std::fprintf(stderr, "micro_ramsey: a heuristic spent no ops\n");
    ok = false;
  }
  return ok ? 0 : 1;
}
