// Search heuristics for Ramsey counter-examples (paper Section 3).
//
// The paper's application "does not use exhaustive search, but rather
// requires careful dynamic scheduling": clients run heuristics over the
// space of two-colorings, pruning with energy = number of monochromatic
// k-cliques, and the schedulers choose which heuristic each client runs.
// Three heuristics are provided (the paper mentions "each of the
// heuristics" without specifying them; these are the standard trio for this
// problem): greedy local search with sideways moves, tabu search, and
// simulated annealing. All run under an explicit integer-operation budget so
// a work unit maps onto the simulator's time model.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "common/rng.hpp"
#include "ramsey/clique.hpp"
#include "ramsey/graph.hpp"

namespace ew::ramsey {

enum class HeuristicKind : std::uint8_t {
  kGreedy = 0,
  kTabu = 1,
  kAnneal = 2,
};
constexpr int enum_count(HeuristicKind) { return static_cast<int>(HeuristicKind::kAnneal) + 1; }

const char* heuristic_name(HeuristicKind k);

/// Outcome of running a heuristic for one ops budget.
struct StepOutcome {
  std::uint64_t ops_used = 0;
  std::uint64_t energy = 0;      // bad cliques in the current coloring
  std::uint64_t best_energy = 0; // best seen this run
  bool found = false;            // energy reached zero
  std::uint64_t moves = 0;       // edge flips applied
};

/// A resumable heuristic search over colorings of K_n for mono-K_k freedom.
class Heuristic {
 public:
  virtual ~Heuristic() = default;
  [[nodiscard]] virtual HeuristicKind kind() const = 0;

  /// Run until roughly `ops_budget` integer operations are consumed or a
  /// counter-example is found. Resumable: call repeatedly.
  virtual StepOutcome run(std::uint64_t ops_budget) = 0;

  /// The current coloring (the counter-example when found() is true).
  [[nodiscard]] virtual const ColoredGraph& current() const = 0;
  [[nodiscard]] virtual const ColoredGraph& best() const = 0;
  [[nodiscard]] virtual std::uint64_t best_energy() const = 0;
};

/// Shared parameters for all heuristic implementations.
struct HeuristicParams {
  int n = 17;            // graph order to search
  int k = 4;             // forbidden red clique size
  /// Forbidden blue clique size; 0 means "same as k" (the symmetric
  /// classical case the paper searches). Setting it differently searches
  /// the general R(k, k_blue) witness space, e.g. n=8, k=3, k_blue=4 finds
  /// the Wagner graph proving R(3,4) > 8.
  int k_blue = 0;
  std::uint64_t seed = 1;
  int sample_size = 8;        // candidate edges examined per move
  double sideways_prob = 0.3; // greedy: chance to accept a zero-delta move
  int tabu_tenure = 24;       // tabu: moves an edge stays forbidden
  double initial_temp = 2.5;  // annealing: starting temperature
  double cooling = 0.9997;    // annealing: geometric cooling per move
  double restart_temp = 1.2;  // annealing: reheat level on stagnation
  std::uint64_t stagnation_moves = 4000;  // restart trigger
};

/// Factory. The start coloring is random from `params.seed` unless `resume`
/// is provided (work migrated from another client resumes its graph).
std::unique_ptr<Heuristic> make_heuristic(HeuristicKind kind,
                                          const HeuristicParams& params,
                                          std::optional<ColoredGraph> resume = {});

}  // namespace ew::ramsey
