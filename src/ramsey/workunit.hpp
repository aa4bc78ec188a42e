// Work units: the scheduler's currency (paper Sections 3.1, 3.1.1).
//
// A WorkSpec tells a computational client which subproblem to attack (graph
// order, forbidden clique size), with which heuristic, from which seed, and
// for how many integer operations per reporting quantum. A WorkReport is
// what the client sends back with each progress report; the scheduler feeds
// the reported rate to the forecasters and the logging service records it.
// Both are wire-encoded with the lingua franca codec (common/wire.hpp).
#pragma once

#include <cstdint>
#include <optional>

#include "common/result.hpp"
#include "common/serialize.hpp"
#include "common/wire.hpp"
#include "ramsey/graph.hpp"
#include "ramsey/heuristic.hpp"

namespace ew::ramsey {

/// Upper bound on the serialized-graph blobs carried inside WorkSpec.resume
/// and WorkReport.best_graph: the largest ColoredGraph wire image. Anything
/// larger is rejected so a hostile frame cannot make the decoder balloon.
constexpr std::size_t kMaxGraphBlob = ColoredGraph::kMaxImage;

/// A schedulable slice of the Ramsey search.
struct WorkSpec {
  std::uint64_t unit_id = 0;
  int n = 17;                       // graph order to search
  int k = 4;                        // forbidden clique size
  HeuristicKind kind = HeuristicKind::kGreedy;
  std::uint64_t seed = 1;           // search stream seed
  std::uint64_t report_ops = 50'000'000;  // ops per progress report
  std::optional<ColoredGraph> resume;     // migrated in-progress coloring

  template <class Ar>
  void fields(Ar& ar) {
    ar(unit_id, wire::as<std::uint8_t>(n), wire::as<std::uint8_t>(k), kind, seed,
       report_ops, resume);
  }
  [[nodiscard]] Bytes serialize() const { return wire::encode(*this); }
  static Result<WorkSpec> deserialize(const Bytes& data) {
    return wire::decode<WorkSpec>(data);
  }
};

/// Progress report from a client to its scheduler.
struct WorkReport {
  std::uint64_t unit_id = 0;
  std::uint64_t ops_done = 0;       // ops since the previous report
  std::uint64_t best_energy = 0;
  bool found = false;               // best graph is a counter-example
  Bytes best_graph;                 // serialized ColoredGraph (may be empty)

  template <class Ar>
  void fields(Ar& ar) {
    ar(unit_id, ops_done, best_energy, found, best_graph);
  }
  [[nodiscard]] Status validate() const {
    return wire::check(best_graph.size() <= kMaxGraphBlob, "oversized best graph");
  }
  [[nodiscard]] Bytes serialize() const { return wire::encode(*this); }
  static Result<WorkReport> deserialize(const Bytes& data) {
    return wire::decode<WorkReport>(data);
  }
};

}  // namespace ew::ramsey
