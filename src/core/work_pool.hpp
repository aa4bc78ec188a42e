// The scheduler's work pool.
//
// The Ramsey search space is unbounded (fresh heuristic streams are minted
// from new seeds at will) but not uniform: units that have already reached a
// low energy are "frontier" units worth keeping on fast machines. The pool
// tracks every unit ever issued, its best energy, and — crucial for the
// paper's migration story — the latest coloring reported for it, so that a
// unit reclaimed from a slow or dead client resumes on another machine
// instead of restarting (Section 3.1.1).
//
// A pool owns a *range* of unit ids: shard s of N mints ids from the residue
// class first_id + k * id_stride, and import_frontier refuses units outside
// that class, so a restarted shard replays only its own range. The default
// (first_id = 1, id_stride = 1) is the classic single-pool behavior,
// bit-identical to the pre-sharding implementation. Batch entry points
// (report_many / release_many) amortize the idle-frontier bookkeeping over a
// whole directive batch.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "ramsey/workunit.hpp"

namespace ew::core {

class WorkPool {
 public:
  struct Options {
    int n = 42;  // SC98 target: counter-examples for R5 on 42+ vertices
    int k = 5;
    std::uint64_t report_ops = 50'000'000;
    std::uint64_t seed_base = 0x5c98;
    std::size_t max_idle_frontier = 256;  // bound on retained unassigned units
    // Range-sharding parameters: this pool mints ids first_id, first_id +
    // id_stride, first_id + 2*id_stride, ... and owns exactly that residue
    // class. Defaults give the unsharded pool.
    std::uint64_t first_id = 1;
    std::uint64_t id_stride = 1;
  };

  explicit WorkPool(Options opts);

  /// Hand out a unit: the most promising idle frontier unit, else a fresh one.
  ramsey::WorkSpec acquire();

  /// Install the heuristic chooser for fresh units. Default: rotate the
  /// three kinds by unit id. The scheduler replaces this with its
  /// progress-driven policy ("servers are programmed to issue different
  /// control directives based on the type of algorithm", Section 3.1.1).
  using KindChooser = std::function<ramsey::HeuristicKind(std::uint64_t unit_id)>;
  void set_kind_chooser(KindChooser chooser) { chooser_ = std::move(chooser); }

  /// Re-issue a specific idle unit (scheduler migration path). Returns
  /// nullopt if the unit is unknown or already assigned.
  std::optional<ramsey::WorkSpec> acquire_unit(std::uint64_t unit_id);

  /// Record a progress report for a unit (updates energy + resume state).
  void report(const ramsey::WorkReport& rep);
  /// Batch variant: one report per touched unit, unknown ids skipped.
  void report_many(std::span<const ramsey::WorkReport> reps);

  /// The units' clients died or were preempted: make every id reassignable,
  /// then trim the idle frontier once.
  void release_many(std::span<const std::uint64_t> ids);

  /// True iff `unit_id` falls in this pool's id residue class.
  [[nodiscard]] bool owns(std::uint64_t unit_id) const;

  [[nodiscard]] bool assigned(std::uint64_t unit_id) const;
  [[nodiscard]] std::optional<std::uint64_t> best_energy(std::uint64_t unit_id) const;
  [[nodiscard]] std::optional<ramsey::HeuristicKind> unit_kind(std::uint64_t unit_id) const;
  [[nodiscard]] std::size_t idle_frontier_size() const { return idle_.size(); }
  /// Best (energy, id) among idle frontier units, if any — what acquire()
  /// would reuse next. Lets a shard router pick the globally best frontier
  /// unit without scanning shard contents.
  [[nodiscard]] std::optional<std::pair<std::uint64_t, std::uint64_t>>
  peek_idle_best() const;
  /// Unit ids currently assigned to some client — the chaos invariant
  /// checker's notion of "legitimately still in flight" at trace end.
  [[nodiscard]] std::vector<std::uint64_t> assigned_units() const;
  [[nodiscard]] std::size_t assigned_count() const { return assigned_count_; }
  /// Number of units minted by THIS pool (imported foreign history excluded).
  [[nodiscard]] std::size_t units_issued() const {
    return static_cast<std::size_t>((next_id_ - opts_.first_id) /
                                    opts_.id_stride);
  }
  [[nodiscard]] const Options& options() const { return opts_; }

  /// True when frontier content changed since the last clear_dirty() — the
  /// scheduler's incremental checkpointer only exports dirty shards.
  [[nodiscard]] bool dirty() const { return dirty_; }
  void clear_dirty() { dirty_ = false; }

  /// Checkpoint: every unit that has a resume coloring (assigned or idle),
  /// wire-encoded for the persistent state manager. A restarted scheduler
  /// imports this and re-issues the search from where it was, instead of
  /// from fresh random colorings — the soft state is soft, the *work* is
  /// not (Section 3.1.2's persistent class).
  [[nodiscard]] Bytes export_frontier() const;
  /// Merge a checkpoint: unknown units in OUR id range come back as idle,
  /// reassignable frontier entries; units outside the range are skipped, so
  /// a restarted shard can only ever replay its own slice of the frontier.
  /// Returns the number of units imported.
  std::size_t import_frontier(const Bytes& blob);

 private:
  struct Unit {
    std::uint64_t seed = 0;
    std::uint64_t best_energy = ~0ULL;  // unknown until first report
    bool assigned = false;
    ramsey::HeuristicKind kind = ramsey::HeuristicKind::kGreedy;
    Bytes resume;  // latest serialized coloring; empty = restart from seed
  };

  ramsey::WorkSpec spec_for(std::uint64_t id, const Unit& u) const;
  void report_one(const ramsey::WorkReport& rep);
  void release_one(std::uint64_t unit_id);
  void trim_idle();

  Options opts_;
  std::uint64_t next_id_ = 1;
  KindChooser chooser_;
  std::map<std::uint64_t, Unit> units_;
  // Idle frontier index: (best_energy, id) for every unassigned unit with a
  // resume coloring. Keeps acquire() O(log N) instead of a full-map scan and
  // makes trim_idle() drop exactly the worst tail.
  std::set<std::pair<std::uint64_t, std::uint64_t>> idle_;
  std::size_t assigned_count_ = 0;
  bool dirty_ = false;
};

}  // namespace ew::core
