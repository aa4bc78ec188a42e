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
// bit-identical to the pre-sharding implementation. release_many amortizes
// the idle-frontier trim over a whole directive batch.
//
// Live units sit in a flat table keyed by their mint ordinal
// (id - first_id) / id_stride, so a progress report costs one probe into
// memory laid out in mint order (DESIGN.md §13).
#pragma once

#include <cstdint>
#include <functional>
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

  /// Issue a specific unit (scheduler migration path). An idle unit becomes
  /// assigned; an assigned unit is handed over as it stands and stays
  /// assigned, so no frontier trim can forget it in transit. Returns nullopt
  /// if the unit is unknown.
  std::optional<ramsey::WorkSpec> acquire_unit(std::uint64_t unit_id);

  /// What a unit was before a report touched it.
  struct Prior {
    ramsey::HeuristicKind kind = ramsey::HeuristicKind::kGreedy;
    std::optional<std::uint64_t> best_energy;  // nullopt until first report
  };
  /// Record a progress report for a unit (updates energy + resume state).
  /// Returns the unit's state before the report, or nullopt (and changes
  /// nothing) if the unit is unknown.
  std::optional<Prior> report(const ramsey::WorkReport& rep);

  /// The units' clients died or were preempted: make every id reassignable,
  /// then trim the idle frontier once.
  void release_many(std::span<const std::uint64_t> ids);

  /// True iff `unit_id` falls in this pool's id residue class.
  [[nodiscard]] bool owns(std::uint64_t unit_id) const;

  [[nodiscard]] bool assigned(std::uint64_t unit_id) const;
  [[nodiscard]] std::optional<std::uint64_t> best_energy(std::uint64_t unit_id) const;
  [[nodiscard]] std::size_t idle_frontier_size() const { return idle_.size(); }
  /// Best (energy, id) among idle frontier units, if any — what acquire()
  /// would reuse next. Lets a shard router pick the globally best frontier
  /// unit without scanning shard contents.
  [[nodiscard]] std::optional<std::pair<std::uint64_t, std::uint64_t>>
  peek_idle_best() const;
  /// Unit ids currently assigned to some client, ascending — the chaos
  /// invariant checker's notion of "legitimately still in flight" at trace
  /// end.
  [[nodiscard]] std::vector<std::uint64_t> assigned_units() const;
  [[nodiscard]] std::size_t assigned_count() const { return assigned_count_; }
  /// Number of units minted by THIS pool (imported foreign history excluded).
  [[nodiscard]] std::size_t units_issued() const {
    return static_cast<std::size_t>((next_id_ - opts_.first_id) /
                                    opts_.id_stride);
  }
  [[nodiscard]] const Options& options() const { return opts_; }
  /// Slots in the unit table: a power of two that follows the live unit
  /// count (units held, assigned or idle), not the ids ever minted.
  [[nodiscard]] std::size_t table_capacity() const { return units_.capacity(); }

  /// True when frontier content changed since the last clear_dirty() — the
  /// scheduler's incremental checkpointer only exports dirty shards.
  [[nodiscard]] bool dirty() const { return dirty_; }
  void clear_dirty() { dirty_ = false; }

  /// Checkpoint: every unit that has a resume coloring (assigned or idle),
  /// in id order, wire-encoded for the persistent state manager. A
  /// restarted scheduler imports this and re-issues the search from where
  /// it was, instead of from fresh random colorings — the soft state is
  /// soft, the *work* is not (Section 3.1.2's persistent class).
  [[nodiscard]] Bytes export_frontier() const;
  /// Merge a checkpoint: unknown units in OUR id range come back as idle,
  /// reassignable frontier entries; units outside the range are skipped, so
  /// a restarted shard can only ever replay its own slice of the frontier.
  /// Returns the number of units imported.
  std::size_t import_frontier(const Bytes& blob);

 private:
  struct Unit {
    std::uint64_t id = 0;  // 0 = empty slot (owned ids start at first_id >= 1)
    std::uint64_t seed = 0;
    std::uint64_t best_energy = ~0ULL;  // unknown until first report
    Bytes resume;  // latest serialized coloring; empty = restart from seed
    ramsey::HeuristicKind kind = ramsey::HeuristicKind::kGreedy;
    bool assigned = false;
  };

  /// Open-addressed table of the live units. A unit's home slot is its mint
  /// ordinal mod the power-of-two capacity, so successive mints fill
  /// successive slots. Collisions probe linearly in Robin Hood order (no
  /// unit sits further from its home than the unit it passed), which lets a
  /// miss stop at the first unit closer to home than the probe; deletes
  /// shift the following run back, so there are no tombstones. Capacity
  /// doubles when full, or when an insert probes long in a half-full table,
  /// and halves when 7/8 empty: memory follows the live count, whatever the
  /// ids.
  class UnitTable {
   public:
    UnitTable(std::uint64_t first_id, std::uint64_t id_stride)
        : first_id_(first_id), id_stride_(id_stride) {}

    [[nodiscard]] Unit* find(std::uint64_t id);
    [[nodiscard]] const Unit* find(std::uint64_t id) const;
    /// `u.id` must not be present.
    void insert(Unit u);
    /// `u` must be a live slot of this table; invalidates unit pointers.
    void erase(Unit& u);
    [[nodiscard]] std::size_t capacity() const { return slots_.size(); }
    template <class F>
    void for_each(F&& f) const {
      for (const Unit& u : slots_) {
        if (u.id != 0) f(u);
      }
    }

   private:
    [[nodiscard]] std::size_t home(std::uint64_t id) const {
      return static_cast<std::size_t>((id - first_id_) / id_stride_) &
             (slots_.size() - 1);
    }
    /// How far the unit in slot `i` sits past its home slot.
    [[nodiscard]] std::size_t distance(std::size_t i) const {
      return (i - home(slots_[i].id)) & (slots_.size() - 1);
    }
    /// Robin Hood insert without growth; returns the final probe length.
    std::size_t place(Unit u);
    void rehash(std::size_t capacity);

    std::uint64_t first_id_;
    std::uint64_t id_stride_;
    std::vector<Unit> slots_;
    std::size_t size_ = 0;
  };

  static Options normalized(Options opts);
  ramsey::WorkSpec spec_for(std::uint64_t id, const Unit& u) const;
  void release_one(std::uint64_t unit_id);
  void trim_idle();

  Options opts_;
  std::uint64_t next_id_ = 1;
  KindChooser chooser_;
  UnitTable units_;
  // Idle frontier index: (best_energy, id) for every unassigned unit with a
  // resume coloring. Keeps acquire() O(log N) instead of a full-table scan
  // and makes trim_idle() drop exactly the worst tail.
  std::set<std::pair<std::uint64_t, std::uint64_t>> idle_;
  std::size_t assigned_count_ = 0;
  bool dirty_ = false;
};

}  // namespace ew::core
