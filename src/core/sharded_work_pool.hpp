// Range-sharded work pool: N WorkPool shards behind a thin router.
//
// Shard s of N owns the unit-id residue class { s+1, s+1+N, s+1+2N, ... }, so
// ownership is a modulo — no directory, no rebalancing metadata — and a
// restarted shard can re-import only its own slice of the frontier. Issue
// and reclaim are *batch* entry points (issue_many / reclaim_many) sized for
// whole directive batches; a report routes straight to its owning shard, so
// the scheduler absorbs each report with one table lookup.
//
// Frontier reuse is global: issue_many() always prefers the best (lowest
// energy) idle frontier unit across ALL shards over minting fresh work, and
// fresh mints rotate round-robin. Pulling a frontier unit out of turn is the
// router's work-stealing — a shard whose clients died (Condor eviction
// churn) has its orphaned frontier drained by whoever asks next — and is
// counted in steals().
//
// With shards == 1 the router is a transparent wrapper: every operation maps
// 1:1 onto a plain WorkPool, bit-identically (pinned by test).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/work_pool.hpp"

namespace ew::core {

class ShardedWorkPool {
 public:
  struct Options {
    WorkPool::Options pool;     // per-shard template (first_id/id_stride set here)
    std::uint32_t shards = 1;   // number of range-shards
  };

  explicit ShardedWorkPool(Options opts);

  /// Which shard owns this unit id.
  [[nodiscard]] std::uint32_t owner_of(std::uint64_t unit_id) const;

  /// Issue n units: globally best frontier units first, then fresh mints
  /// rotated across shards.
  std::vector<ramsey::WorkSpec> issue_many(std::size_t n);
  /// Issue one specific unit, idle or assigned (migration path; see
  /// WorkPool::acquire_unit).
  std::optional<ramsey::WorkSpec> issue_unit(std::uint64_t unit_id);
  /// Apply one progress report, routed to the owning shard; returns the
  /// unit's state before it (WorkPool::report).
  std::optional<WorkPool::Prior> report(const ramsey::WorkReport& rep);
  /// Release a batch of units (client dead, revoked, or re-registered);
  /// each shard trims its idle frontier once.
  void reclaim_many(std::span<const std::uint64_t> ids);

  void set_kind_chooser(WorkPool::KindChooser chooser);

  [[nodiscard]] bool assigned(std::uint64_t unit_id) const;
  [[nodiscard]] std::optional<std::uint64_t> best_energy(std::uint64_t unit_id) const;
  [[nodiscard]] std::size_t idle_frontier_size() const;
  [[nodiscard]] std::vector<std::uint64_t> assigned_units() const;
  [[nodiscard]] std::size_t assigned_count() const;
  [[nodiscard]] std::size_t units_issued() const;
  [[nodiscard]] const WorkPool::Options& options() const {
    return shards_.front().options();
  }

  [[nodiscard]] std::uint32_t shard_count() const {
    return static_cast<std::uint32_t>(shards_.size());
  }
  [[nodiscard]] const WorkPool& shard(std::uint32_t k) const {
    return shards_[k];
  }
  /// Frontier units pulled from a shard out of mint rotation — cross-shard
  /// work-stealing events.
  [[nodiscard]] std::uint64_t steals() const { return steals_; }

  /// Incremental checkpoint surface: per-shard dirty flags and export/import
  /// so a scheduler checkpoints one changed shard at a time and a restarted
  /// shard replays only its own range.
  [[nodiscard]] bool shard_dirty(std::uint32_t k) const {
    return shards_[k].dirty();
  }
  [[nodiscard]] Bytes export_shard(std::uint32_t k);
  std::size_t import_shard(std::uint32_t k, const Bytes& blob);

 private:
  std::vector<WorkPool> shards_;
  std::uint32_t mint_cursor_ = 0;  // round-robin shard for fresh mints
  std::uint64_t steals_ = 0;
};

}  // namespace ew::core
