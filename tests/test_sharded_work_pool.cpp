// Tests for the range-sharded work pool router: residue-class ownership,
// batch routing, global frontier stealing, and per-shard checkpointing.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/sharded_work_pool.hpp"

namespace ew::core {
namespace {

ShardedWorkPool::Options sharded(std::uint32_t shards) {
  ShardedWorkPool::Options o;
  o.pool.n = 10;
  o.pool.k = 4;
  o.pool.seed_base = 7;
  o.pool.max_idle_frontier = 64;
  o.shards = shards;
  return o;
}

ramsey::WorkReport report_for(std::uint64_t unit, std::uint64_t energy) {
  ramsey::WorkReport r;
  r.unit_id = unit;
  r.ops_done = 1000;
  r.best_energy = energy;
  Rng rng(unit + 1);
  r.best_graph = ramsey::ColoredGraph::random(10, rng).serialize();
  return r;
}

TEST(ShardedWorkPool, ResidueClassOwnershipAndRoundRobinMinting) {
  ShardedWorkPool pool(sharded(4));
  const auto specs = pool.issue_many(8);
  ASSERT_EQ(specs.size(), 8u);
  std::set<std::uint64_t> ids;
  for (const auto& s : specs) {
    ids.insert(s.unit_id);
    EXPECT_EQ(pool.owner_of(s.unit_id), (s.unit_id - 1) % 4);
  }
  EXPECT_EQ(ids.size(), 8u) << "no id issued twice";
  // Fresh mints rotate: two per shard.
  for (std::uint32_t k = 0; k < 4; ++k) {
    EXPECT_EQ(pool.shard(k).units_issued(), 2u);
    EXPECT_EQ(pool.shard(k).assigned_count(), 2u);
  }
  EXPECT_EQ(pool.assigned_count(), 8u);
  EXPECT_EQ(pool.units_issued(), 8u);
  EXPECT_EQ(pool.steals(), 0u);
}

TEST(ShardedWorkPool, BatchReportAndReclaimRouteToOwningShards) {
  ShardedWorkPool pool(sharded(4));
  const auto specs = pool.issue_many(8);
  std::vector<ramsey::WorkReport> reps;
  std::vector<std::uint64_t> ids;
  for (const auto& s : specs) {
    reps.push_back(report_for(s.unit_id, 10 + s.unit_id));
    ids.push_back(s.unit_id);
  }
  for (const auto& rep : reps) pool.report(rep);
  for (auto id : ids) {
    EXPECT_EQ(*pool.best_energy(id), 10 + id);
    EXPECT_EQ(*pool.shard(pool.owner_of(id)).best_energy(id), 10 + id);
  }
  pool.reclaim_many(ids);
  EXPECT_EQ(pool.assigned_count(), 0u);
  EXPECT_EQ(pool.idle_frontier_size(), 8u);
}

TEST(ShardedWorkPool, IssuePrefersGlobalBestFrontierAndCountsSteals) {
  ShardedWorkPool pool(sharded(2));
  const auto specs = pool.issue_many(2);  // id 1 on shard 0, id 2 on shard 1
  ASSERT_EQ(specs.size(), 2u);
  pool.report(report_for(1, 50));
  pool.report(report_for(2, 5));
  pool.reclaim_many(std::vector<std::uint64_t>{1, 2});
  // Mint cursor is back on shard 0; the best frontier unit lives on shard 1.
  const auto stolen = pool.issue_many(1);
  ASSERT_EQ(stolen.size(), 1u);
  EXPECT_EQ(stolen.front().unit_id, 2u);
  EXPECT_EQ(pool.steals(), 1u);
  // Next issue drains shard 0's own frontier: no steal.
  const auto own = pool.issue_many(1);
  EXPECT_EQ(own.front().unit_id, 1u);
  EXPECT_EQ(pool.steals(), 1u);
}

TEST(ShardedWorkPool, AssignedUnitsAggregatedSorted) {
  ShardedWorkPool pool(sharded(3));
  (void)pool.issue_many(7);
  const auto ids = pool.assigned_units();
  ASSERT_EQ(ids.size(), 7u);
  EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
  EXPECT_TRUE(std::adjacent_find(ids.begin(), ids.end()) == ids.end());
}

TEST(ShardedWorkPool, PerShardCheckpointReplaysOnlyOwnRange) {
  ShardedWorkPool a(sharded(2));
  const auto specs = a.issue_many(4);  // ids 1..4 across both shards
  std::vector<ramsey::WorkReport> reps;
  for (const auto& s : specs) reps.push_back(report_for(s.unit_id, 30 + s.unit_id));
  for (const auto& rep : reps) a.report(rep);
  ASSERT_TRUE(a.shard_dirty(0));
  ASSERT_TRUE(a.shard_dirty(1));
  const Bytes blob0 = a.export_shard(0);
  const Bytes blob1 = a.export_shard(1);
  EXPECT_FALSE(a.shard_dirty(0)) << "export clears the dirty flag";

  ShardedWorkPool b(sharded(2));
  // Importing a shard's own blob replays its units; a foreign shard's blob
  // contains only ids outside the residue class and replays nothing.
  EXPECT_EQ(b.import_shard(0, blob0), 2u);
  EXPECT_EQ(b.import_shard(0, blob1), 0u);
  EXPECT_EQ(b.import_shard(1, blob1), 2u);
  EXPECT_EQ(b.idle_frontier_size(), 4u);
  // Restored units are re-issued, never re-minted under a new id.
  const auto reissued = b.issue_many(4);
  std::set<std::uint64_t> ids;
  for (const auto& s : reissued) ids.insert(s.unit_id);
  EXPECT_EQ(ids, (std::set<std::uint64_t>{1, 2, 3, 4}));
}

TEST(ShardedWorkPool, SingleShardMatchesPlainWorkPoolBitForBit) {
  // shards == 1 must be a transparent wrapper: the same operation sequence
  // against a plain WorkPool leaves bit-identical exported state.
  WorkPool::Options po = sharded(1).pool;
  WorkPool plain(po);
  ShardedWorkPool routed(sharded(1));
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 5; ++i) {
    const auto a = plain.acquire();
    const auto b = routed.issue_many(1).front();
    ASSERT_EQ(a.unit_id, b.unit_id);
    ASSERT_EQ(a.seed, b.seed);
    ids.push_back(a.unit_id);
  }
  std::vector<ramsey::WorkReport> reps;
  for (auto id : ids) reps.push_back(report_for(id, 40 + 3 * id));
  for (const auto& rep : reps) plain.report(rep);
  for (const auto& rep : reps) routed.report(rep);
  plain.release_many(ids);
  routed.reclaim_many(ids);
  EXPECT_EQ(plain.export_frontier(), routed.shard(0).export_frontier());
  EXPECT_EQ(plain.units_issued(), routed.units_issued());
  EXPECT_EQ(plain.idle_frontier_size(), routed.idle_frontier_size());
}

TEST(ShardedWorkPool, IssueUnitRoutesMigrationReissue) {
  ShardedWorkPool pool(sharded(3));
  const auto specs = pool.issue_many(3);
  const auto id = specs[1].unit_id;
  const auto handed = pool.issue_unit(id);  // assigned: handed over in place
  ASSERT_TRUE(handed.has_value());
  EXPECT_EQ(handed->unit_id, id);
  EXPECT_EQ(pool.assigned_count(), 3u);
  const ramsey::WorkReport rep = report_for(id, 9);
  pool.report(rep);
  pool.reclaim_many({&id, 1});
  const auto again = pool.issue_unit(id);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->unit_id, id);
  EXPECT_TRUE(pool.assigned(id));
}

}  // namespace
}  // namespace ew::core
