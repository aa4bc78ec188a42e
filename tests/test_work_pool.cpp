// Tests for the scheduler's work pool: acquisition, frontier preference,
// resume-on-release, and footprint bounding.
#include <gtest/gtest.h>

#include <array>

#include "core/work_pool.hpp"

namespace ew::core {
namespace {

WorkPool::Options small_pool() {
  WorkPool::Options o;
  o.n = 10;
  o.k = 4;
  o.seed_base = 7;
  o.max_idle_frontier = 4;
  return o;
}

ramsey::WorkReport report_for(std::uint64_t unit, std::uint64_t energy,
                              int n = 10) {
  ramsey::WorkReport r;
  r.unit_id = unit;
  r.ops_done = 1000;
  r.best_energy = energy;
  Rng rng(unit + 1);
  r.best_graph = ramsey::ColoredGraph::random(n, rng).serialize();
  return r;
}

/// A checkpoint in export_frontier's layout holding the given ids, each
/// with a valid order-10 resume coloring and energy 100 + its index.
Bytes checkpoint_of(const std::vector<std::uint64_t>& ids) {
  Writer w;
  w.u32(static_cast<std::uint32_t>(ids.size()));
  for (std::size_t i = 0; i < ids.size(); ++i) {
    w.u64(ids[i]);
    w.u64(ids[i] + 1);
    w.u8(0);
    w.u64(100 + i);
    Rng rng(i + 1);
    w.blob(ramsey::ColoredGraph::random(10, rng).serialize());
  }
  return w.take();
}

TEST(WorkPool, FreshUnitsHaveIncreasingIds) {
  WorkPool pool(small_pool());
  const auto a = pool.acquire();
  const auto b = pool.acquire();
  EXPECT_LT(a.unit_id, b.unit_id);
  EXPECT_EQ(a.n, 10);
  EXPECT_EQ(a.k, 4);
  EXPECT_FALSE(a.resume.has_value());
  EXPECT_EQ(pool.units_issued(), 2u);
}

TEST(WorkPool, HeuristicKindsRotate) {
  WorkPool pool(small_pool());
  std::set<ramsey::HeuristicKind> kinds;
  for (int i = 0; i < 3; ++i) kinds.insert(pool.acquire().kind);
  EXPECT_EQ(kinds.size(), 3u);
}

TEST(WorkPool, ReleasedReportedUnitResumesWithColoring) {
  WorkPool pool(small_pool());
  const auto spec = pool.acquire();
  pool.report(report_for(spec.unit_id, 25));
  pool.release_many(std::array{spec.unit_id});
  EXPECT_EQ(pool.idle_frontier_size(), 1u);
  const auto again = pool.acquire();
  EXPECT_EQ(again.unit_id, spec.unit_id);
  ASSERT_TRUE(again.resume.has_value());
  EXPECT_EQ(again.resume->order(), 10);
}

TEST(WorkPool, ReleasedUnreportedUnitIsForgotten) {
  WorkPool pool(small_pool());
  const auto spec = pool.acquire();
  pool.release_many(std::array{spec.unit_id});
  EXPECT_EQ(pool.idle_frontier_size(), 0u);
  const auto next = pool.acquire();
  EXPECT_NE(next.unit_id, spec.unit_id);
}

TEST(WorkPool, AcquirePrefersLowestEnergyFrontier) {
  WorkPool pool(small_pool());
  const auto a = pool.acquire();
  const auto b = pool.acquire();
  pool.report(report_for(a.unit_id, 50));
  pool.report(report_for(b.unit_id, 5));
  pool.release_many(std::array{a.unit_id});
  pool.release_many(std::array{b.unit_id});
  EXPECT_EQ(pool.acquire().unit_id, b.unit_id);
}

TEST(WorkPool, AcquireUnitHandsOverAssignedUnit) {
  WorkPool pool(small_pool());
  const auto spec = pool.acquire();
  // An assigned unit is handed over as it stands: same spec, still assigned,
  // counted once.
  const auto handed = pool.acquire_unit(spec.unit_id);
  ASSERT_TRUE(handed.has_value());
  EXPECT_EQ(handed->unit_id, spec.unit_id);
  EXPECT_EQ(handed->seed, spec.seed);
  EXPECT_EQ(handed->kind, spec.kind);
  EXPECT_TRUE(pool.assigned(spec.unit_id));
  EXPECT_EQ(pool.assigned_count(), 1u);
  // An idle unit becomes assigned.
  pool.report(report_for(spec.unit_id, 9));
  pool.release_many(std::array{spec.unit_id});
  const auto again = pool.acquire_unit(spec.unit_id);
  ASSERT_TRUE(again.has_value());
  EXPECT_TRUE(pool.assigned(spec.unit_id));
  EXPECT_FALSE(pool.acquire_unit(999).has_value());  // unknown
}

TEST(WorkPool, BestEnergyTracksMinimum) {
  WorkPool pool(small_pool());
  const auto spec = pool.acquire();
  EXPECT_FALSE(pool.best_energy(spec.unit_id).has_value());  // no report yet
  pool.report(report_for(spec.unit_id, 30));
  pool.report(report_for(spec.unit_id, 40));  // worse: ignored
  EXPECT_EQ(*pool.best_energy(spec.unit_id), 30u);
  pool.report(report_for(spec.unit_id, 10));
  EXPECT_EQ(*pool.best_energy(spec.unit_id), 10u);
}

TEST(WorkPool, IdleFrontierBounded) {
  WorkPool pool(small_pool());  // cap 4
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 10; ++i) {
    const auto spec = pool.acquire();
    ids.push_back(spec.unit_id);
  }
  for (std::size_t i = 0; i < ids.size(); ++i) {
    pool.report(report_for(ids[i], 100 - i));  // later units are better
    pool.release_many(std::array{ids[i]});
  }
  EXPECT_LE(pool.idle_frontier_size(), 4u);
  // The survivors are the best (lowest-energy) units.
  const auto best = pool.acquire();
  EXPECT_EQ(best.unit_id, ids.back());
}

TEST(WorkPool, ReportForUnknownUnitIgnored) {
  WorkPool pool(small_pool());
  pool.report(report_for(424242, 1));
  EXPECT_EQ(pool.idle_frontier_size(), 0u);
}

TEST(WorkPool, IdZeroNamesNoUnit) {
  // Id 0 marks an empty table slot, so no call naming it may find one:
  // a report for it, even with a coloring, changes nothing.
  WorkPool pool(small_pool());
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 6; ++i) ids.push_back(pool.acquire().unit_id);
  pool.report(report_for(ids[0], 50));
  pool.report(report_for(ids[1], 40));
  pool.release_many(std::array{ids[0], ids[2]});  // ids[0] idle, ids[2] gone
  const Bytes frontier = pool.export_frontier();
  const auto assigned = pool.assigned_units();
  ASSERT_EQ(pool.idle_frontier_size(), 1u);

  EXPECT_FALSE(pool.report(report_for(0, 1)).has_value());
  EXPECT_FALSE(pool.assigned(0));
  EXPECT_FALSE(pool.best_energy(0).has_value());
  EXPECT_FALSE(pool.acquire_unit(0).has_value());
  pool.release_many(std::array<std::uint64_t, 1>{0});
  EXPECT_EQ(pool.export_frontier(), frontier);
  EXPECT_EQ(pool.assigned_units(), assigned);
  EXPECT_EQ(pool.idle_frontier_size(), 1u);
  // The pool goes on as before: the idle unit, then a fresh mint.
  EXPECT_EQ(pool.acquire().unit_id, ids[0]);
  EXPECT_EQ(pool.acquire().unit_id, ids.back() + 1);
}

TEST(WorkPool, FrontierExportImportRoundTrip) {
  WorkPool a(small_pool());
  const auto s1 = a.acquire();
  const auto s2 = a.acquire();
  a.report(report_for(s1.unit_id, 25));
  a.report(report_for(s2.unit_id, 7));
  const Bytes checkpoint = a.export_frontier();

  WorkPool b(small_pool());
  EXPECT_EQ(b.import_frontier(checkpoint), 2u);
  EXPECT_EQ(b.idle_frontier_size(), 2u);
  // The most promising unit comes back first, with its coloring and kind.
  const auto resumed = b.acquire();
  EXPECT_EQ(resumed.unit_id, s2.unit_id);
  EXPECT_EQ(resumed.kind, s2.kind);
  ASSERT_TRUE(resumed.resume.has_value());
  // Fresh units issued after import do not collide with imported ids.
  (void)b.acquire();  // consume the second frontier unit
  const auto fresh2 = b.acquire();
  EXPECT_GT(fresh2.unit_id, std::max(s1.unit_id, s2.unit_id));
}

TEST(WorkPool, ImportIgnoresGarbageAndWrongOrder) {
  WorkPool pool(small_pool());
  EXPECT_EQ(pool.import_frontier(Bytes{1, 2, 3}), 0u);
  // A checkpoint whose resume graphs have the wrong order is skipped.
  WorkPool::Options other = small_pool();
  other.n = 14;
  WorkPool donor(other);
  const auto s = donor.acquire();
  ramsey::WorkReport rep;
  rep.unit_id = s.unit_id;
  rep.best_energy = 3;
  Rng rng(1);
  rep.best_graph = ramsey::ColoredGraph::random(14, rng).serialize();
  donor.report(rep);
  EXPECT_EQ(pool.import_frontier(donor.export_frontier()), 0u);
}

TEST(WorkPool, ImportDoesNotOverrideLiveUnits) {
  WorkPool pool(small_pool());
  const auto live = pool.acquire();
  pool.report(report_for(live.unit_id, 9));
  const Bytes checkpoint = pool.export_frontier();
  // The unit is still assigned; importing its own checkpoint is a no-op.
  EXPECT_EQ(pool.import_frontier(checkpoint), 0u);
  EXPECT_TRUE(pool.assigned(live.unit_id));
}

TEST(WorkPool, CustomKindChooserUsedForFreshUnits) {
  WorkPool pool(small_pool());
  pool.set_kind_chooser(
      [](std::uint64_t) { return ramsey::HeuristicKind::kAnneal; });
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(pool.acquire().kind, ramsey::HeuristicKind::kAnneal);
  }
}

TEST(WorkPool, SpecSeedsDifferPerUnit) {
  WorkPool pool(small_pool());
  const auto a = pool.acquire();
  const auto b = pool.acquire();
  EXPECT_NE(a.seed, b.seed);
}

TEST(WorkPool, StridedPoolMintsOnlyItsResidueClass) {
  WorkPool::Options o = small_pool();
  o.first_id = 2;
  o.id_stride = 3;
  WorkPool pool(o);
  for (int i = 0; i < 5; ++i) {
    const auto spec = pool.acquire();
    EXPECT_EQ((spec.unit_id - 2) % 3, 0u);
    EXPECT_TRUE(pool.owns(spec.unit_id));
  }
  EXPECT_EQ(pool.units_issued(), 5u);
  EXPECT_FALSE(pool.owns(1));
  EXPECT_FALSE(pool.owns(3));
  EXPECT_TRUE(pool.owns(2));
  EXPECT_TRUE(pool.owns(5));
}

TEST(WorkPool, ImportFiltersForeignIds) {
  // A shard only replays its own id range from a checkpoint: units outside
  // the residue class are someone else's and must be skipped.
  WorkPool donor(small_pool());  // stride 1: mints ids 1, 2, 3, ...
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 4; ++i) ids.push_back(donor.acquire().unit_id);
  for (auto id : ids) donor.report(report_for(id, 20 + id));
  const Bytes checkpoint = donor.export_frontier();

  WorkPool::Options o = small_pool();
  o.first_id = 1;
  o.id_stride = 2;  // owns 1, 3, 5, ...
  WorkPool shard(o);
  EXPECT_EQ(shard.import_frontier(checkpoint), 2u);  // only ids 1 and 3
  EXPECT_EQ(shard.idle_frontier_size(), 2u);
  EXPECT_TRUE(shard.acquire_unit(1).has_value());
  EXPECT_TRUE(shard.acquire_unit(3).has_value());
  EXPECT_FALSE(shard.acquire_unit(2).has_value());
}

TEST(WorkPool, BatchAndSingleCallsLeaveIdenticalState) {
  // release_many over a whole batch versus one unit per call: the same
  // sequence through either path must leave bit-identical state.
  WorkPool single(small_pool());
  WorkPool batch(small_pool());
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 6; ++i) {
    const auto a = single.acquire();
    const auto b = batch.acquire();
    ASSERT_EQ(a.unit_id, b.unit_id);
    ids.push_back(a.unit_id);
  }
  std::vector<ramsey::WorkReport> reps;
  for (auto id : ids) reps.push_back(report_for(id, 90 - 7 * id));
  for (const auto& rep : reps) single.report(rep);
  for (const auto& rep : reps) batch.report(rep);
  for (auto id : ids) single.release_many(std::array{id});
  batch.release_many(ids);
  EXPECT_EQ(single.export_frontier(), batch.export_frontier());
  EXPECT_EQ(single.idle_frontier_size(), batch.idle_frontier_size());
  EXPECT_EQ(single.assigned_count(), batch.assigned_count());
  EXPECT_EQ(single.units_issued(), batch.units_issued());
}

TEST(WorkPool, ReleaseManyRespectsFrontierCap) {
  WorkPool pool(small_pool());  // cap 4
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 10; ++i) ids.push_back(pool.acquire().unit_id);
  std::vector<ramsey::WorkReport> reps;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    reps.push_back(report_for(ids[i], 100 - i));
  }
  for (const auto& rep : reps) pool.report(rep);
  pool.release_many(ids);
  EXPECT_LE(pool.idle_frontier_size(), 4u);
  EXPECT_EQ(pool.acquire().unit_id, ids.back());  // best survivor first
}

TEST(WorkPool, DirtyFlagTracksCheckpointableChanges) {
  WorkPool pool(small_pool());
  EXPECT_FALSE(pool.dirty());
  const auto spec = pool.acquire();
  EXPECT_FALSE(pool.dirty());  // nothing worth checkpointing yet
  pool.report(report_for(spec.unit_id, 15));
  EXPECT_TRUE(pool.dirty());
  pool.clear_dirty();
  EXPECT_FALSE(pool.dirty());
  pool.release_many(std::array{spec.unit_id});
  EXPECT_TRUE(pool.dirty());
}

TEST(WorkPool, ReportReturnsPriorKindAndEnergy) {
  WorkPool pool(small_pool());
  const auto spec = pool.acquire();
  const auto first = pool.report(report_for(spec.unit_id, 30));
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->kind, spec.kind);
  EXPECT_FALSE(first->best_energy.has_value());  // never reported before
  const auto second = pool.report(report_for(spec.unit_id, 40));
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->best_energy, std::optional<std::uint64_t>(30));
  const auto third = pool.report(report_for(spec.unit_id, 10));
  ASSERT_TRUE(third.has_value());
  EXPECT_EQ(third->best_energy, std::optional<std::uint64_t>(30));
  EXPECT_EQ(pool.best_energy(spec.unit_id), std::optional<std::uint64_t>(10));
  EXPECT_FALSE(pool.report(report_for(424242, 1)).has_value());
}

TEST(WorkPool, TableCapacityFollowsLiveUnitsNotMintedIds) {
  // A million never-reported units minted and released in rounds of 1,000:
  // the table holds at most 1,000 live units at a time, so its capacity
  // stays near that, and shrinks back once they are gone.
  WorkPool pool(small_pool());
  std::vector<std::uint64_t> ids(1000);
  std::size_t peak = 0;
  for (int round = 0; round < 1000; ++round) {
    for (auto& id : ids) id = pool.acquire().unit_id;
    peak = std::max(peak, pool.table_capacity());
    pool.release_many(ids);
  }
  EXPECT_EQ(pool.units_issued(), 1'000'000u);
  EXPECT_EQ(pool.assigned_count(), 0u);
  EXPECT_LE(peak, 1024u);
  EXPECT_LE(pool.table_capacity(), 8u);
}

TEST(WorkPool, ImportOfHugeIdAllocatesConstant) {
  // Ids near 2^63 in our residue class (first_id 3, stride 8): the table is
  // keyed by ordinal mod capacity, so two such units cost two slots.
  WorkPool::Options o = small_pool();
  o.first_id = 3;
  o.id_stride = 8;
  WorkPool pool(o);
  const std::uint64_t huge = 3 + 8 * ((std::uint64_t{1} << 60) - 1);
  EXPECT_EQ(pool.import_frontier(checkpoint_of({huge, huge - 8 * 1000})), 2u);
  EXPECT_LE(pool.table_capacity(), 8u);
  EXPECT_EQ(pool.best_energy(huge), std::optional<std::uint64_t>(100));
  EXPECT_EQ(pool.best_energy(huge - 8 * 1000), std::optional<std::uint64_t>(101));
  EXPECT_EQ(pool.acquire().unit_id, huge);
  EXPECT_EQ(pool.acquire().unit_id, huge - 8 * 1000);
  EXPECT_EQ(pool.acquire().unit_id, huge + 8);  // minted above the import
}

TEST(WorkPool, CollidingOrdinalsStayFindableThroughChurn) {
  // Imported ids whose ordinals share a few home slots at every capacity
  // the table passes through, interleaved with minted ones: every unit must
  // stay findable while the never-reported mints are released (each release
  // shifts a probe run back) and the table grows and shrinks.
  WorkPool::Options o = small_pool();
  o.max_idle_frontier = 1000;
  WorkPool pool(o);
  std::vector<std::uint64_t> minted;
  for (int i = 0; i < 300; ++i) minted.push_back(pool.acquire().unit_id);
  std::vector<std::uint64_t> imported;
  for (std::uint64_t j = 0; j < 300; ++j) imported.push_back(301 + 512 * j);
  ASSERT_EQ(pool.import_frontier(checkpoint_of(imported)), 300u);
  EXPECT_LE(pool.table_capacity(), 4u * 600u);
  auto check_imported = [&] {
    for (std::size_t i = 0; i < imported.size(); ++i) {
      ASSERT_EQ(pool.best_energy(imported[i]),
                std::optional<std::uint64_t>(100 + i));
      ASSERT_FALSE(pool.assigned(imported[i]));
    }
  };
  check_imported();
  // Release the mints in a scattered order.
  for (std::size_t k = 0; k < minted.size(); ++k) {
    const std::uint64_t id = minted[(k * 7) % minted.size()];
    ASSERT_TRUE(pool.assigned(id));
    pool.release_many(std::array{id});
    ASSERT_FALSE(pool.assigned(id));
    ASSERT_FALSE(pool.acquire_unit(id).has_value());  // forgotten
  }
  check_imported();
  EXPECT_EQ(pool.idle_frontier_size(), 300u);
  EXPECT_LE(pool.table_capacity(), 8u * 300u);
  // The checkpoint still lists exactly the imported units, in id order.
  WorkPool copy(o);
  EXPECT_EQ(copy.import_frontier(pool.export_frontier()), 300u);
  EXPECT_EQ(copy.export_frontier(), pool.export_frontier());
  for (auto id : imported) ASSERT_TRUE(pool.acquire_unit(id).has_value());
  EXPECT_EQ(pool.assigned_units(), imported);
}

}  // namespace
}  // namespace ew::core
