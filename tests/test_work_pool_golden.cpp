// Golden pins for the work pool's checkpoint bytes and assigned-unit order.
//
// A scripted mint / report / release / import / trim sequence drives a
// strided WorkPool and a 3-shard ShardedWorkPool; the exported checkpoint
// bytes (export_frontier / export_shard) and the assigned_units() order are
// pinned exactly. A storage rewrite of the pool must leave every pin
// unchanged. A failing run prints the current values.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "common/hash.hpp"
#include "core/sharded_work_pool.hpp"

namespace ew::core {
namespace {

ramsey::WorkReport report_for(std::uint64_t unit, std::uint64_t energy) {
  ramsey::WorkReport r;
  r.unit_id = unit;
  r.ops_done = 1000;
  r.best_energy = energy;
  Rng rng(unit + 1);
  r.best_graph = ramsey::ColoredGraph::random(10, rng).serialize();
  return r;
}

/// A checkpoint blob as readable text: one "id/seed/kind/energy" entry per
/// unit in export order, then the FNV-1a digest of the whole blob, which
/// pins the resume colorings byte for byte as well.
std::string summary(const Bytes& blob) {
  Reader r(blob);
  const std::uint32_t count = r.u32().value_or(0);
  std::string out = std::to_string(count) + ":";
  for (std::uint32_t i = 0; i < count; ++i) {
    const auto id = r.u64();
    const auto seed = r.u64();
    const auto kind = r.u8();
    const auto energy = r.u64();
    if (!id || !seed || !kind || !energy || !r.blob()) return out + " truncated";
    char entry[96];
    std::snprintf(entry, sizeof entry, " %llu/%llu/%u/%llu",
                  static_cast<unsigned long long>(*id),
                  static_cast<unsigned long long>(*seed), unsigned{*kind},
                  static_cast<unsigned long long>(*energy));
    out += entry;
  }
  char digest[32];
  std::snprintf(digest, sizeof digest, " #%016llx",
                static_cast<unsigned long long>(fnv1a64(std::string_view(
                    reinterpret_cast<const char*>(blob.data()), blob.size()))));
  out += digest;
  return out;
}

std::string ids_text(const std::vector<std::uint64_t>& ids) {
  std::string out;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(ids[i]);
  }
  return out;
}

/// One checkpoint entry in export_frontier's layout.
struct Entry {
  std::uint64_t id;
  std::uint64_t seed;
  std::uint8_t kind;
  std::uint64_t energy;
  int order;  // vertex count of the resume coloring
};

/// A hand-built checkpoint, so ids, kinds and graph orders can be chosen
/// freely (ids above the pool's mint cursor, foreign ids, bad entries).
Bytes checkpoint(const std::vector<Entry>& entries) {
  Writer w;
  w.u32(static_cast<std::uint32_t>(entries.size()));
  for (const Entry& e : entries) {
    w.u64(e.id);
    w.u64(e.seed);
    w.u8(e.kind);
    w.u64(e.energy);
    Rng rng(e.id + 7);
    w.blob(ramsey::ColoredGraph::random(e.order, rng).serialize());
  }
  return w.take();
}

void expect_pinned(const char* what, const std::string& got,
                   const std::string& want) {
  EXPECT_EQ(got, want) << what;
  if (got != want) std::printf("current %s:\n%s\n", what, got.c_str());
}

TEST(WorkPoolGolden, StridedPoolCheckpointBytesAndAssignedOrder) {
  WorkPool::Options o;
  o.n = 10;
  o.k = 4;
  o.seed_base = 7;
  o.max_idle_frontier = 4;
  o.first_id = 2;
  o.id_stride = 3;
  WorkPool pool(o);

  std::vector<std::uint64_t> ids;  // 2, 5, 8, ..., 23
  for (int i = 0; i < 8; ++i) ids.push_back(pool.acquire().unit_id);
  for (std::size_t i = 0; i < 6; ++i) {
    pool.report(report_for(ids[i], 60 - 5 * i));
  }
  pool.report(report_for(ids[1], 12));   // better: taken
  pool.report(report_for(ids[1], 90));   // worse energy, newer coloring
  pool.report(report_for(999, 1));       // not ours: ignored
  // Two reported units go idle, a never-reported one is forgotten.
  pool.release_many(std::array{ids[0], ids[2], ids[6]});
  EXPECT_EQ(pool.acquire().unit_id, ids[2]);  // best idle first

  // Live id (skipped), forgotten in-range id (imported), foreign id
  // (skipped), bad kind (skipped), wrong graph order (skipped), and an
  // in-range id far above the mint cursor (imported; moves the cursor).
  const Bytes ckpt = checkpoint({
      {ids[3], 77, 1, 5, 10},
      {ids[6], 88, 2, 33, 10},
      {4, 99, 0, 2, 10},
      {ids[7], 11, 9, 2, 10},
      {ids[4], 12, 1, 2, 14},
      {302, 13, 0, 41, 10},
  });
  EXPECT_EQ(pool.import_frontier(ckpt), 2u);

  const auto fresh_a = pool.acquire();  // idle best: ids[6] at 33
  const auto fresh_b = pool.acquire();  // idle next: 302 at 41
  const auto fresh_c = pool.acquire();  // idle last: ids[0] at 60
  const auto mint_a = pool.acquire();   // fresh: above the imported 302
  const auto mint_b = pool.acquire();
  EXPECT_EQ(fresh_a.unit_id, ids[6]);
  EXPECT_EQ(fresh_b.unit_id, 302u);
  EXPECT_EQ(fresh_c.unit_id, ids[0]);
  EXPECT_EQ(mint_a.unit_id, 305u);
  EXPECT_EQ(mint_b.unit_id, 308u);
  pool.report(report_for(mint_a.unit_id, 3));
  pool.report(report_for(302, 38));

  // Over the idle cap: the worst units are trimmed and forgotten.
  pool.release_many(std::vector<std::uint64_t>{
      ids[1], ids[3], ids[4], ids[5], mint_a.unit_id, ids[7], 302});
  EXPECT_EQ(pool.idle_frontier_size(), 4u);
  pool.report(report_for(302, 30));     // idle unit improves: re-indexed
  pool.report(report_for(ids[4], 7));   // trimmed, so forgotten: ignored
  ASSERT_TRUE(pool.acquire_unit(ids[5]).has_value());

  expect_pinned("WorkPool export_frontier", summary(pool.export_frontier()),
                "7: 2/9/2/60 5/12/2/12 8/15/2/50 17/24/2/35 20/88/2/33 "
                "302/13/0/30 305/312/2/3 #5bdf3e6d53c140e7");
  expect_pinned("WorkPool assigned_units", ids_text(pool.assigned_units()),
                "2, 8, 17, 20, 308");
  EXPECT_EQ(pool.units_issued(), 103u);
  EXPECT_EQ(pool.assigned_count(), pool.assigned_units().size());
}

TEST(WorkPoolGolden, ShardedCheckpointBytesAndAssignedOrder) {
  ShardedWorkPool::Options o;
  o.pool.n = 10;
  o.pool.k = 4;
  o.pool.seed_base = 7;
  o.pool.max_idle_frontier = 2;
  o.shards = 3;
  ShardedWorkPool pool(o);

  const auto first = pool.issue_many(12);  // ids 1..12, four per shard
  ASSERT_EQ(first.size(), 12u);
  for (const auto& s : first) {
    if (s.unit_id % 4 != 0) {
      pool.report(report_for(s.unit_id, 50 + (s.unit_id * 7) % 11));
    }
  }
  // Everything back: unreported ids are forgotten, each shard trims to 2.
  std::vector<std::uint64_t> all;
  for (const auto& s : first) all.push_back(s.unit_id);
  pool.reclaim_many(all);
  EXPECT_EQ(pool.idle_frontier_size(), 6u);

  // Shard 1 (ids 2, 5, 8, ...) restores a checkpoint holding an id far
  // above its mint cursor, one of shard 0's ids (skipped), and a forgotten
  // id of its own range.
  EXPECT_EQ(pool.import_shard(1, checkpoint({{302, 5, 2, 1, 10},
                                             {301, 6, 1, 1, 10},
                                             {14, 6, 0, 70, 10}})),
            2u);
  const auto second = pool.issue_many(10);  // frontier first, then mints
  ASSERT_EQ(second.size(), 10u);
  for (std::size_t i = 0; i < second.size(); i += 2) {
    pool.report(report_for(second[i].unit_id, 20 + i));
  }
  std::vector<std::uint64_t> back;
  for (std::size_t i = 0; i < second.size(); i += 3) {
    back.push_back(second[i].unit_id);
  }
  pool.reclaim_many(back);

  std::string exports;
  for (std::uint32_t k = 0; k < pool.shard_count(); ++k) {
    exports += "shard " + std::to_string(k) + ": " +
               summary(pool.export_shard(k)) + "\n";
  }
  expect_pinned("ShardedWorkPool export_shard", exports,
                "shard 0: 3: 7/14/1/55 10/17/1/22 13/20/1/26 #6d4854e6941f6e94\n"
                "shard 1: 2: 11/18/2/50 302/5/2/1 #2984058b53e6cd91\n"
                "shard 2: 3: 6/13/0/59 9/16/0/24 15/22/0/28 #394b530a31dd1a8a\n");
  expect_pinned("ShardedWorkPool assigned_units",
                ids_text(pool.assigned_units()), "6, 9, 10, 11, 15, 305");
  const std::array<const char*, 3> per_shard = {"10", "11, 305", "6, 9, 15"};
  for (std::uint32_t k = 0; k < pool.shard_count(); ++k) {
    expect_pinned("ShardedWorkPool shard assigned_units",
                  ids_text(pool.shard(k).assigned_units()), per_shard[k]);
  }
  EXPECT_EQ(pool.steals(), 4u);
  EXPECT_EQ(pool.units_issued(), 113u);
}

}  // namespace
}  // namespace ew::core
