#include "core/sharded_work_pool.hpp"

#include <algorithm>

namespace ew::core {

ShardedWorkPool::ShardedWorkPool(Options opts) {
  const std::uint32_t n = std::max<std::uint32_t>(1, opts.shards);
  shards_.reserve(n);
  for (std::uint32_t s = 0; s < n; ++s) {
    WorkPool::Options po = opts.pool;
    po.first_id = s + 1;
    po.id_stride = n;
    shards_.emplace_back(po);
  }
}

std::uint32_t ShardedWorkPool::owner_of(std::uint64_t unit_id) const {
  if (unit_id == 0) return 0;
  return static_cast<std::uint32_t>((unit_id - 1) % shards_.size());
}

std::vector<ramsey::WorkSpec> ShardedWorkPool::issue_many(std::size_t n) {
  std::vector<ramsey::WorkSpec> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Globally best idle frontier unit across all shards, if any.
    std::uint32_t best_shard = 0;
    std::optional<std::pair<std::uint64_t, std::uint64_t>> best;
    for (std::uint32_t s = 0; s < shards_.size(); ++s) {
      auto peek = shards_[s].peek_idle_best();
      if (peek && (!best || *peek < *best)) {
        best = peek;
        best_shard = s;
      }
    }
    if (best) {
      if (best_shard != mint_cursor_) ++steals_;
      out.push_back(shards_[best_shard].acquire());
      continue;
    }
    out.push_back(shards_[mint_cursor_].acquire());
    mint_cursor_ = (mint_cursor_ + 1) % shards_.size();
  }
  return out;
}

std::optional<ramsey::WorkSpec> ShardedWorkPool::issue_unit(
    std::uint64_t unit_id) {
  return shards_[owner_of(unit_id)].acquire_unit(unit_id);
}

std::optional<WorkPool::Prior> ShardedWorkPool::report(
    const ramsey::WorkReport& rep) {
  return shards_[owner_of(rep.unit_id)].report(rep);
}

void ShardedWorkPool::reclaim_many(std::span<const std::uint64_t> ids) {
  if (shards_.size() == 1) {
    shards_.front().release_many(ids);
    return;
  }
  // Ids are cheap to regroup; each shard then trims its frontier once.
  std::vector<std::vector<std::uint64_t>> by_shard(shards_.size());
  for (auto id : ids) by_shard[owner_of(id)].push_back(id);
  for (std::uint32_t s = 0; s < shards_.size(); ++s) {
    if (!by_shard[s].empty()) shards_[s].release_many(by_shard[s]);
  }
}

void ShardedWorkPool::set_kind_chooser(WorkPool::KindChooser chooser) {
  for (auto& s : shards_) s.set_kind_chooser(chooser);
}

bool ShardedWorkPool::assigned(std::uint64_t unit_id) const {
  return shards_[owner_of(unit_id)].assigned(unit_id);
}

std::optional<std::uint64_t> ShardedWorkPool::best_energy(
    std::uint64_t unit_id) const {
  return shards_[owner_of(unit_id)].best_energy(unit_id);
}

std::size_t ShardedWorkPool::idle_frontier_size() const {
  std::size_t n = 0;
  for (const auto& s : shards_) n += s.idle_frontier_size();
  return n;
}

std::vector<std::uint64_t> ShardedWorkPool::assigned_units() const {
  std::vector<std::uint64_t> out;
  for (const auto& s : shards_) {
    auto part = s.assigned_units();
    out.insert(out.end(), part.begin(), part.end());
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::size_t ShardedWorkPool::assigned_count() const {
  std::size_t n = 0;
  for (const auto& s : shards_) n += s.assigned_count();
  return n;
}

std::size_t ShardedWorkPool::units_issued() const {
  std::size_t n = 0;
  for (const auto& s : shards_) n += s.units_issued();
  return n;
}

Bytes ShardedWorkPool::export_shard(std::uint32_t k) {
  auto blob = shards_[k].export_frontier();
  shards_[k].clear_dirty();
  return blob;
}

std::size_t ShardedWorkPool::import_shard(std::uint32_t k, const Bytes& blob) {
  return shards_[k].import_frontier(blob);
}

}  // namespace ew::core
