#include "core/work_pool.hpp"

#include <algorithm>

namespace ew::core {

WorkPool::WorkPool(Options opts) : opts_(opts) {
  if (opts_.id_stride == 0) opts_.id_stride = 1;
  if (opts_.first_id == 0) opts_.first_id = 1;
  next_id_ = opts_.first_id;
}

ramsey::WorkSpec WorkPool::spec_for(std::uint64_t id, const Unit& u) const {
  ramsey::WorkSpec s;
  s.unit_id = id;
  s.n = opts_.n;
  s.k = opts_.k;
  s.kind = u.kind;
  s.seed = opts_.seed_base * 0x9e3779b9ULL + id;
  s.report_ops = opts_.report_ops;
  if (!u.resume.empty()) {
    auto g = ramsey::ColoredGraph::deserialize(u.resume);
    if (g) s.resume = std::move(*g);
  }
  return s;
}

bool WorkPool::owns(std::uint64_t unit_id) const {
  return unit_id >= opts_.first_id &&
         (unit_id - opts_.first_id) % opts_.id_stride == 0;
}

ramsey::WorkSpec WorkPool::acquire() {
  // Most promising idle frontier unit first: lowest (energy, id).
  if (!idle_.empty()) {
    const auto [energy, id] = *idle_.begin();
    idle_.erase(idle_.begin());
    auto& u = units_[id];
    u.assigned = true;
    ++assigned_count_;
    return spec_for(id, u);
  }
  const std::uint64_t id = next_id_;
  next_id_ += opts_.id_stride;
  Unit u;
  u.seed = opts_.seed_base + id;
  u.assigned = true;
  // Default: rotate heuristics so all three stay in play.
  u.kind = chooser_ ? chooser_(id) : static_cast<ramsey::HeuristicKind>(id % 3);
  auto [it, _] = units_.emplace(id, std::move(u));
  ++assigned_count_;
  return spec_for(id, it->second);
}

std::optional<ramsey::WorkSpec> WorkPool::acquire_unit(std::uint64_t unit_id) {
  auto it = units_.find(unit_id);
  if (it == units_.end() || it->second.assigned) return std::nullopt;
  idle_.erase({it->second.best_energy, unit_id});
  it->second.assigned = true;
  ++assigned_count_;
  return spec_for(unit_id, it->second);
}

void WorkPool::report_one(const ramsey::WorkReport& rep) {
  auto it = units_.find(rep.unit_id);
  if (it == units_.end()) return;
  Unit& u = it->second;
  const bool was_idle = !u.assigned && !u.resume.empty();
  if (was_idle) idle_.erase({u.best_energy, rep.unit_id});
  if (rep.best_energy < u.best_energy) {
    u.best_energy = rep.best_energy;
    dirty_ = true;
  }
  if (!rep.best_graph.empty()) {
    u.resume = rep.best_graph;
    dirty_ = true;
  }
  if (!u.assigned && !u.resume.empty()) {
    idle_.insert({u.best_energy, rep.unit_id});
  }
}

void WorkPool::report(const ramsey::WorkReport& rep) { report_one(rep); }

void WorkPool::report_many(std::span<const ramsey::WorkReport> reps) {
  for (const auto& rep : reps) report_one(rep);
}

void WorkPool::release_one(std::uint64_t unit_id) {
  auto it = units_.find(unit_id);
  if (it == units_.end()) return;
  Unit& u = it->second;
  if (u.assigned) {
    u.assigned = false;
    --assigned_count_;
  } else if (!u.resume.empty()) {
    return;  // already idle and indexed; nothing to do
  }
  if (u.resume.empty()) {
    // Never reported: nothing worth resuming; forget it entirely.
    units_.erase(it);
  } else {
    idle_.insert({u.best_energy, unit_id});
    dirty_ = true;
  }
}

void WorkPool::release_many(std::span<const std::uint64_t> ids) {
  for (auto id : ids) release_one(id);
  trim_idle();
}

bool WorkPool::assigned(std::uint64_t unit_id) const {
  auto it = units_.find(unit_id);
  return it != units_.end() && it->second.assigned;
}

std::optional<ramsey::HeuristicKind> WorkPool::unit_kind(std::uint64_t unit_id) const {
  auto it = units_.find(unit_id);
  if (it == units_.end()) return std::nullopt;
  return it->second.kind;
}

std::optional<std::uint64_t> WorkPool::best_energy(std::uint64_t unit_id) const {
  auto it = units_.find(unit_id);
  if (it == units_.end() || it->second.best_energy == ~0ULL) return std::nullopt;
  return it->second.best_energy;
}

std::optional<std::pair<std::uint64_t, std::uint64_t>>
WorkPool::peek_idle_best() const {
  if (idle_.empty()) return std::nullopt;
  return *idle_.begin();
}

std::vector<std::uint64_t> WorkPool::assigned_units() const {
  std::vector<std::uint64_t> out;
  out.reserve(assigned_count_);
  for (const auto& [id, u] : units_) {
    if (u.assigned) out.push_back(id);
  }
  return out;
}

Bytes WorkPool::export_frontier() const {
  Writer w;
  std::uint32_t count = 0;
  for (const auto& [id, u] : units_) {
    if (!u.resume.empty()) ++count;
  }
  w.u32(count);
  for (const auto& [id, u] : units_) {
    if (u.resume.empty()) continue;
    w.u64(id);
    w.u64(u.seed);
    w.u8(static_cast<std::uint8_t>(u.kind));
    w.u64(u.best_energy);
    w.blob(u.resume);
  }
  return w.take();
}

std::size_t WorkPool::import_frontier(const Bytes& blob) {
  Reader r(blob);
  auto count = r.u32();
  // Count guard: bound by the absolute ceiling AND the bytes present (each
  // entry is at least 8+8+1+8+4 = 29 bytes).
  if (!count || *count > 2'000'000 || *count > r.remaining() / 29) return 0;
  std::size_t imported = 0;
  for (std::uint32_t i = 0; i < *count; ++i) {
    auto id = r.u64();
    auto seed = r.u64();
    auto kind = r.u8();
    auto energy = r.u64();
    auto resume = r.blob();
    if (!id || !seed || !kind || !energy || !resume) break;
    if (*kind > static_cast<std::uint8_t>(ramsey::HeuristicKind::kAnneal)) continue;
    // Only units in our id range: a restarted shard replays its own slice.
    if (!owns(*id)) continue;
    // Resume blobs must still decode as valid graphs of our order.
    if (resume->size() > ramsey::kMaxGraphBlob) continue;
    auto g = ramsey::ColoredGraph::deserialize(*resume);
    if (!g || g->order() != opts_.n) continue;
    if (units_.contains(*id)) continue;  // live unit wins over checkpoint
    Unit u;
    u.seed = *seed;
    u.kind = static_cast<ramsey::HeuristicKind>(*kind);
    u.best_energy = *energy;
    u.resume = std::move(*resume);
    u.assigned = false;
    idle_.insert({u.best_energy, *id});
    units_.emplace(*id, std::move(u));
    next_id_ = std::max(next_id_, *id + opts_.id_stride);
    ++imported;
  }
  if (imported > 0) dirty_ = true;
  trim_idle();
  return imported;
}

void WorkPool::trim_idle() {
  // Keep the bounded "file system footprint" discipline of Section 3.1.2:
  // drop the *worst* idle units beyond the cap.
  while (idle_.size() > opts_.max_idle_frontier) {
    auto worst = std::prev(idle_.end());
    units_.erase(worst->second);
    idle_.erase(worst);
    dirty_ = true;
  }
}

}  // namespace ew::core
