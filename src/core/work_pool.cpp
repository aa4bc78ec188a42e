#include "core/work_pool.hpp"

#include <algorithm>
#include <utility>

namespace ew::core {

namespace {

constexpr std::size_t kMinTableCapacity = 8;
// An insert that probes further than this in a table at least half full
// doubles it: ordinals that crowd one stretch of slots spread out again.
constexpr std::size_t kLongProbe = 32;

}  // namespace

WorkPool::Unit* WorkPool::UnitTable::find(std::uint64_t id) {
  return const_cast<Unit*>(std::as_const(*this).find(id));
}

const WorkPool::Unit* WorkPool::UnitTable::find(std::uint64_t id) const {
  // Id 0 marks an empty slot, so it must never match one.
  if (size_ == 0 || id == 0) return nullptr;
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = home(id), dist = 0;; i = (i + 1) & mask, ++dist) {
    const Unit& u = slots_[i];
    if (u.id == id) return &u;
    // Robin Hood order: a unit closer to its home than this probe has come
    // would have been passed by `id` on insert.
    if (u.id == 0 || distance(i) < dist) return nullptr;
  }
}

std::size_t WorkPool::UnitTable::place(Unit u) {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = home(u.id);
  std::size_t dist = 0;
  for (; slots_[i].id != 0; i = (i + 1) & mask, ++dist) {
    const std::size_t d = distance(i);
    if (d < dist) {  // take from the richer unit, carry it on
      std::swap(slots_[i], u);
      dist = d;
    }
  }
  slots_[i] = std::move(u);
  ++size_;
  return dist;
}

void WorkPool::UnitTable::insert(Unit u) {
  if (size_ == slots_.size()) {
    rehash(std::max(kMinTableCapacity, 2 * slots_.size()));
  }
  if (place(std::move(u)) > kLongProbe && 2 * size_ >= slots_.size()) {
    rehash(2 * slots_.size());
  }
}

void WorkPool::UnitTable::erase(Unit& u) {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = static_cast<std::size_t>(&u - slots_.data());
  // Backward shift: pull the rest of the run one slot toward home.
  for (std::size_t j = (i + 1) & mask; slots_[j].id != 0 && distance(j) > 0;
       i = j, j = (j + 1) & mask) {
    slots_[i] = std::move(slots_[j]);
  }
  slots_[i] = Unit{};
  --size_;
  if (slots_.size() > kMinTableCapacity && 8 * size_ <= slots_.size()) {
    rehash(slots_.size() / 2);
  }
}

void WorkPool::UnitTable::rehash(std::size_t capacity) {
  std::vector<Unit> old = std::exchange(slots_, std::vector<Unit>(capacity));
  size_ = 0;
  for (Unit& u : old) {
    if (u.id != 0) place(std::move(u));
  }
}

WorkPool::Options WorkPool::normalized(Options opts) {
  if (opts.id_stride == 0) opts.id_stride = 1;
  if (opts.first_id == 0) opts.first_id = 1;
  return opts;
}

WorkPool::WorkPool(Options opts)
    : opts_(normalized(opts)),
      next_id_(opts_.first_id),
      units_(opts_.first_id, opts_.id_stride) {}

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
    Unit& u = *units_.find(id);
    u.assigned = true;
    ++assigned_count_;
    return spec_for(id, u);
  }
  const std::uint64_t id = next_id_;
  next_id_ += opts_.id_stride;
  Unit u;
  u.id = id;
  u.seed = opts_.seed_base + id;
  u.assigned = true;
  // Default: rotate heuristics so all three stay in play.
  u.kind = chooser_ ? chooser_(id) : static_cast<ramsey::HeuristicKind>(id % 3);
  ramsey::WorkSpec spec = spec_for(id, u);
  units_.insert(std::move(u));
  ++assigned_count_;
  return spec;
}

std::optional<ramsey::WorkSpec> WorkPool::acquire_unit(std::uint64_t unit_id) {
  Unit* u = units_.find(unit_id);
  if (u == nullptr) return std::nullopt;
  if (!u->assigned) {
    idle_.erase({u->best_energy, unit_id});
    u->assigned = true;
    ++assigned_count_;
  }
  return spec_for(unit_id, *u);
}

std::optional<WorkPool::Prior> WorkPool::report(const ramsey::WorkReport& rep) {
  Unit* found = units_.find(rep.unit_id);
  if (found == nullptr) return std::nullopt;
  Unit& u = *found;
  Prior prior{u.kind, std::nullopt};
  if (u.best_energy != ~0ULL) prior.best_energy = u.best_energy;
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
  return prior;
}

void WorkPool::release_one(std::uint64_t unit_id) {
  Unit* found = units_.find(unit_id);
  if (found == nullptr) return;
  Unit& u = *found;
  if (u.assigned) {
    u.assigned = false;
    --assigned_count_;
  } else if (!u.resume.empty()) {
    return;  // already idle and indexed; nothing to do
  }
  if (u.resume.empty()) {
    // Never reported: nothing worth resuming; forget it entirely.
    units_.erase(u);
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
  const Unit* u = units_.find(unit_id);
  return u != nullptr && u->assigned;
}

std::optional<std::uint64_t> WorkPool::best_energy(std::uint64_t unit_id) const {
  const Unit* u = units_.find(unit_id);
  if (u == nullptr || u->best_energy == ~0ULL) return std::nullopt;
  return u->best_energy;
}

std::optional<std::pair<std::uint64_t, std::uint64_t>>
WorkPool::peek_idle_best() const {
  if (idle_.empty()) return std::nullopt;
  return *idle_.begin();
}

std::vector<std::uint64_t> WorkPool::assigned_units() const {
  std::vector<std::uint64_t> out;
  out.reserve(assigned_count_);
  units_.for_each([&](const Unit& u) {
    if (u.assigned) out.push_back(u.id);
  });
  std::sort(out.begin(), out.end());
  return out;
}

Bytes WorkPool::export_frontier() const {
  std::vector<const Unit*> live;
  units_.for_each([&](const Unit& u) {
    if (!u.resume.empty()) live.push_back(&u);
  });
  std::sort(live.begin(), live.end(),
            [](const Unit* a, const Unit* b) { return a->id < b->id; });
  Writer w;
  w.u32(static_cast<std::uint32_t>(live.size()));
  for (const Unit* u : live) {
    w.u64(u->id);
    w.u64(u->seed);
    w.u8(static_cast<std::uint8_t>(u->kind));
    w.u64(u->best_energy);
    w.blob(u->resume);
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
    if (units_.find(*id) != nullptr) continue;  // live unit wins over checkpoint
    Unit u;
    u.id = *id;
    u.seed = *seed;
    u.kind = static_cast<ramsey::HeuristicKind>(*kind);
    u.best_energy = *energy;
    u.resume = std::move(*resume);
    u.assigned = false;
    idle_.insert({u.best_energy, *id});
    units_.insert(std::move(u));
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
    units_.erase(*units_.find(worst->second));
    idle_.erase(worst);
    dirty_ = true;
  }
}

}  // namespace ew::core
