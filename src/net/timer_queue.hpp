// TimerQueue: the one timer core behind both Executors.
//
// The real-time Reactor and the virtual-time sim::EventQueue keep their
// timers here, so the timer contract has a single implementation:
//   * ids are allocated from 1, monotonically; kInvalidTimer is never issued;
//   * timers are ordered by (deadline, id), so equal deadlines fire in
//     scheduling order (FIFO) — the sim's determinism rests on this;
//   * a negative delay is clamped to 0: a timer never lands in the past;
//   * cancel() of an invalid, unknown or already-fired id is a no-op, and a
//     timer leaves the id index before its callable runs (pop()/take() hand
//     it out already removed), so a closure cancelling itself is harmless.
//
// Layout (DESIGN.md §10): a 4-ary min-heap of (deadline, id, slot) entries,
// so ordering reads only the heap; a slot arena holding each timer's
// callable and tag, with its heap position in a parallel array and freed
// slots on a free list; and a flat open-addressed id -> slot index. cancel()
// and take() remove from the middle of the heap through the slot's
// position. All of it only grows, so at a steady depth adding and popping a
// timer allocates nothing (a callable too big for std::function's inline
// buffer still allocates its own).
//
// Each entry carries an opaque Tag the queue never reads: the Reactor uses
// none, the EventQueue stores its model-checker label there.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "common/clock.hpp"
#include "net/executor.hpp"

namespace ew {

/// The default TimerQueue tag: no per-timer payload.
struct Empty {};

template <typename Tag = Empty>
class TimerQueue {
 public:
  /// A timer removed from the queue, ready to run.
  struct Timer {
    TimerId id = kInvalidTimer;
    TimePoint at = 0;
    Tag tag{};
    std::function<void()> fn;
  };

  /// Queue `fn` to run at `now + max(delay, 0)`. Returns its id.
  TimerId add(TimePoint now, Duration delay, std::function<void()> fn,
              Tag tag = {}) {
    const TimerId id = next_id_++;
    const TimePoint at = now + (delay < 0 ? 0 : delay);
    std::uint32_t s = free_;
    if (s == kNone) {
      s = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
      pos_.push_back(0);
    } else {
      free_ = pos_[s];
    }
    slots_[s].fn = std::move(fn);
    slots_[s].tag = std::move(tag);
    index_.insert(id, s);
    heap_.emplace_back();
    sift_up(heap_.size() - 1, {at, id, s});
    return id;
  }

  /// Drop a pending timer. No-op for invalid, unknown or fired ids.
  void cancel(TimerId id) {
    const std::uint32_t s = index_.erase(id);
    if (s == kNone) return;
    remove(pos_[s]);
    // The closure dies after the queue is consistent again, so a destructor
    // that touches the queue sees no half-removed timer.
    std::function<void()> dead = std::move(slots_[s].fn);
    release(s);
  }

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }

  /// Deadline of the earliest timer. Precondition: !empty().
  [[nodiscard]] TimePoint next_at() const { return heap_.front().at; }

  /// Deadline of pending timer `id`, or nullopt if it is not pending.
  [[nodiscard]] std::optional<TimePoint> deadline(TimerId id) const {
    const std::uint32_t s = index_.find(id);
    if (s == kNone) return std::nullopt;
    return heap_[pos_[s]].at;
  }

  /// Remove and return the earliest timer. Precondition: !empty().
  Timer pop() {
    const Entry e = heap_.front();
    index_.erase(e.id);
    remove(0);
    return extract(e);
  }

  /// Remove and return pending timer `id`, or nullopt if it is not pending.
  std::optional<Timer> take(TimerId id) {
    const std::uint32_t s = index_.erase(id);
    if (s == kNone) return std::nullopt;
    const Entry e = heap_[pos_[s]];
    remove(pos_[s]);
    return extract(e);
  }

  /// Visit every timer at the earliest deadline, in firing order:
  /// f(id, at, tag).
  template <typename F>
  void for_each_earliest(F&& f) const {
    if (heap_.empty()) return;
    const TimePoint at = next_at();
    // A child is never earlier than its parent, so the timers at the
    // earliest deadline form a subtree at the root: walk it breadth-first.
    std::vector<std::size_t> group{0};
    for (std::size_t i = 0; i < group.size(); ++i) {
      const std::size_t first = kArity * group[i] + 1;
      const std::size_t last = std::min(first + kArity, heap_.size());
      for (std::size_t c = first; c < last; ++c) {
        if (heap_[c].at == at) group.push_back(c);
      }
    }
    std::sort(group.begin(), group.end(),
              [&](std::size_t a, std::size_t b) { return heap_[a].id < heap_[b].id; });
    for (std::size_t p : group) f(heap_[p].id, at, slots_[heap_[p].slot].tag);
  }

 private:
  static constexpr std::uint32_t kNone = UINT32_MAX;
  static constexpr std::size_t kArity = 4;

  struct Entry {
    TimePoint at;
    TimerId id;
    std::uint32_t slot;
  };

  struct Slot {
    std::function<void()> fn;
    [[no_unique_address]] Tag tag;
  };

  /// Flat id -> slot map: linear probing from a Fibonacci hash of the id,
  /// backward-shift deletion (no tombstones). kInvalidTimer marks an empty
  /// cell, and the table doubles at half full and never shrinks.
  class Index {
   public:
    [[nodiscard]] std::uint32_t find(TimerId id) const {
      if (id == kInvalidTimer || cells_.empty()) return kNone;
      for (std::size_t i = home(id);; i = (i + 1) & mask_) {
        if (cells_[i].id == id) return cells_[i].slot;
        if (cells_[i].id == kInvalidTimer) return kNone;
      }
    }

    void insert(TimerId id, std::uint32_t slot) {
      if (2 * (size_ + 1) > cells_.size()) grow();
      std::size_t i = home(id);
      while (cells_[i].id != kInvalidTimer) i = (i + 1) & mask_;
      cells_[i] = {id, slot};
      ++size_;
    }

    /// Remove `id` and return its slot, or kNone if it is absent.
    std::uint32_t erase(TimerId id) {
      if (id == kInvalidTimer || cells_.empty()) return kNone;
      std::size_t hole = home(id);
      while (cells_[hole].id != id) {
        if (cells_[hole].id == kInvalidTimer) return kNone;
        hole = (hole + 1) & mask_;
      }
      const std::uint32_t slot = cells_[hole].slot;
      // Shift back every later cell of the run whose home is not after the
      // hole, so no probe sequence crosses an empty cell.
      for (std::size_t j = (hole + 1) & mask_; cells_[j].id != kInvalidTimer;
           j = (j + 1) & mask_) {
        if (((j - home(cells_[j].id)) & mask_) >= ((j - hole) & mask_)) {
          cells_[hole] = cells_[j];
          hole = j;
        }
      }
      cells_[hole] = {};
      --size_;
      return slot;
    }

   private:
    struct Cell {
      TimerId id = kInvalidTimer;
      std::uint32_t slot = 0;
    };

    [[nodiscard]] std::size_t home(TimerId id) const {
      return static_cast<std::size_t>((id * 0x9E3779B97F4A7C15ULL) >> shift_);
    }

    void grow() {
      std::vector<Cell> old(cells_.empty() ? 16 : 2 * cells_.size());
      old.swap(cells_);
      mask_ = cells_.size() - 1;
      shift_ = 64 - std::countr_zero(cells_.size());
      size_ = 0;
      for (const Cell& c : old) {
        if (c.id != kInvalidTimer) insert(c.id, c.slot);
      }
    }

    std::vector<Cell> cells_;
    std::size_t mask_ = 0;
    int shift_ = 64;
    std::size_t size_ = 0;
  };

  static bool before(const Entry& a, const Entry& b) {
    return a.at != b.at ? a.at < b.at : a.id < b.id;
  }

  void place(std::size_t pos, const Entry& e) {
    heap_[pos] = e;
    pos_[e.slot] = static_cast<std::uint32_t>(pos);
  }

  /// Put `e` in the hole at `pos`, moving the hole up past later parents.
  void sift_up(std::size_t pos, const Entry& e) {
    while (pos > 0) {
      const std::size_t parent = (pos - 1) / kArity;
      if (!before(e, heap_[parent])) break;
      place(pos, heap_[parent]);
      pos = parent;
    }
    place(pos, e);
  }

  /// Remove the heap entry at `pos`. The last entry refills the hole: the
  /// hole first sinks past earlier children, then (if it did not move and
  /// the last entry is earlier than its parent) rises.
  void remove(std::size_t pos) {
    const Entry last = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (pos == n) return;
    for (std::size_t first = kArity * pos + 1; first < n; first = kArity * pos + 1) {
      std::size_t best = first;
      for (std::size_t c = first + 1; c < std::min(first + kArity, n); ++c) {
        if (before(heap_[c], heap_[best])) best = c;
      }
      if (!before(heap_[best], last)) break;
      place(pos, heap_[best]);
      pos = best;
    }
    sift_up(pos, last);
  }

  /// Hand out the timer of heap entry `e`, already out of heap and index.
  Timer extract(const Entry& e) {
    Slot& s = slots_[e.slot];
    Timer t{e.id, e.at, std::move(s.tag), std::move(s.fn)};
    release(e.slot);
    return t;
  }

  void release(std::uint32_t s) {
    pos_[s] = free_;
    free_ = s;
  }

  std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  // Per slot: its heap position while pending, the next free slot while free.
  // Apart from slots_ so heap moves touch 4 bytes per slot, not a whole Slot.
  std::vector<std::uint32_t> pos_;
  std::uint32_t free_ = kNone;  // head of the free-slot list
  Index index_;
  TimerId next_id_ = 1;
};

}  // namespace ew
