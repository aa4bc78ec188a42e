// TimerQueue: the one ordered-timer core behind both Executors.
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
// Each entry carries an opaque Tag the queue never reads: the Reactor uses
// none, the EventQueue stores its model-checker label there.
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <optional>
#include <unordered_map>
#include <utility>

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
    timers_.emplace(std::piecewise_construct, std::forward_as_tuple(at, id),
                    std::forward_as_tuple(std::move(tag), std::move(fn)));
    deadline_.emplace(id, at);
    return id;
  }

  /// Drop a pending timer. No-op for invalid, unknown or fired ids.
  void cancel(TimerId id) {
    if (id == kInvalidTimer) return;
    auto it = deadline_.find(id);
    if (it == deadline_.end()) return;
    timers_.erase({it->second, id});
    deadline_.erase(it);
  }

  [[nodiscard]] bool empty() const { return timers_.empty(); }
  [[nodiscard]] std::size_t size() const { return timers_.size(); }

  /// Deadline of the earliest timer. Precondition: !empty().
  [[nodiscard]] TimePoint next_at() const { return timers_.begin()->first.first; }

  /// Deadline of pending timer `id`, or nullopt if it is not pending.
  [[nodiscard]] std::optional<TimePoint> deadline(TimerId id) const {
    auto it = deadline_.find(id);
    if (it == deadline_.end()) return std::nullopt;
    return it->second;
  }

  /// Remove and return the earliest timer. Precondition: !empty().
  Timer pop() { return extract(timers_.begin()); }

  /// Remove and return pending timer `id`, or nullopt if it is not pending.
  std::optional<Timer> take(TimerId id) {
    auto it = deadline_.find(id);
    if (it == deadline_.end()) return std::nullopt;
    return extract(timers_.find({it->second, id}));
  }

  /// Visit every timer at the earliest deadline, in firing order:
  /// f(id, at, tag).
  template <typename F>
  void for_each_earliest(F&& f) const {
    if (timers_.empty()) return;
    const TimePoint at = next_at();
    for (auto it = timers_.begin(); it != timers_.end() && it->first.first == at;
         ++it) {
      f(it->first.second, at, it->second.tag);
    }
  }

 private:
  struct Slot {
    [[no_unique_address]] Tag tag;
    std::function<void()> fn;
  };
  using Map = std::map<std::pair<TimePoint, TimerId>, Slot>;

  Timer extract(typename Map::iterator it) {
    auto node = timers_.extract(it);
    deadline_.erase(node.key().second);
    return Timer{node.key().second, node.key().first,
                 std::move(node.mapped().tag), std::move(node.mapped().fn)};
  }

  Map timers_;
  std::unordered_map<TimerId, TimePoint> deadline_;
  TimerId next_id_ = 1;
};

}  // namespace ew
