// Executor: the event-scheduling substrate every toolkit component runs on.
//
// All EveryWare servers are single-threaded and event-driven — the paper
// avoided threads and fork() entirely for portability (Section 5.1). An
// Executor provides "call me later" (timers) and "call me soon" (posted
// work). Two implementations exist, both keeping their timers in the one
// TimerQueue (src/net/timer_queue.hpp), a 4-ary heap ordered by
// (deadline, id):
//   * sim::EventQueue (src/sim) — virtual time, deterministic,
//   * Reactor (src/net/reactor.hpp) — real time, epoll readiness.
#pragma once

#include <cstdint>
#include <functional>

#include "common/clock.hpp"

namespace ew {

/// Handle to a scheduled timer; used for cancellation.
using TimerId = std::uint64_t;
constexpr TimerId kInvalidTimer = 0;

class Executor {
 public:
  virtual ~Executor() = default;

  /// The clock this executor advances.
  [[nodiscard]] virtual const Clock& clock() const = 0;
  [[nodiscard]] TimePoint now() const { return clock().now(); }

  /// Run `fn` as soon as possible (after the current event completes).
  virtual void post(std::function<void()> fn) = 0;

  /// Run `fn` once after `delay`. Returns a cancellation handle.
  virtual TimerId schedule(Duration delay, std::function<void()> fn) = 0;

  /// Cancel a pending timer. Cancelling an already-fired or invalid id is a
  /// harmless no-op (components race with their own timeouts constantly).
  virtual void cancel(TimerId id) = 0;
};

}  // namespace ew
