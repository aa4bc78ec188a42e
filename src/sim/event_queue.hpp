// Deterministic discrete-event engine: the virtual-time Executor.
//
// This is the substrate that replaces SC98's wall clock. All toolkit
// components run unmodified on it (they only see the Executor interface),
// which lets a 12-hour Grid scenario execute in milliseconds and, more
// importantly, makes every experiment exactly reproducible from a seed.
// Events live in the shared TimerQueue (net/timer_queue.hpp): events at equal
// times fire in scheduling order (the strictly increasing timer id breaks
// ties), so runs are platform-independent.
//
// Choice points (src/sim/mc): events carry an optional label (the host the
// event acts on), `eligible()` exposes every event at the earliest pending
// timestamp, and `step_event()` fires a chosen one instead of the FIFO
// head. Labels are inherited — work scheduled while an event runs gets the
// running event's label — so a packet-delivery closure labelled with the
// destination host labels everything the handler schedules in turn. The
// default step()/run_until() path is unchanged: FIFO order, bit-identical
// with pre-choice-point builds. Labels are interned to u32 ids (0 is the
// empty label): an event carries its id as its TimerQueue tag, and only
// eligible() turns ids back into names.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/clock.hpp"
#include "net/executor.hpp"
#include "net/timer_queue.hpp"

namespace ew::sim {

class EventQueue final : public Executor {
 public:
  explicit EventQueue(TimePoint start = 0) : clock_(start) {}

  [[nodiscard]] const Clock& clock() const override { return clock_; }
  void post(std::function<void()> fn) override { schedule(0, std::move(fn)); }
  TimerId schedule(Duration delay, std::function<void()> fn) override;
  void cancel(TimerId id) override;

  /// Execute events until the queue is empty. Returns the number of events
  /// executed; throws if `limit` events have run and events remain.
  std::size_t run_until_idle(std::size_t limit = 100'000'000);

  /// Execute events with time <= t, then advance the clock to exactly t.
  std::size_t run_until(TimePoint t);

  /// Convenience: run_until(now + d).
  std::size_t run_for(Duration d) { return run_until(clock_.now() + d); }

  /// Execute the single next event (if any). Returns false when idle.
  bool step();

  // ---- Choice-point API (model checker; see src/sim/mc) -----------------

  /// One event eligible to fire now: pending at the earliest timestamp.
  struct EligibleEvent {
    TimerId id = kInvalidTimer;  // scheduling order; eligible()[0] is FIFO head
    TimePoint at = 0;
    std::string label;  // empty = unlabelled (dependent with everything)
  };

  /// All events at the earliest pending timestamp, in FIFO (id) order.
  /// Empty when idle. Firing eligible()[0] is exactly what step() does.
  [[nodiscard]] std::vector<EligibleEvent> eligible() const;

  /// Fire the eligible event `id` out of FIFO order. Returns false (and
  /// fires nothing) if `id` is unknown, cancelled, or not at the earliest
  /// pending timestamp — a chosen event may have been cancelled by a
  /// sibling that ran before it, so callers must re-read eligible().
  bool step_event(TimerId id);

  /// The id of `label`, interned on first use; "" is always 0.
  std::uint32_t label_id(const std::string& label);

  /// While in scope, events scheduled on this queue are stamped with
  /// `label` (the host they act on) for the model checker's independence
  /// relation. Nests: the previous label is restored on destruction.
  class LabelScope {
   public:
    LabelScope(EventQueue& q, std::string label)
        : LabelScope(q, q.label_id(label)) {}
    /// Stamp with a label id from label_id(), without hashing the name.
    LabelScope(EventQueue& q, std::uint32_t label)
        : q_(q), prev_(q.schedule_label_) {
      q_.schedule_label_ = label;
    }
    ~LabelScope() { q_.schedule_label_ = prev_; }
    LabelScope(const LabelScope&) = delete;
    LabelScope& operator=(const LabelScope&) = delete;

   private:
    EventQueue& q_;
    std::uint32_t prev_;
  };

  [[nodiscard]] std::size_t pending() const { return timers_.size(); }
  [[nodiscard]] std::size_t executed() const { return executed_; }

 private:
  using Timers = TimerQueue<std::uint32_t>;  // tag: the event's label id

  /// Run one event already taken out of the queue (so a self-cancel is a
  /// no-op). Shared by step() and step_event(): advances the clock and
  /// propagates the event's label to anything the closure schedules.
  void fire(Timers::Timer ev);

  VirtualClock clock_;
  Timers timers_;
  std::size_t executed_ = 0;
  std::uint32_t schedule_label_ = 0;  // stamped on newly scheduled events
  std::vector<std::string> labels_{""};  // by label id
  std::unordered_map<std::string, std::uint32_t> label_ids_;
};

}  // namespace ew::sim
