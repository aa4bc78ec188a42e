// The one timer core: TimerQueue's own contract, then the same contract
// checked through both Executors that wrap it (Reactor in real time,
// sim::EventQueue in virtual time) by one typed test.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.hpp"
#include "common/rng.hpp"
#include "net/executor.hpp"
#include "net/reactor.hpp"
#include "net/timer_queue.hpp"
#include "sim/event_queue.hpp"

namespace ew {
namespace {

// ---- TimerQueue ----------------------------------------------------------

TEST(TimerQueue, IdsStartAtOneAndIncrease) {
  TimerQueue<> q;
  EXPECT_EQ(q.add(0, 5, [] {}), 1u);
  EXPECT_EQ(q.add(0, 1, [] {}), 2u);
  EXPECT_EQ(q.add(0, 9, [] {}), 3u);
  EXPECT_EQ(q.size(), 3u);
}

TEST(TimerQueue, PopsByDeadlineThenAddOrder) {
  TimerQueue<> q;
  const TimerId late = q.add(100, 50, [] {});
  const TimerId tie_a = q.add(100, 10, [] {});
  const TimerId early = q.add(100, 5, [] {});
  const TimerId tie_b = q.add(105, 5, [] {});  // same deadline as tie_a
  EXPECT_EQ(q.next_at(), 105);
  std::vector<TimerId> order;
  while (!q.empty()) order.push_back(q.pop().id);
  EXPECT_EQ(order, (std::vector<TimerId>{early, tie_a, tie_b, late}));
}

TEST(TimerQueue, NegativeDelayIsClampedToNow) {
  TimerQueue<> q;
  const TimerId id = q.add(1000, -400, [] {});
  EXPECT_EQ(q.deadline(id), std::optional<TimePoint>(1000));
  EXPECT_EQ(q.pop().at, 1000);
}

TEST(TimerQueue, PoppedTimerHasLeftTheIndex) {
  TimerQueue<> q;
  int ran = 0;
  const TimerId id = q.add(0, 1, [&] { ++ran; });
  TimerQueue<>::Timer t = q.pop();
  EXPECT_EQ(t.id, id);
  EXPECT_FALSE(q.deadline(id).has_value());
  q.cancel(id);  // the timer is out of the queue: nothing to cancel
  t.fn();
  EXPECT_EQ(ran, 1);
  EXPECT_TRUE(q.empty());
}

TEST(TimerQueue, CancelInvalidUnknownOrFiredIsNoOp) {
  TimerQueue<> q;
  const TimerId a = q.add(0, 1, [] {});
  const TimerId b = q.add(0, 2, [] {});
  q.cancel(kInvalidTimer);
  q.cancel(b + 100);
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.pop().id, a);
  q.cancel(a);  // already fired
  EXPECT_EQ(q.size(), 1u);
  q.cancel(b);
  q.cancel(b);  // twice
  EXPECT_TRUE(q.empty());
}

TEST(TimerQueue, TakeRemovesExactlyThatTimer) {
  TimerQueue<std::string> q;
  const TimerId a = q.add(0, 5, [] {}, "a");
  const TimerId b = q.add(0, 5, [] {}, "b");
  const TimerId c = q.add(0, 9, [] {}, "c");
  auto t = q.take(b);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->id, b);
  EXPECT_EQ(t->at, 5);
  EXPECT_EQ(t->tag, "b");
  EXPECT_FALSE(q.take(b).has_value());  // gone
  EXPECT_FALSE(q.take(kInvalidTimer).has_value());
  EXPECT_EQ(q.pop().id, a);
  EXPECT_EQ(q.pop().id, c);
}

TEST(TimerQueue, ForEachEarliestVisitsTheEarliestGroupInOrder) {
  TimerQueue<std::string> q;
  q.add(0, 9, [] {}, "later");
  const TimerId a = q.add(0, 3, [] {}, "a");
  const TimerId b = q.add(0, 3, [] {}, "b");
  std::vector<std::pair<TimerId, std::string>> seen;
  q.for_each_earliest([&](TimerId id, TimePoint at, const std::string& tag) {
    EXPECT_EQ(at, 3);
    seen.emplace_back(id, tag);
  });
  EXPECT_EQ(seen, (std::vector<std::pair<TimerId, std::string>>{{a, "a"}, {b, "b"}}));
  TimerQueue<> empty;
  empty.for_each_earliest([](TimerId, TimePoint, const Empty&) { FAIL(); });
}

// 100k random add/cancel/take/pop operations against a reference model: a
// multimap from deadline to id (equal deadlines keep insertion order, which
// is id order) plus an id -> deadline map. Deadlines are drawn from a narrow
// window so ties are common, phases alternate between growing and draining
// the queue, and cancel/take pick any pending id, so most removals come from
// the middle of the heap. Each timer's tag and callable must be its own.
TEST(TimerQueue, MatchesAReferenceModelOverRandomOperations) {
  TimerQueue<std::uint64_t> q;
  std::multimap<TimePoint, TimerId> order;
  std::map<TimerId, TimePoint> pending;
  Rng rng(0x71AE);
  TimePoint now = 0;
  TimerId last_id = 0;
  TimerId ran = kInvalidTimer;  // set by the callable that last ran

  auto forget = [&](TimerId id) {
    const TimePoint at = pending.at(id);
    auto [lo, hi] = order.equal_range(at);
    for (auto it = lo; it != hi; ++it) {
      if (it->second == id) {
        order.erase(it);
        break;
      }
    }
    pending.erase(id);
  };
  // A pending id (from anywhere in the queue) or, one time in four, an id
  // that is invalid, already gone or never issued.
  auto pick = [&]() -> TimerId {
    if (pending.empty() || rng.below(4) == 0) return rng.below(last_id + 3);
    const auto it = pending.lower_bound(1 + rng.below(last_id));
    return it == pending.end() ? pending.begin()->first : it->first;
  };
  auto expect_timer = [&](const TimerQueue<std::uint64_t>::Timer& t, TimerId id,
                          TimePoint at) {
    EXPECT_EQ(t.id, id);
    EXPECT_EQ(t.at, at);
    EXPECT_EQ(t.tag, id * 7);
    t.fn();
    EXPECT_EQ(ran, id);
  };

  constexpr int kOps = 100'000;
  for (int op = 0; op < kOps; ++op) {
    const bool growing = (op / 5'000) % 2 == 0;
    const std::uint64_t roll = rng.below(100);
    if (roll < (growing ? 55u : 25u)) {
      const Duration delay = static_cast<Duration>(rng.below(64)) - 8;
      const TimerId id = last_id + 1;
      ASSERT_EQ(q.add(now, delay, [&ran, id] { ran = id; }, id * 7), id);
      last_id = id;
      const TimePoint at = now + (delay < 0 ? 0 : delay);
      order.emplace(at, id);
      pending.emplace(id, at);
    } else if (roll < 70) {
      const TimerId id = pick();
      const bool was_pending = pending.contains(id);
      q.cancel(id);
      if (was_pending) forget(id);
      ASSERT_FALSE(q.deadline(id).has_value());
    } else if (roll < 80) {
      const TimerId id = pick();
      auto t = q.take(id);
      ASSERT_EQ(t.has_value(), pending.contains(id));
      if (t) {
        const TimePoint at = pending.at(id);
        forget(id);
        expect_timer(*t, id, at);
      }
    } else if (!order.empty()) {
      const auto [at, id] = *order.begin();
      order.erase(order.begin());
      pending.erase(id);
      expect_timer(q.pop(), id, at);
      now = at;
    }

    ASSERT_EQ(q.size(), pending.size());
    ASSERT_EQ(q.empty(), pending.empty());
    if (!order.empty()) {
      ASSERT_EQ(q.next_at(), order.begin()->first);
    }
    const TimerId probe = pick();
    const auto it = pending.find(probe);
    ASSERT_EQ(q.deadline(probe),
              it == pending.end() ? std::nullopt : std::optional<TimePoint>(it->second));
    if (op % 997 == 0 && !order.empty()) {
      std::vector<TimerId> want;
      for (auto [lo, hi] = order.equal_range(order.begin()->first); lo != hi; ++lo) {
        want.push_back(lo->second);
      }
      std::vector<TimerId> seen;
      q.for_each_earliest([&](TimerId id, TimePoint, const std::uint64_t&) { seen.push_back(id); });
      ASSERT_EQ(seen, want);
    }
  }
  // Drain: the rest come out in (deadline, id) order.
  while (!order.empty()) {
    const auto [at, id] = *order.begin();
    order.erase(order.begin());
    expect_timer(q.pop(), id, at);
  }
  EXPECT_TRUE(q.empty());
}

// ---- The contract through both executors --------------------------------

// Each driver owns one executor and runs it until every timer scheduled a
// few `unit`s ahead has fired.
struct ReactorDriver {
  static constexpr Duration unit = 2 * kMillisecond;
  Reactor ex;
  void drain() { ex.run_for(40 * kMillisecond); }
};

struct EventQueueDriver {
  static constexpr Duration unit = kSecond;
  sim::EventQueue ex;
  void drain() { ex.run_until_idle(); }
};

template <typename Driver>
class TimerQueueContract : public ::testing::Test {
 protected:
  Driver d_;
  Executor& ex() { return d_.ex; }
  static constexpr Duration unit = Driver::unit;
};

using Drivers = ::testing::Types<ReactorDriver, EventQueueDriver>;
TYPED_TEST_SUITE(TimerQueueContract, Drivers);

TYPED_TEST(TimerQueueContract, EqualDelaysFireInScheduleOrder) {
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    this->ex().schedule(this->unit, [&order, i] { order.push_back(i); });
  }
  this->d_.drain();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TYPED_TEST(TimerQueueContract, SelfCancelInsideOwnClosureIsNoOp) {
  Executor& ex = this->ex();
  std::vector<int> order;
  TimerId self = kInvalidTimer;
  self = ex.schedule(this->unit, [&] {
    ex.cancel(self);
    order.push_back(1);
  });
  ex.schedule(2 * this->unit, [&] { order.push_back(2); });
  this->d_.drain();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TYPED_TEST(TimerQueueContract, SiblingCancelledMidDispatchNeverFires) {
  Executor& ex = this->ex();
  std::vector<int> order;
  TimerId sibling = kInvalidTimer;
  ex.schedule(this->unit, [&] {
    order.push_back(1);
    ex.cancel(sibling);
  });
  sibling = ex.schedule(this->unit, [&] { order.push_back(2); });
  ex.schedule(this->unit, [&] { order.push_back(3); });
  this->d_.drain();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TYPED_TEST(TimerQueueContract, CancelAfterFireIsNoOp) {
  Executor& ex = this->ex();
  int fired = 0;
  const TimerId a = ex.schedule(this->unit, [&] { fired += 1; });
  this->d_.drain();
  ASSERT_EQ(fired, 1);
  ex.cancel(a);
  ex.schedule(this->unit, [&] { fired += 10; });
  ex.cancel(a);  // ids are never reused: the new timer is untouched
  this->d_.drain();
  EXPECT_EQ(fired, 11);
}

TYPED_TEST(TimerQueueContract, CancelInvalidTimerIsNoOp) {
  Executor& ex = this->ex();
  int fired = 0;
  ex.schedule(this->unit, [&] { ++fired; });
  ex.cancel(kInvalidTimer);
  this->d_.drain();
  EXPECT_EQ(fired, 1);
}

TYPED_TEST(TimerQueueContract, NegativeDelayIsClampedToZero) {
  Executor& ex = this->ex();
  std::vector<int> order;
  const TimePoint t0 = ex.now();
  ex.schedule(0, [&] { order.push_back(1); });
  // Unclamped, this deadline would precede the one above and fire first.
  ex.schedule(-10 * this->unit, [&] {
    order.push_back(2);
    EXPECT_GE(ex.now(), t0);
  });
  this->d_.drain();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

}  // namespace
}  // namespace ew
