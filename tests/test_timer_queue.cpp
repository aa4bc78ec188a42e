// The one timer core: TimerQueue's own contract, then the same contract
// checked through both Executors that wrap it (Reactor in real time,
// sim::EventQueue in virtual time) by one typed test.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.hpp"
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
