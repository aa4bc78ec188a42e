// Tests for the simulated network: event queue, network model, transport.
#include <gtest/gtest.h>

#include "net/node.hpp"
#include "sim/event_queue.hpp"
#include "sim/network_model.hpp"
#include "sim/sim_transport.hpp"
#include "sim/traces.hpp"

namespace ew::sim {
namespace {

// --- EventQueue --------------------------------------------------------------

TEST(EventQueue, ExecutesInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(3 * kSecond, [&] { order.push_back(3); });
  q.schedule(1 * kSecond, [&] { order.push_back(1); });
  q.schedule(2 * kSecond, [&] { order.push_back(2); });
  q.run_until_idle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.clock().now(), 3 * kSecond);
}

TEST(EventQueue, EqualTimesFireInScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(kSecond, [&order, i] { order.push_back(i); });
  }
  q.run_until_idle();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool fired = false;
  const TimerId id = q.schedule(kSecond, [&] { fired = true; });
  q.cancel(id);
  q.run_until_idle();
  EXPECT_FALSE(fired);
  q.cancel(id);  // double-cancel is a no-op
}

TEST(EventQueue, CancelAfterFireIsNoOp) {
  EventQueue q;
  const TimerId id = q.schedule(0, [] {});
  q.run_until_idle();
  q.cancel(id);
  EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueue, RunUntilAdvancesClockExactly) {
  EventQueue q;
  int fired = 0;
  q.schedule(10 * kSecond, [&] { ++fired; });
  q.run_until(5 * kSecond);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(q.clock().now(), 5 * kSecond);
  q.run_until(10 * kSecond);
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, EventsScheduleMoreEvents) {
  EventQueue q;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 5) q.schedule(kSecond, chain);
  };
  q.schedule(0, chain);
  q.run_until_idle();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(q.clock().now(), 4 * kSecond);
}

TEST(EventQueue, PostRunsAtCurrentTime) {
  EventQueue q(100);
  TimePoint seen = -1;
  q.post([&] { seen = q.clock().now(); });
  q.run_until_idle();
  EXPECT_EQ(seen, 100);
}

TEST(EventQueue, LivelockGuardThrows) {
  EventQueue q;
  std::function<void()> forever = [&] { q.post(forever); };
  q.post(forever);
  EXPECT_THROW(q.run_until_idle(1000), std::runtime_error);
}

TEST(EventQueue, LimitEqualToTheEventCountDrainsWithoutThrowing) {
  EventQueue q;
  int ran = 0;
  for (int i = 0; i < 10; ++i) q.schedule(i * kSecond, [&] { ++ran; });
  EXPECT_EQ(q.run_until_idle(10), 10u);
  EXPECT_EQ(ran, 10);
  EXPECT_EQ(q.pending(), 0u);
}

// --- Traces --------------------------------------------------------------------

TEST(Ar1Process, StaysInBounds) {
  Ar1Process p({.mu = 0.7, .theta = 0.2, .sigma = 0.3, .lo = 0.1, .hi = 1.0},
               Rng(1), 0.7);
  for (int i = 0; i < 10'000; ++i) {
    const double v = p.step();
    EXPECT_GE(v, 0.1);
    EXPECT_LE(v, 1.0);
  }
}

TEST(Ar1Process, RevertsTowardMean) {
  Ar1Process p({.mu = 0.8, .theta = 0.3, .sigma = 0.02, .lo = 0.0, .hi = 1.0},
               Rng(2), 0.1);
  double sum = 0;
  for (int i = 0; i < 200; ++i) p.step();
  for (int i = 0; i < 2000; ++i) sum += p.step();
  EXPECT_NEAR(sum / 2000, 0.8, 0.1);
}

TEST(Ar1Process, PressureDepressesMean) {
  Ar1Process p({.mu = 0.9, .theta = 0.3, .sigma = 0.02, .lo = 0.0, .hi = 1.0},
               Rng(3), 0.9);
  p.set_pressure(0.5);
  for (int i = 0; i < 200; ++i) p.step();
  double sum = 0;
  for (int i = 0; i < 1000; ++i) sum += p.step();
  EXPECT_NEAR(sum / 1000, 0.45, 0.1);
}

TEST(DurationSampler, PositiveDurationsWithRequestedMean) {
  DurationSampler s({.mean_up = kHour, .mean_down = 10 * kMinute, .up_sigma = 1.0},
                    Rng(4));
  double up_sum = 0, down_sum = 0;
  const int n = 20'000;
  for (int i = 0; i < n; ++i) {
    const Duration u = s.next_up();
    const Duration d = s.next_down();
    EXPECT_GE(u, kSecond);
    EXPECT_GE(d, kSecond);
    up_sum += static_cast<double>(u);
    down_sum += static_cast<double>(d);
  }
  EXPECT_NEAR(up_sum / n / static_cast<double>(kHour), 1.0, 0.15);
  EXPECT_NEAR(down_sum / n / static_cast<double>(10 * kMinute), 1.0, 0.1);
}

TEST(SpikeSchedule, ActiveLookup) {
  SpikeSchedule s;
  Spike first;
  first.start = 100;
  first.end = 200;
  first.congestion = 2.0;
  Spike second;
  second.start = 300;
  second.end = 400;
  second.congestion = 3.0;
  s.add(first);
  s.add(second);
  EXPECT_EQ(s.active(50), nullptr);
  ASSERT_NE(s.active(150), nullptr);
  EXPECT_DOUBLE_EQ(s.active(150)->congestion, 2.0);
  EXPECT_EQ(s.active(200), nullptr);  // end-exclusive
  EXPECT_DOUBLE_EQ(s.active(399)->congestion, 3.0);
}

// --- NetworkModel ---------------------------------------------------------------

TEST(NetworkModel, SameSiteFasterThanCrossSite) {
  NetworkModel net(Rng(5));
  net.set_loss_rate(0.0);
  net.set_jitter_sigma(0.0);
  net.set_site("a", "s1");
  net.set_site("b", "s1");
  net.set_site("c", "s2");
  const auto same = net.sample("a", "b", 100);
  const auto cross = net.sample("a", "c", 100);
  ASSERT_TRUE(same.deliver);
  ASSERT_TRUE(cross.deliver);
  EXPECT_LT(same.latency, cross.latency);
}

TEST(NetworkModel, CongestionScalesLatency) {
  NetworkModel net(Rng(6));
  net.set_loss_rate(0.0);
  net.set_jitter_sigma(0.0);
  net.set_site("a", "s1");
  net.set_site("b", "s2");
  const auto base = net.sample("a", "b", 0);
  net.set_congestion(3.0);
  const auto loaded = net.sample("a", "b", 0);
  EXPECT_NEAR(static_cast<double>(loaded.latency),
              3.0 * static_cast<double>(base.latency), 2.0);
}

TEST(NetworkModel, PartitionBlocksBothDirections) {
  NetworkModel net(Rng(7));
  net.set_site("a", "s1");
  net.set_site("b", "s2");
  net.set_partitioned("s1", "s2", true);
  EXPECT_FALSE(net.sample("a", "b", 10).deliver);
  EXPECT_FALSE(net.sample("b", "a", 10).deliver);
  net.set_partitioned("s2", "s1", false);  // order-insensitive
  EXPECT_TRUE(net.sample("a", "b", 10).deliver ||
              net.sample("a", "b", 10).deliver);
}

TEST(NetworkModel, LossRateApproximatelyHonored) {
  NetworkModel net(Rng(8));
  net.set_loss_rate(0.25);
  int lost = 0;
  const int n = 20'000;
  for (int i = 0; i < n; ++i) lost += net.sample("a", "b", 10).deliver ? 0 : 1;
  EXPECT_NEAR(static_cast<double>(lost) / n, 0.25, 0.02);
}

TEST(NetworkModel, LargerMessagesSlowerCrossSite) {
  NetworkModel net(Rng(9));
  net.set_loss_rate(0.0);
  net.set_jitter_sigma(0.0);
  net.set_site("a", "s1");
  net.set_site("b", "s2");
  EXPECT_LT(net.sample("a", "b", 100).latency,
            net.sample("a", "b", 1'000'000).latency);
}

TEST(NetworkModel, ExplicitPairLatencyUsed) {
  NetworkModel net(Rng(10));
  net.set_loss_rate(0.0);
  net.set_jitter_sigma(0.0);
  net.set_cross_site_bandwidth(0);
  net.set_site("a", "s1");
  net.set_site("b", "s2");
  net.set_base_latency("s1", "s2", 123 * kMillisecond);
  EXPECT_EQ(net.sample("a", "b", 0).latency, 123 * kMillisecond);
}

// --- SimTransport -----------------------------------------------------------------

class SimTransportTest : public ::testing::Test {
 protected:
  SimTransportTest() : net(Rng(11)), transport(events, net) {
    net.set_loss_rate(0.0);
    net.set_jitter_sigma(0.0);
  }
  EventQueue events;
  NetworkModel net;
  SimTransport transport;
};

TEST_F(SimTransportTest, DeliversBetweenBoundEndpoints) {
  std::optional<IncomingMessage> got;
  ASSERT_TRUE(transport
                  .bind(Endpoint{"b", 1},
                        [&](IncomingMessage m) { got = std::move(m); })
                  .ok());
  Packet p;
  p.type = 42;
  EXPECT_TRUE(transport.send(Endpoint{"a", 1}, Endpoint{"b", 1}, p).ok());
  events.run_until_idle();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->packet.type, 42);
  EXPECT_EQ(got->from, (Endpoint{"a", 1}));
}

TEST_F(SimTransportTest, RefusedWhenHostUpButPortUnbound) {
  const Status s = transport.send(Endpoint{"a", 1}, Endpoint{"b", 1}, Packet{});
  EXPECT_EQ(s.code(), Err::kRefused);
}

TEST_F(SimTransportTest, SilentDropWhenHostDown) {
  bool delivered = false;
  transport.bind(Endpoint{"b", 1}, [&](IncomingMessage) { delivered = true; });
  transport.set_host_up("b", false);
  // The sender cannot tell: send() succeeds, nothing arrives.
  EXPECT_TRUE(transport.send(Endpoint{"a", 1}, Endpoint{"b", 1}, Packet{}).ok());
  events.run_until_idle();
  EXPECT_FALSE(delivered);
  EXPECT_EQ(transport.packets_dropped(), 1u);
}

TEST_F(SimTransportTest, SenderDownFailsImmediately) {
  transport.bind(Endpoint{"b", 1}, [](IncomingMessage) {});
  transport.set_host_up("a", false);
  EXPECT_EQ(transport.send(Endpoint{"a", 1}, Endpoint{"b", 1}, Packet{}).code(),
            Err::kUnavailable);
}

TEST_F(SimTransportTest, ReceiverDiesInFlight) {
  bool delivered = false;
  transport.bind(Endpoint{"b", 1}, [&](IncomingMessage) { delivered = true; });
  net.set_site("a", "s1");
  net.set_site("b", "s2");  // cross-site: nonzero latency
  transport.send(Endpoint{"a", 1}, Endpoint{"b", 1}, Packet{});
  transport.set_host_up("b", false);  // dies before delivery
  events.run_until_idle();
  EXPECT_FALSE(delivered);
}

TEST_F(SimTransportTest, UnbindDropsInFlight) {
  bool delivered = false;
  transport.bind(Endpoint{"b", 1}, [&](IncomingMessage) { delivered = true; });
  net.set_site("a", "s1");
  net.set_site("b", "s2");
  transport.send(Endpoint{"a", 1}, Endpoint{"b", 1}, Packet{});
  transport.unbind(Endpoint{"b", 1});
  events.run_until_idle();
  EXPECT_FALSE(delivered);
}

TEST_F(SimTransportTest, DoubleBindRejected) {
  EXPECT_TRUE(transport.bind(Endpoint{"x", 1}, [](IncomingMessage) {}).ok());
  EXPECT_EQ(transport.bind(Endpoint{"x", 1}, [](IncomingMessage) {}).code(),
            Err::kRejected);
}

TEST_F(SimTransportTest, BytesAccounted) {
  transport.bind(Endpoint{"b", 1}, [](IncomingMessage) {});
  Packet p;
  p.payload = Bytes(100, 0);
  transport.send(Endpoint{"a", 1}, Endpoint{"b", 1}, p);
  events.run_until_idle();
  EXPECT_EQ(transport.bytes_sent(), wire::kHeaderSize + 100);
}

}  // namespace
}  // namespace ew::sim
