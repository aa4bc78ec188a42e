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

// Sites are named by set_site, set_base_latency and set_partitioned alike;
// naming more of them later must not disturb what was set before.
TEST(NetworkModel, LatenciesAndCutsSetBeforeMoreSitesAreNamedKeepTheirValues) {
  NetworkModel net(Rng(12));
  net.set_loss_rate(0.0);
  net.set_jitter_sigma(0.0);
  net.set_cross_site_bandwidth(0);
  net.set_site("a", "s1");
  net.set_site("b", "s2");
  net.set_site("c", "s3");
  net.set_base_latency("s2", "s1", 123 * kMillisecond);
  net.set_partitioned("s1", "s3", true);
  for (int i = 0; i < 40; ++i) {
    net.set_site('h' + std::to_string(i), 'x' + std::to_string(i));
  }
  net.set_base_latency("x7", "x9", 7 * kMillisecond);
  EXPECT_EQ(net.sample("a", "b", 0).latency, 123 * kMillisecond);
  EXPECT_EQ(net.sample("b", "a", 0).latency, 123 * kMillisecond);
  EXPECT_EQ(net.sample("h9", "h7", 0).latency, 7 * kMillisecond);
  EXPECT_EQ(net.sample("b", "c", 0).latency, 40 * kMillisecond);  // cross default
  EXPECT_EQ(net.sample("h1", "h1", 0).latency, 1 * kMillisecond);  // same default
  EXPECT_TRUE(net.partitioned("s1", "s3"));
  EXPECT_TRUE(net.partitioned("s3", "s1"));
  EXPECT_FALSE(net.sample("a", "c", 0).deliver);
  EXPECT_FALSE(net.sample("c", "a", 0).deliver);
  EXPECT_EQ(net.site_of("a"), "s1");
  EXPECT_EQ(net.site_of("h39"), "x39");
  EXPECT_EQ(net.site_of("never-named"), "wan");
}

TEST(NetworkModel, PartitionedOfASiteNeverNamedReadsFalse) {
  NetworkModel net(Rng(13));
  net.set_site("a", "s1");
  net.set_partitioned("s1", "s2", true);
  EXPECT_FALSE(net.partitioned("nowhere", "elsewhere"));
  EXPECT_FALSE(net.partitioned("s1", "nowhere"));
  EXPECT_FALSE(net.partitioned("nowhere", "s1"));
  EXPECT_FALSE(net.partitioned("nowhere", "nowhere"));
  EXPECT_TRUE(net.partitioned("s2", "s1"));
}

TEST(NetworkModel, CutsAreOrderInsensitiveAfterTheTableGrows) {
  NetworkModel net(Rng(14));
  net.set_loss_rate(0.0);
  net.set_site("a", "s1");
  net.set_site("b", "s2");
  net.set_partitioned("s2", "s1", true);
  for (int i = 0; i < 40; ++i) net.set_site('h' + std::to_string(i), 'x' + std::to_string(i));
  EXPECT_TRUE(net.partitioned("s1", "s2"));
  EXPECT_TRUE(net.partitioned("s2", "s1"));
  EXPECT_FALSE(net.sample("a", "b", 0).deliver);
  net.set_partitioned("x3", "x30", true);
  net.set_partitioned("s1", "s2", false);  // restored from the other order
  EXPECT_FALSE(net.partitioned("s1", "s2"));
  EXPECT_FALSE(net.partitioned("s2", "s1"));
  EXPECT_TRUE(net.sample("b", "a", 0).deliver);
  EXPECT_TRUE(net.partitioned("x30", "x3"));
  EXPECT_FALSE(net.sample("h30", "h3", 0).deliver);
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

// The handler is looked up when the packet lands, not when it was sent.
TEST_F(SimTransportTest, RebindBetweenSendAndDeliveryReachesTheNewHandler) {
  int old_handler = 0;
  int new_handler = 0;
  transport.bind(Endpoint{"b", 1}, [&](IncomingMessage) { ++old_handler; });
  net.set_site("a", "s1");
  net.set_site("b", "s2");
  ASSERT_TRUE(transport.send(Endpoint{"a", 1}, Endpoint{"b", 1}, Packet{}).ok());
  transport.unbind(Endpoint{"b", 1});
  transport.bind(Endpoint{"b", 1}, [&](IncomingMessage) { ++new_handler; });
  events.run_until_idle();
  EXPECT_EQ(old_handler, 0);
  EXPECT_EQ(new_handler, 1);
}

TEST_F(SimTransportTest, HostDownAndBackUpInFlightStillReceives) {
  bool delivered = false;
  transport.bind(Endpoint{"b", 1}, [&](IncomingMessage) { delivered = true; });
  net.set_site("a", "s1");
  net.set_site("b", "s2");
  ASSERT_TRUE(transport.send(Endpoint{"a", 1}, Endpoint{"b", 1}, Packet{}).ok());
  transport.set_host_up("b", false);
  transport.set_host_up("b", true);
  events.run_until_idle();
  EXPECT_TRUE(delivered);
}

// A handler that sends while its own packet is being delivered: every packet
// it sends lands intact and in send order.
TEST_F(SimTransportTest, SendsFromInsideADeliveryArriveIntactAndInOrder) {
  constexpr int kFanOut = 100;
  std::vector<IncomingMessage> got;
  transport.bind(Endpoint{"c", 3}, [&](IncomingMessage m) { got.push_back(std::move(m)); });
  transport.bind(Endpoint{"b", 2}, [&](IncomingMessage m) {
    for (int i = 0; i < kFanOut; ++i) {
      Packet p;
      p.type = static_cast<MsgType>(1000 + i);
      p.seq = m.packet.seq + static_cast<std::uint64_t>(i);
      p.payload = Bytes(static_cast<std::size_t>(i + 1), static_cast<std::uint8_t>(i));
      ASSERT_TRUE(transport.send(Endpoint{"b", 2}, Endpoint{"c", 3}, std::move(p)).ok());
    }
  });
  Packet first;
  first.seq = 7;
  ASSERT_TRUE(transport.send(Endpoint{"a", 1}, Endpoint{"b", 2}, first).ok());
  events.run_until_idle();
  ASSERT_EQ(got.size(), static_cast<std::size_t>(kFanOut));
  for (int i = 0; i < kFanOut; ++i) {
    const IncomingMessage& m = got[static_cast<std::size_t>(i)];
    EXPECT_EQ(m.from, (Endpoint{"b", 2}));
    EXPECT_EQ(m.packet.type, 1000 + i);
    EXPECT_EQ(m.packet.seq, 7u + static_cast<std::uint64_t>(i));
    EXPECT_EQ(m.packet.payload,
              Bytes(static_cast<std::size_t>(i + 1), static_cast<std::uint8_t>(i)));
  }
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
