// Tests for the Node RPC multiplexer over the simulated transport on a quiet
// network (no loss, no jitter, zero latency unless a test sets one).
#include <gtest/gtest.h>

#include "net/node.hpp"
#include "obs/registry.hpp"
#include "sim/event_queue.hpp"
#include "sim/network_model.hpp"
#include "sim/sim_transport.hpp"

namespace ew {
namespace {

constexpr MsgType kEcho = 0x10;
constexpr MsgType kFailing = 0x11;
constexpr MsgType kSilent = 0x12;

class NodeTest : public ::testing::Test {
 protected:
  NodeTest()
      : server(events, transport, Endpoint{"server", 1}),
        client(events, transport, Endpoint{"client", 1}) {
    net.set_loss_rate(0.0);
    net.set_jitter_sigma(0.0);
    net.set_default_latencies(0, 0);
    EXPECT_TRUE(server.start().ok());
    EXPECT_TRUE(client.start().ok());
    server.handle(kEcho, [](const IncomingMessage& m, Responder r) {
      r.ok(m.packet.payload);
    });
    server.handle(kFailing, [](const IncomingMessage&, Responder r) {
      r.fail(Err::kRejected, "not today");
    });
    server.handle(kSilent, [](const IncomingMessage&, Responder) {
      // never replies; client must time out
    });
  }

  sim::EventQueue events;
  sim::NetworkModel net{Rng(1)};
  sim::SimTransport transport{events, net};
  Node server;
  Node client;
};

TEST_F(NodeTest, RequestResponseRoundTrip) {
  std::optional<Result<Bytes>> got;
  client.call(server.self(), kEcho, {1, 2, 3}, CallOptions::fixed(kSecond),
              [&](Result<Bytes> r) { got = std::move(r); });
  events.run_until_idle();
  ASSERT_TRUE(got.has_value());
  ASSERT_TRUE(got->ok());
  EXPECT_EQ(got->value(), (Bytes{1, 2, 3}));
}

TEST_F(NodeTest, ReplyBodyArrivesByteForByte) {
  // The status byte is stripped and nothing else: an empty body stays empty,
  // and every byte value (a leading 0 or 1 included) survives in order.
  Bytes every(4096);
  for (std::size_t i = 0; i < every.size(); ++i) {
    every[i] = static_cast<std::uint8_t>(i * 7);
  }
  for (const Bytes& body : {Bytes{}, Bytes{0}, Bytes{1, 0, 0}, every}) {
    std::optional<Result<Bytes>> got;
    client.call(server.self(), kEcho, body, CallOptions::fixed(kSecond),
                [&](Result<Bytes> r) { got = std::move(r); });
    events.run_until_idle();
    ASSERT_TRUE(got.has_value());
    ASSERT_TRUE(got->ok());
    EXPECT_EQ(got->value(), body);
  }
}

TEST_F(NodeTest, ServerRejectionSurfacesCodeAndMessage) {
  std::optional<Result<Bytes>> got;
  client.call(server.self(), kFailing, {}, CallOptions::fixed(kSecond),
              [&](Result<Bytes> r) { got = std::move(r); });
  events.run_until_idle();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->code(), Err::kRejected);
  EXPECT_EQ(got->error().message, "not today");
}

TEST_F(NodeTest, MissingHandlerRejects) {
  std::optional<Result<Bytes>> got;
  client.call(server.self(), 0x7777, {}, CallOptions::fixed(kSecond),
              [&](Result<Bytes> r) { got = std::move(r); });
  events.run_until_idle();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->code(), Err::kRejected);
}

TEST_F(NodeTest, SilentServerTimesOut) {
  std::optional<Result<Bytes>> got;
  client.call(server.self(), kSilent, {}, CallOptions::fixed(500 * kMillisecond),
              [&](Result<Bytes> r) { got = std::move(r); });
  events.run_until_idle();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->code(), Err::kTimeout);
  EXPECT_EQ(events.clock().now(), 500 * kMillisecond);
  EXPECT_EQ(client.outstanding_calls(), 0u);
}

TEST_F(NodeTest, UnboundEndpointFailsFast) {
  std::optional<Result<Bytes>> got;
  client.call(Endpoint{"ghost", 9}, kEcho, {}, CallOptions::fixed(kSecond),
              [&](Result<Bytes> r) { got = std::move(r); });
  events.run_until_idle();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->code(), Err::kRefused);
  // Fail-fast must not leave the timeout timer pending.
  EXPECT_EQ(client.outstanding_calls(), 0u);
}

TEST_F(NodeTest, DroppedRequestTimesOut) {
  transport.set_drop_fn([](const Endpoint&, const Endpoint& to, const Packet&) {
    return to.host == "server";
  });
  std::optional<Result<Bytes>> got;
  client.call(server.self(), kEcho, {}, CallOptions::fixed(300 * kMillisecond),
              [&](Result<Bytes> r) { got = std::move(r); });
  events.run_until_idle();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->code(), Err::kTimeout);
}

TEST_F(NodeTest, LateResponseAfterTimeoutIsDropped) {
  // deliver after the 1 s timeout
  net.set_default_latencies(2 * kSecond, 2 * kSecond);
  int called = 0;
  client.call(server.self(), kEcho, {5}, CallOptions::fixed(kSecond), [&](Result<Bytes> r) {
    ++called;
    EXPECT_EQ(r.code(), Err::kTimeout);
  });
  events.run_until_idle();
  EXPECT_EQ(called, 1);  // exactly once, with the timeout
}

TEST_F(NodeTest, OneWayDelivered) {
  int received = 0;
  server.handle(0x55, [&](const IncomingMessage& m, Responder) {
    ++received;
    EXPECT_EQ(m.packet.kind, PacketKind::kOneWay);
  });
  EXPECT_TRUE(client.send_oneway(server.self(), 0x55, {1}).ok());
  events.run_until_idle();
  EXPECT_EQ(received, 1);
}

TEST_F(NodeTest, RttObserverSeesSuccessAndFailure) {
  struct Obs {
    Endpoint to;
    MsgType type;
    Duration rtt;
    bool ok;
  };
  std::vector<Obs> seen;
  net.set_default_latencies(100 * kMillisecond, 100 * kMillisecond);
  client.set_rtt_observer([&](const Endpoint& to, MsgType t, Duration rtt, bool ok) {
    seen.push_back({to, t, rtt, ok});
  });
  client.call(server.self(), kEcho, {}, CallOptions::fixed(kSecond), [](Result<Bytes>) {});
  client.call(server.self(), kSilent, {}, CallOptions::fixed(400 * kMillisecond), [](Result<Bytes>) {});
  events.run_until_idle();
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_TRUE(seen[0].ok);
  EXPECT_EQ(seen[0].type, kEcho);
  EXPECT_EQ(seen[0].rtt, 200 * kMillisecond);  // two hops
  EXPECT_FALSE(seen[1].ok);
  EXPECT_EQ(seen[1].rtt, 400 * kMillisecond);
}

TEST_F(NodeTest, ServerRejectionCountsAsSuccessfulRoundTrip) {
  std::vector<bool> oks;
  client.set_rtt_observer(
      [&](const Endpoint&, MsgType, Duration, bool ok) { oks.push_back(ok); });
  client.call(server.self(), kFailing, {}, CallOptions::fixed(kSecond), [](Result<Bytes>) {});
  events.run_until_idle();
  ASSERT_EQ(oks.size(), 1u);
  EXPECT_TRUE(oks[0]);  // the server responded; the transport worked
}

TEST_F(NodeTest, DoubleReplyIsHarmless) {
  server.handle(0x66, [](const IncomingMessage&, Responder r) {
    r.ok({1});
    r.ok({2});              // ignored
    r.fail(Err::kInternal);  // ignored
  });
  std::optional<Result<Bytes>> got;
  client.call(server.self(), 0x66, {}, CallOptions::fixed(kSecond),
              [&](Result<Bytes> r) { got = std::move(r); });
  events.run_until_idle();
  ASSERT_TRUE(got.has_value());
  ASSERT_TRUE(got->ok());
  EXPECT_EQ(got->value(), Bytes{1});
}

TEST_F(NodeTest, DeferredReplyWorks) {
  // A handler may hold the Responder and reply later (schedulers do this).
  std::optional<Responder> held;
  server.handle(0x67, [&](const IncomingMessage&, Responder r) { held = r; });
  std::optional<Result<Bytes>> got;
  client.call(server.self(), 0x67, {}, CallOptions::fixed(5 * kSecond),
              [&](Result<Bytes> r) { got = std::move(r); });
  events.run_for(kSecond);
  ASSERT_TRUE(held.has_value());
  EXPECT_FALSE(got.has_value());
  held->ok({42});
  events.run_until_idle();
  ASSERT_TRUE(got && got->ok());
  EXPECT_EQ(got->value(), Bytes{42});
}

TEST_F(NodeTest, StopAbandonsOutstandingCalls) {
  // Stop is a teardown operation: callbacks must NOT fire (their owners may
  // already be destroyed), and nothing may remain scheduled.
  std::optional<Result<Bytes>> got;
  client.call(server.self(), kSilent, {}, CallOptions::fixed(60 * kSecond),
              [&](Result<Bytes> r) { got = std::move(r); });
  events.run_for(kSecond);
  client.stop();
  EXPECT_FALSE(got.has_value());
  EXPECT_EQ(client.outstanding_calls(), 0u);
  events.run_until_idle();
  EXPECT_FALSE(got.has_value());
}

TEST_F(NodeTest, DoubleStartRejected) {
  EXPECT_EQ(server.start().code(), Err::kRejected);
}

TEST_F(NodeTest, BindConflictRejected) {
  Node dup(events, transport, Endpoint{"server", 1});
  EXPECT_EQ(dup.start().code(), Err::kRejected);
}

TEST_F(NodeTest, ProcessStatsTrackSpuriousTimeouts) {
  process_call_stats().reset();
  // Response slower than the time-out: the timer fires, then the late
  // response arrives and is recorded as a misjudgment.
  // RTT 600 ms
  net.set_default_latencies(300 * kMillisecond, 300 * kMillisecond);
  int called = 0;
  client.call(server.self(), kEcho, {}, CallOptions::fixed(400 * kMillisecond),
              [&](Result<Bytes>) { ++called; });
  events.run_until_idle();
  EXPECT_EQ(called, 1);
  obs::Registry& reg = process_call_stats().registry();
  EXPECT_EQ(reg.counter(obs::names::kNetTimeoutsFired).value(), 1u);
  EXPECT_EQ(reg.counter(obs::names::kNetLateResponses).value(), 1u);
  EXPECT_EQ(reg.histogram(obs::names::kNetTimeoutWaitUs).sum(),
            static_cast<std::uint64_t>(400 * kMillisecond));
  process_call_stats().reset();
  EXPECT_EQ(reg.counter(obs::names::kNetTimeoutsFired).value(), 0u);
}

TEST_F(NodeTest, ProcessStatsIgnoreHealthyCalls) {
  process_call_stats().reset();
  client.call(server.self(), kEcho, {}, CallOptions::fixed(kSecond), [](Result<Bytes>) {});
  events.run_until_idle();
  obs::Registry& reg = process_call_stats().registry();
  EXPECT_EQ(reg.counter(obs::names::kNetTimeoutsFired).value(), 0u);
  EXPECT_EQ(reg.counter(obs::names::kNetLateResponses).value(), 0u);
}

TEST_F(NodeTest, InjectedSinkReceivesStatsInsteadOfProcessAggregate) {
  AggregateCallStats local;
  client.call_policy().set_stats_sink(&local);
  process_call_stats().reset();
  client.call(server.self(), kEcho, {1}, CallOptions::fixed(kSecond), [](Result<Bytes>) {});
  events.run_until_idle();
  EXPECT_EQ(local.registry().counter(obs::names::kNetCallsStarted).value(), 1u);
  EXPECT_EQ(local.registry().counter(obs::names::kNetCallsOk).value(), 1u);
  EXPECT_EQ(local.registry().counter(obs::names::kNetAttempts).value(), 1u);
  obs::Registry& reg = process_call_stats().registry();
  EXPECT_EQ(reg.counter(obs::names::kNetCallsStarted).value(), 0u);
  client.call_policy().set_stats_sink(nullptr);  // restore the default
  client.call(server.self(), kEcho, {2}, CallOptions::fixed(kSecond), [](Result<Bytes>) {});
  events.run_until_idle();
  EXPECT_EQ(reg.counter(obs::names::kNetCallsStarted).value(), 1u);
  EXPECT_EQ(local.registry().counter(obs::names::kNetCallsStarted).value(), 1u);
}

TEST_F(NodeTest, ConcurrentCallsMatchBySequence) {
  // Two outstanding echoes with different payloads resolve to the right
  // callbacks even if responses interleave.
  std::vector<int> results(2, -1);
  client.call(server.self(), kEcho, {10}, CallOptions::fixed(kSecond),
              [&](Result<Bytes> r) { results[0] = r.value()[0]; });
  client.call(server.self(), kEcho, {20}, CallOptions::fixed(kSecond),
              [&](Result<Bytes> r) { results[1] = r.value()[0]; });
  events.run_until_idle();
  EXPECT_EQ(results[0], 10);
  EXPECT_EQ(results[1], 20);
}

}  // namespace
}  // namespace ew
