// Tests for the reliable call layer: retry/hedge/breaker policies behind
// Node::call, wire Err round-trips, and the single-delivery guarantee.
#include <gtest/gtest.h>

#include "net/call_policy.hpp"
#include "net/node.hpp"
#include "obs/registry.hpp"
#include "sim/event_queue.hpp"
#include "sim/network_model.hpp"
#include "sim/sim_transport.hpp"

namespace ew {
namespace {

constexpr MsgType kEcho = 0x10;
constexpr MsgType kRejecting = 0x11;
constexpr MsgType kSilent = 0x12;
constexpr MsgType kShedding = 0x13;
constexpr MsgType kFlaky = 0x14;

class CallPolicyTest : public ::testing::Test {
 protected:
  CallPolicyTest()
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
    server.handle(kRejecting, [](const IncomingMessage&, Responder r) {
      r.fail(Err::kRejected, "not today");
    });
    server.handle(kSilent, [](const IncomingMessage&, Responder) {});
    server.handle(kShedding, [](const IncomingMessage&, Responder r) {
      r.fail(Err::kUnavailable, "shedding load");
    });
    // Isolate every test's counters from the process-wide aggregate.
    client.call_policy().set_stats_sink(&sink);
  }

  /// Drop the first `n` requests headed for the server; deliver the rest.
  void drop_first_requests(int n) {
    auto remaining = std::make_shared<int>(n);
    transport.set_drop_fn(
        [remaining](const Endpoint&, const Endpoint& to, const Packet& p) {
          if (to.host != "server" || p.kind != PacketKind::kRequest) return false;
          if (*remaining <= 0) return false;
          --*remaining;
          return true;
        });
  }

  void drop_all_requests() {
    transport.set_drop_fn([](const Endpoint&, const Endpoint& to,
                             const Packet& p) {
      return to.host == "server" && p.kind == PacketKind::kRequest;
    });
  }

  /// Teach the client's forecaster a clean 100 ms RTT for `type` so the
  /// dynamic time-out (tail p98 * 2.5 = 250 ms) and the hedge trigger
  /// (tail p95 = 100 ms) are exactly known.
  void seed_rtt(MsgType type, Duration rtt = 100 * kMillisecond) {
    const EventTag tag = EventTag::of(server.self(), type);
    for (int i = 0; i < 100; ++i) {
      client.call_policy().timeouts().on_result(tag, rtt, true);
    }
  }

  /// Read one of the sink's counters by its obs::names key.
  std::uint64_t stat(const char* name) const {
    return sink.registry().counter(name).value();
  }

  sim::EventQueue events;
  sim::NetworkModel net{Rng(1)};
  sim::SimTransport transport{events, net};
  Node server;
  Node client;
  AggregateCallStats sink;
};

// --------------------------------------------------------------------------
// Wire status codes.

TEST(WireErr, RoundTripsEveryCode) {
  for (Err e : {Err::kTimeout, Err::kClosed, Err::kRefused, Err::kProtocol,
                Err::kUnavailable, Err::kRejected, Err::kInternal}) {
    EXPECT_EQ(err_from_wire(err_to_wire(e)), e);
  }
  // kOk is not an error; a zero or out-of-range status byte must map to a
  // definite failure rather than round-tripping garbage.
  EXPECT_EQ(err_from_wire(err_to_wire(Err::kOk)), Err::kInternal);
  EXPECT_EQ(err_from_wire(0), Err::kInternal);
  EXPECT_EQ(err_from_wire(0xff), Err::kInternal);
}

TEST_F(CallPolicyTest, ServerErrCodeSurvivesTheWire) {
  std::optional<Result<Bytes>> got;
  client.call(server.self(), kShedding, {}, CallOptions::fixed(kSecond),
              [&](Result<Bytes> r) { got = std::move(r); });
  events.run_until_idle();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->code(), Err::kUnavailable);
  EXPECT_EQ(got->error().message, "shedding load");
}

// --------------------------------------------------------------------------
// Backoff.

TEST(RetryPolicyBackoff, DeterministicAndBounded) {
  RetryPolicy p;  // base 100 ms, x2, jitter 0.5
  EXPECT_EQ(p.backoff(1, 42), p.backoff(1, 42));
  EXPECT_NE(p.backoff(1, 42), p.backoff(1, 43));  // seeds decorrelate
  for (std::uint32_t prior = 1; prior <= 4; ++prior) {
    Duration expected_max = 100 * kMillisecond;
    for (std::uint32_t i = 1; i < prior; ++i) expected_max *= 2;
    const Duration b = p.backoff(prior, 7);
    EXPECT_LE(b, expected_max);
    EXPECT_GE(b, expected_max / 2);  // jitter only shortens, at most by half
  }
  p.jitter = 0;
  EXPECT_EQ(p.backoff(1, 99), 100 * kMillisecond);
  EXPECT_EQ(p.backoff(3, 99), 400 * kMillisecond);
  p.max_backoff = 300 * kMillisecond;
  EXPECT_EQ(p.backoff(5, 99), 300 * kMillisecond);
}

// --------------------------------------------------------------------------
// Retries.

TEST_F(CallPolicyTest, RetryRecoversFromLostRequest) {
  drop_first_requests(1);
  CallOptions o = CallOptions::fixed(200 * kMillisecond);
  o.retry = RetryPolicy::standard(3);
  std::optional<Result<Bytes>> got;
  client.call(server.self(), kEcho, {7}, std::move(o),
              [&](Result<Bytes> r) { got = std::move(r); });
  events.run_until_idle();
  ASSERT_TRUE(got && got->ok());
  EXPECT_EQ(got->value(), Bytes{7});
  EXPECT_EQ(stat(obs::names::kNetAttempts), 2u);
  EXPECT_EQ(stat(obs::names::kNetRetries), 1u);
  EXPECT_EQ(stat(obs::names::kNetTimeoutsFired), 1u);
  EXPECT_EQ(stat(obs::names::kNetCallsOk), 1u);
}

TEST_F(CallPolicyTest, RetryBudgetExhaustsToTimeout) {
  drop_all_requests();
  CallOptions o = CallOptions::fixed(100 * kMillisecond);
  o.retry = RetryPolicy::standard(3);
  o.retry.base_backoff = 50 * kMillisecond;
  o.retry.jitter = 0;
  std::optional<Result<Bytes>> got;
  client.call(server.self(), kEcho, {}, std::move(o),
              [&](Result<Bytes> r) { got = std::move(r); });
  events.run_until_idle();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->code(), Err::kTimeout);
  // 100 + 50 + 100 + 100 + 100: three attempts, two backoffs, no more.
  EXPECT_EQ(events.clock().now(), 450 * kMillisecond);
  EXPECT_EQ(stat(obs::names::kNetAttempts), 3u);
  EXPECT_EQ(stat(obs::names::kNetRetries), 2u);
  EXPECT_EQ(client.outstanding_calls(), 0u);
}

TEST_F(CallPolicyTest, RejectionIsNotRetried) {
  CallOptions o = CallOptions::fixed(kSecond);
  o.retry = RetryPolicy::standard(3);
  std::optional<Result<Bytes>> got;
  client.call(server.self(), kRejecting, {}, std::move(o),
              [&](Result<Bytes> r) { got = std::move(r); });
  events.run_until_idle();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->code(), Err::kRejected);
  EXPECT_EQ(got->error().message, "not today");
  EXPECT_EQ(stat(obs::names::kNetAttempts), 1u);
  EXPECT_EQ(stat(obs::names::kNetRetries), 0u);
}

TEST_F(CallPolicyTest, RetryRejectedOptInRetriesAppVerdicts) {
  int serves = 0;
  server.handle(kFlaky, [&](const IncomingMessage&, Responder r) {
    if (++serves == 1) {
      r.fail(Err::kRejected, "warming up");
    } else {
      r.ok({1});
    }
  });
  CallOptions o = CallOptions::fixed(kSecond);
  o.retry = RetryPolicy::standard(2);
  o.retry.retry_rejected = true;
  std::optional<Result<Bytes>> got;
  client.call(server.self(), kFlaky, {}, std::move(o),
              [&](Result<Bytes> r) { got = std::move(r); });
  events.run_until_idle();
  ASSERT_TRUE(got && got->ok());
  EXPECT_EQ(serves, 2);
  EXPECT_EQ(stat(obs::names::kNetAttempts), 2u);
}

TEST_F(CallPolicyTest, DeadlineBoundsRetries) {
  drop_all_requests();
  CallOptions o = CallOptions::fixed(400 * kMillisecond);
  o.deadline = kSecond;
  o.retry = RetryPolicy::standard(10);
  o.retry.base_backoff = 200 * kMillisecond;
  o.retry.jitter = 0;
  std::optional<Result<Bytes>> got;
  client.call(server.self(), kEcho, {}, std::move(o),
              [&](Result<Bytes> r) { got = std::move(r); });
  events.run_until_idle();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->code(), Err::kTimeout);
  // The deadline, not the 10-attempt budget, ends the call — exactly at 1 s.
  EXPECT_EQ(events.clock().now(), kSecond);
  EXPECT_EQ(stat(obs::names::kNetAttempts), 2u);
  EXPECT_EQ(client.outstanding_calls(), 0u);
}

// --------------------------------------------------------------------------
// Hedging.

TEST_F(CallPolicyTest, HedgeCancelsDuplicateResponse) {
  seed_rtt(kEcho);                         // hedge at 100 ms, time-out 250 ms
  // real RTT 120 ms > hedge delay
  net.set_default_latencies(60 * kMillisecond, 60 * kMillisecond);
  CallOptions o;                           // dynamic time-out
  o.hedge = HedgePolicy::at(0.95);
  int called = 0;
  std::optional<Result<Bytes>> got;
  client.call(server.self(), kEcho, {9}, std::move(o), [&](Result<Bytes> r) {
    ++called;
    got = std::move(r);
  });
  events.run_until_idle();
  // The primary answered first (120 ms); the hedge fired at 100 ms and its
  // response (220 ms) must be swallowed, never delivered twice.
  EXPECT_EQ(called, 1);
  ASSERT_TRUE(got && got->ok());
  EXPECT_EQ(got->value(), Bytes{9});
  EXPECT_EQ(stat(obs::names::kNetHedges), 1u);
  EXPECT_EQ(stat(obs::names::kNetHedgeLosses), 1u);
  EXPECT_EQ(stat(obs::names::kNetHedgeWins), 0u);
  EXPECT_EQ(stat(obs::names::kNetDuplicateResponses), 1u);
  EXPECT_EQ(stat(obs::names::kNetCallsOk), 1u);
  EXPECT_EQ(client.outstanding_calls(), 0u);
}

TEST_F(CallPolicyTest, HedgeWinsWhenPrimaryIsLost) {
  seed_rtt(kEcho);
  net.set_default_latencies(60 * kMillisecond, 60 * kMillisecond);
  drop_first_requests(1);  // the primary vanishes; only the hedge arrives
  CallOptions o;
  o.hedge = HedgePolicy::at(0.95);
  int called = 0;
  std::optional<Result<Bytes>> got;
  client.call(server.self(), kEcho, {3}, std::move(o), [&](Result<Bytes> r) {
    ++called;
    got = std::move(r);
  });
  events.run_until_idle();
  EXPECT_EQ(called, 1);
  ASSERT_TRUE(got && got->ok());
  // Hedge sent at 100 ms, answered at 220 ms — before the primary's 250 ms
  // timer, so the call never saw a time-out at all.
  EXPECT_EQ(events.clock().now(), 220 * kMillisecond);
  EXPECT_EQ(stat(obs::names::kNetHedges), 1u);
  EXPECT_EQ(stat(obs::names::kNetHedgeWins), 1u);
  EXPECT_EQ(stat(obs::names::kNetTimeoutsFired), 0u);
  EXPECT_EQ(stat(obs::names::kNetCallsOk), 1u);
}

TEST_F(CallPolicyTest, HedgeSkippedWithoutRttHistory) {
  net.set_default_latencies(60 * kMillisecond, 60 * kMillisecond);
  CallOptions o;
  o.hedge = HedgePolicy::at(0.95);  // enabled, but the forecast knows nothing
  std::optional<Result<Bytes>> got;
  client.call(server.self(), kEcho, {}, std::move(o),
              [&](Result<Bytes> r) { got = std::move(r); });
  events.run_until_idle();
  ASSERT_TRUE(got && got->ok());
  EXPECT_EQ(stat(obs::names::kNetHedges), 0u);
  EXPECT_EQ(stat(obs::names::kNetAttempts), 1u);
}

// --------------------------------------------------------------------------
// Single delivery under spurious time-outs (regression pin).

TEST_F(CallPolicyTest, LateResponseAfterRetriedAttemptDeliversExactlyOnce) {
  // The server is alive but slow: every attempt's timer fires before its
  // response lands. The first attempt's late response must rescue the call
  // (one delivery), and the superseding retry's response must be dropped as
  // a duplicate (not a second delivery).
  // RTT 600 ms
  net.set_default_latencies(300 * kMillisecond, 300 * kMillisecond);
  CallOptions o = CallOptions::fixed(400 * kMillisecond);
  o.retry = RetryPolicy::standard(2);
  int called = 0;
  std::optional<Result<Bytes>> got;
  client.call(server.self(), kEcho, {5}, std::move(o), [&](Result<Bytes> r) {
    ++called;
    got = std::move(r);
  });
  events.run_until_idle();
  EXPECT_EQ(called, 1);
  ASSERT_TRUE(got && got->ok());
  EXPECT_EQ(got->value(), Bytes{5});
  EXPECT_EQ(stat(obs::names::kNetTimeoutsFired), 1u);
  EXPECT_EQ(stat(obs::names::kNetLateResponses), 1u);
  EXPECT_EQ(stat(obs::names::kNetLateRescues), 1u);
  EXPECT_EQ(stat(obs::names::kNetDuplicateResponses), 1u);
  EXPECT_EQ(stat(obs::names::kNetCallsOk), 1u);
  EXPECT_EQ(client.outstanding_calls(), 0u);
}

// --------------------------------------------------------------------------
// Circuit breaking.

TEST(CircuitBreakerUnit, OpensHalfOpensAndCloses) {
  CircuitBreaker::Options o;
  o.failure_threshold = 2;
  o.open_for = kSecond;
  o.half_open_probes = 1;
  CircuitBreaker b(o);

  EXPECT_TRUE(b.allow(0));
  b.on_result(0, false);
  EXPECT_EQ(b.state(0), CircuitBreaker::State::kClosed);  // below threshold
  b.on_result(0, false);
  EXPECT_EQ(b.state(0), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(b.allow(500 * kMillisecond));  // shedding

  // The open window elapses: limited probes go through.
  EXPECT_EQ(b.state(kSecond), CircuitBreaker::State::kHalfOpen);
  EXPECT_TRUE(b.allow(kSecond));
  EXPECT_FALSE(b.allow(kSecond));  // probe budget spent
  b.on_result(kSecond, false);     // the probe failed: re-open
  EXPECT_EQ(b.state(kSecond), CircuitBreaker::State::kOpen);

  EXPECT_EQ(b.state(2 * kSecond), CircuitBreaker::State::kHalfOpen);
  EXPECT_TRUE(b.allow(2 * kSecond));
  b.on_result(2 * kSecond, true);  // one good probe closes it
  EXPECT_EQ(b.state(2 * kSecond), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(b.allow(2 * kSecond));
  EXPECT_EQ(b.times_opened(), 2u);
}

TEST(CircuitBreakerUnit, AbandonedProbeDoesNotLatchHalfOpen) {
  // Regression: a half-open probe whose call completed before the probe
  // reported (hedge shed the call, or the deadline fired) used to leave
  // probes_in_flight_ stuck at the cap, latching the breaker half-open
  // forever — no probe could ever go out again. release_probe() is the
  // abandonment path complete_call drives through on_attempt_abandoned.
  CircuitBreaker::Options o;
  o.failure_threshold = 1;
  o.open_for = kSecond;
  o.half_open_probes = 1;
  CircuitBreaker b(o);
  b.on_result(0, false);  // trip
  EXPECT_EQ(b.state(kSecond), CircuitBreaker::State::kHalfOpen);
  EXPECT_TRUE(b.allow(kSecond));    // probe slot taken
  EXPECT_FALSE(b.allow(kSecond));   // budget spent
  b.release_probe();                // probe abandoned, result never comes
  EXPECT_TRUE(b.allow(kSecond));    // a fresh probe may go out
  b.on_result(kSecond, true);
  EXPECT_EQ(b.state(kSecond), CircuitBreaker::State::kClosed);
}

TEST(CircuitBreakerUnit, StaleBurstEvidenceCannotLatchTheBreaker) {
  // Regression for the bursty-caller latch: a fan-out of one-shot calls all
  // leaves at t=0 toward a briefly-slow peer. The 2nd timeout trips the
  // breaker; the remaining in-flight attempts keep timing out afterwards.
  // Those failures are *stale evidence* — sent before the trip, already
  // priced into it — and must not extend the open window, re-trip the
  // half-open state, or consume half-open probe slots. Before the fix each
  // straggler re-tripped, latching the breaker open for the whole burst's
  // timeout spread plus open_for.
  CircuitBreaker::Options o;
  o.failure_threshold = 2;
  o.open_for = kSecond;
  o.half_open_probes = 1;
  CircuitBreaker b(o);

  b.on_result(100 * kMillisecond, /*sent=*/0, false);
  b.on_result(200 * kMillisecond, /*sent=*/0, false);  // trips at t=200ms
  EXPECT_EQ(b.times_opened(), 1u);

  // Stragglers from the same burst while open: no window extension.
  b.on_result(700 * kMillisecond, /*sent=*/0, false);
  b.on_result(1100 * kMillisecond, /*sent=*/0, false);
  // open_until_ stayed 200ms + 1s: the breaker rolls half-open on schedule.
  EXPECT_EQ(b.state(1200 * kMillisecond), CircuitBreaker::State::kHalfOpen);

  // A straggler arriving in half-open must not re-trip it...
  b.on_result(1250 * kMillisecond, /*sent=*/0, false);
  EXPECT_EQ(b.state(1250 * kMillisecond), CircuitBreaker::State::kHalfOpen);
  // ...and a probe slot is still available for a real probe.
  EXPECT_TRUE(b.allow(1300 * kMillisecond));
  EXPECT_FALSE(b.allow(1300 * kMillisecond));  // budget spent by the probe
  // One more stale failure while the probe is in flight: the probe's slot
  // must not be freed or the state disturbed.
  b.on_result(1350 * kMillisecond, /*sent=*/0, false);
  EXPECT_EQ(b.state(1350 * kMillisecond), CircuitBreaker::State::kHalfOpen);
  // The genuine probe (sent after the trip) succeeds and closes the breaker.
  b.on_result(1400 * kMillisecond, /*sent=*/1300 * kMillisecond, true);
  EXPECT_EQ(b.state(1400 * kMillisecond), CircuitBreaker::State::kClosed);
  EXPECT_EQ(b.times_opened(), 1u);

  // A *current* failure in half-open still re-trips — only staleness is
  // discounted, not failure itself (OpensHalfOpensAndCloses pins that too).
}

TEST_F(CallPolicyTest, BurstToBrieflySlowPeerDoesNotLatchBreaker) {
  // End-to-end shape of the WISH barrier fan-out: 64 one-shot calls launched
  // together at a peer that stops answering just then. Their timeouts are
  // spread (staggered per-call budgets), so failures keep arriving long
  // after the 5th one tripped the breaker. The breaker must open exactly
  // once and recover on schedule — before the fix every straggler re-tripped
  // it, shedding unrelated traffic far beyond open_for.
  client.call_policy().set_breaker_enabled(true);
  drop_all_requests();
  int failures = 0;
  for (int i = 0; i < 64; ++i) {
    client.call(server.self(), kEcho, {},
                CallOptions::fixed((100 + 50 * i) * kMillisecond),
                [&](Result<Bytes> r) { failures += r.ok() ? 0 : 1; });
  }
  events.run_until_idle();  // storm plays out; last timeout at ~3.25 s
  EXPECT_EQ(failures, 64);
  EXPECT_EQ(stat(obs::names::kNetBreakerOpened), 1u);

  // The peer recovers. Default open window is 10 s from the (single) trip;
  // by 15 s the breaker is half-open and one probe closes it.
  transport.set_drop_fn(nullptr);
  events.run_for(15 * kSecond);
  std::optional<Result<Bytes>> probe;
  client.call(server.self(), kEcho, {1}, CallOptions::fixed(kSecond),
              [&](Result<Bytes> r) { probe = std::move(r); });
  events.run_until_idle();
  ASSERT_TRUE(probe && probe->ok());
  std::optional<Result<Bytes>> after;
  client.call(server.self(), kEcho, {2}, CallOptions::fixed(kSecond),
              [&](Result<Bytes> r) { after = std::move(r); });
  events.run_until_idle();
  ASSERT_TRUE(after && after->ok());
  EXPECT_EQ(stat(obs::names::kNetBreakerOpened), 1u);  // never re-tripped
}

TEST_F(CallPolicyTest, BreakerShedsCallsAndRecoversThroughProbe) {
  client.call_policy().set_breaker_enabled(true);
  drop_all_requests();
  // Default breaker: 5 consecutive failures trip it, 10 s open window.
  for (int i = 0; i < 5; ++i) {
    client.call(server.self(), kEcho, {}, CallOptions::fixed(100 * kMillisecond),
                [](Result<Bytes>) {});
    events.run_until_idle();
  }
  std::optional<Result<Bytes>> shed;
  client.call(server.self(), kEcho, {}, CallOptions::fixed(100 * kMillisecond),
              [&](Result<Bytes> r) { shed = std::move(r); });
  events.run_until_idle();
  ASSERT_TRUE(shed.has_value());
  EXPECT_EQ(shed->code(), Err::kUnavailable);  // shed, no network attempt
  EXPECT_EQ(stat(obs::names::kNetShortCircuits), 1u);
  EXPECT_EQ(stat(obs::names::kNetAttempts), 5u);

  // The server comes back; after the open window one probe closes the
  // breaker and traffic flows again.
  transport.set_drop_fn(nullptr);
  events.run_for(10 * kSecond);
  std::optional<Result<Bytes>> probe;
  client.call(server.self(), kEcho, {1}, CallOptions::fixed(100 * kMillisecond),
              [&](Result<Bytes> r) { probe = std::move(r); });
  events.run_until_idle();
  ASSERT_TRUE(probe && probe->ok());
  std::optional<Result<Bytes>> after;
  client.call(server.self(), kEcho, {2}, CallOptions::fixed(100 * kMillisecond),
              [&](Result<Bytes> r) { after = std::move(r); });
  events.run_until_idle();
  ASSERT_TRUE(after && after->ok());
  EXPECT_EQ(stat(obs::names::kNetShortCircuits), 1u);  // nothing shed after recovery
}

// --------------------------------------------------------------------------
// Backpressure (Err::kOverloaded) end-to-end through the call layer.
//
// TcpTransport rejects a send synchronously with kOverloaded when the
// destination's outbox is full. That verdict is about OUR queue, not the
// server: the retry policy must treat it as retryable, while the circuit
// breaker and the RTT forecaster must never observe it (a full local outbox
// says nothing about the peer's health or round-trip time).

/// Transport wrapper that fails sends synchronously with Err::kOverloaded —
/// the TcpTransport backpressure verdict — for as long as `reject_requests`
/// is armed. Binds and non-request traffic pass straight through.
class BackpressureTransport final : public Transport {
 public:
  explicit BackpressureTransport(Transport& inner) : inner_(inner) {}
  Status bind(const Endpoint& self, PacketHandler handler) override {
    return inner_.bind(self, std::move(handler));
  }
  void unbind(const Endpoint& self) override { inner_.unbind(self); }
  Status send(const Endpoint& from, const Endpoint& to, Packet p) override {
    if (reject_requests > 0 && p.kind == PacketKind::kRequest) {
      --reject_requests;
      ++rejected;
      return Status(Err::kOverloaded, "outbox full (injected)");
    }
    return inner_.send(from, to, std::move(p));
  }

  int reject_requests = 0;  // how many more requests to reject
  int rejected = 0;         // how many were rejected so far

 private:
  Transport& inner_;
};

class OverloadedCallTest : public ::testing::Test {
 protected:
  OverloadedCallTest()
      : client_transport(transport),
        server(events, transport, Endpoint{"server", 1}),
        client(events, client_transport, Endpoint{"client", 1}) {
    net.set_loss_rate(0.0);
    net.set_jitter_sigma(0.0);
    net.set_default_latencies(0, 0);
    EXPECT_TRUE(server.start().ok());
    EXPECT_TRUE(client.start().ok());
    server.handle(kEcho, [](const IncomingMessage& m, Responder r) {
      r.ok(m.packet.payload);
    });
    client.call_policy().set_stats_sink(&sink);
    client.set_rtt_observer([this](const Endpoint&, MsgType, Duration, bool) {
      ++rtt_observations;
    });
  }

  std::uint64_t stat(const char* name) const {
    return sink.registry().counter(name).value();
  }

  sim::EventQueue events;
  sim::NetworkModel net{Rng(1)};
  sim::SimTransport transport{events, net};
  BackpressureTransport client_transport;
  Node server;
  Node client;
  AggregateCallStats sink;
  int rtt_observations = 0;
};

TEST_F(OverloadedCallTest, OverloadedIsRetriedAndRecovers) {
  client_transport.reject_requests = 1;  // first attempt bounces off the outbox
  CallOptions o = CallOptions::fixed(200 * kMillisecond);
  o.retry = RetryPolicy::standard(3);
  std::optional<Result<Bytes>> got;
  client.call(server.self(), kEcho, {7}, std::move(o),
              [&](Result<Bytes> r) { got = std::move(r); });
  events.run_until_idle();
  ASSERT_TRUE(got && got->ok());
  EXPECT_EQ(got->value(), Bytes{7});
  EXPECT_EQ(client_transport.rejected, 1);
  // The rejected attempt is retried via backoff — no attempt timer had to
  // fire first, because the failure was synchronous.
  EXPECT_EQ(stat(obs::names::kNetAttempts), 2u);
  EXPECT_EQ(stat(obs::names::kNetRetries), 1u);
  EXPECT_EQ(stat(obs::names::kNetTimeoutsFired), 0u);
  EXPECT_EQ(stat(obs::names::kNetCallsOk), 1u);
  EXPECT_EQ(client.outstanding_calls(), 0u);
}

TEST_F(OverloadedCallTest, ExhaustedOverloadSurfacesAsOverloaded) {
  client_transport.reject_requests = 1000;  // every attempt bounces
  CallOptions o = CallOptions::fixed(200 * kMillisecond);
  o.retry = RetryPolicy::standard(3);
  std::optional<Result<Bytes>> got;
  client.call(server.self(), kEcho, {}, std::move(o),
              [&](Result<Bytes> r) { got = std::move(r); });
  events.run_until_idle();
  ASSERT_TRUE(got.has_value());
  // The caller learns the true verdict, not a synthetic time-out.
  EXPECT_EQ(got->code(), Err::kOverloaded);
  EXPECT_EQ(stat(obs::names::kNetAttempts), 3u);
  EXPECT_EQ(stat(obs::names::kNetRetries), 2u);
  EXPECT_EQ(client.outstanding_calls(), 0u);
}

TEST_F(OverloadedCallTest, BreakerNeverObservesOverload) {
  client.call_policy().set_breaker_enabled(true);
  client_transport.reject_requests = 1000;
  // 3 calls x 3 attempts = 9 consecutive kOverloaded failures — far past the
  // breaker's 5-failure threshold, were it (wrongly) counting them.
  for (int i = 0; i < 3; ++i) {
    CallOptions o = CallOptions::fixed(100 * kMillisecond);
    o.retry = RetryPolicy::standard(3);
    client.call(server.self(), kEcho, {}, std::move(o), [](Result<Bytes>) {});
    events.run_until_idle();
  }
  EXPECT_EQ(client_transport.rejected, 9);
  CircuitBreaker& b = client.call_policy().breakers().at(server.self());
  EXPECT_EQ(b.times_opened(), 0u);
  EXPECT_EQ(b.peek_state(), CircuitBreaker::State::kClosed);
  EXPECT_EQ(stat(obs::names::kNetShortCircuits), 0u);
  // The outbox drains: the very next call flows — nothing was tripped, no
  // probe window to wait out.
  client_transport.reject_requests = 0;
  std::optional<Result<Bytes>> got;
  client.call(server.self(), kEcho, {4}, CallOptions::fixed(100 * kMillisecond),
              [&](Result<Bytes> r) { got = std::move(r); });
  events.run_until_idle();
  ASSERT_TRUE(got && got->ok());
  EXPECT_EQ(stat(obs::names::kNetShortCircuits), 0u);
}

TEST_F(OverloadedCallTest, ForecasterNeverObservesOverload) {
  client_transport.reject_requests = 1000;
  CallOptions o = CallOptions::fixed(100 * kMillisecond);
  o.retry = RetryPolicy::standard(3);
  client.call(server.self(), kEcho, {}, std::move(o), [](Result<Bytes>) {});
  events.run_until_idle();
  // Three rejected attempts: zero RTT observations, zero forecaster events
  // — a full local outbox must not poison the per-server RTT model.
  EXPECT_EQ(client_transport.rejected, 3);
  EXPECT_EQ(rtt_observations, 0);
  EXPECT_EQ(client.call_policy().timeouts().bank().tracked_events(), 0u);
  // A real round trip DOES feed both — the exclusion is specific to
  // backpressure, not a dead observer.
  client_transport.reject_requests = 0;
  client.call(server.self(), kEcho, {1}, CallOptions::fixed(100 * kMillisecond),
              [](Result<Bytes>) {});
  events.run_until_idle();
  EXPECT_EQ(rtt_observations, 1);
  EXPECT_EQ(client.call_policy().timeouts().bank().tracked_events(), 1u);
}

}  // namespace
}  // namespace ew
