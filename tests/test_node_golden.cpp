// Golden digest of Node's call layer, plus its edge and re-entrancy cases.
//
// NodeGolden.Script* drive one client Node through a seeded script over
// SimTransport on a lossy, jittered network: an echo server (that rejects
// payloads starting with 'R'), a slow server (seeded reply delays, so
// attempts time out and answer late) and a server that never answers, with
// retry, hedge, deadline and retry_rejected options and circuit breakers
// on; a synchronous kRefused to an unbound port, a crash() that fails every
// outstanding call, a restart, and a stop() with calls outstanding. The
// digest is FNV-1a over every callback (call index, sim time, Err code,
// message, payload), the injected AggregateCallStats' instruments and the
// trace JSON. A rewrite of Node's call bookkeeping must leave the digests
// unchanged; on a failure the test prints the current values. Each script
// also checks that it reached the paths the digest is meant to pin.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "net/node.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "sim/event_queue.hpp"
#include "sim/network_model.hpp"
#include "sim/sim_transport.hpp"

namespace ew {
namespace {

constexpr MsgType kEcho = 0x20;  // answers at once; 'R' payloads rejected
constexpr MsgType kSlow = 0x21;  // answers after a seeded delay
constexpr MsgType kMute = 0x22;  // never answers
constexpr MsgType kHeld = 0x23;  // the test decides when to answer

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string_view as_text(const Bytes& b) {
  return {reinterpret_cast<const char*>(b.data()), b.size()};
}

struct ScriptRun {
  std::uint64_t digest = 0;
  std::uint64_t callbacks = 0;
  std::uint64_t crashed = 0;          // callbacks that saw kPeerDown
  bool probe_shed = false;            // a hedge shed while the probe was out
  bool abandoned_fired = false;       // a callback ran after stop()
  std::uint64_t late = 0;
  std::uint64_t rescued = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t hedge_losses = 0;
  std::uint64_t short_circuits = 0;
  std::uint64_t refused = 0;          // callbacks that saw kRefused
  std::uint64_t deadlines = 0;        // callbacks that saw the deadline
  std::uint64_t rejected = 0;         // callbacks that saw kRejected
};

ScriptRun run_script(std::uint64_t seed) {
  obs::trace().reset();
  obs::trace().set_capacity(1u << 16);
  obs::trace().set_enabled(true);

  sim::EventQueue events;
  sim::NetworkModel net{Rng(seed)};
  net.set_loss_rate(0.05);
  net.set_jitter_sigma(0.3);
  net.set_default_latencies(10 * kMillisecond, 40 * kMillisecond);
  net.set_site("cli", "a");
  net.set_site("echo", "a");
  net.set_site("slow", "b");
  net.set_site("mute", "b");
  sim::SimTransport transport(events, net);
  Node client(events, transport, Endpoint{"cli", 1});
  Node echo(events, transport, Endpoint{"echo", 1});
  Node slow(events, transport, Endpoint{"slow", 1});
  Node mute(events, transport, Endpoint{"mute", 1});
  EXPECT_TRUE(client.start().ok());
  EXPECT_TRUE(echo.start().ok());
  EXPECT_TRUE(slow.start().ok());
  EXPECT_TRUE(mute.start().ok());
  const Endpoint ghost{"echo", 99};  // host up, port unbound: kRefused

  AggregateCallStats stats;
  client.call_policy().set_stats_sink(&stats);
  client.call_policy().set_breaker_enabled(true);
  // A known 50 ms RTT history for the mute server, so hedges fire there.
  for (int i = 0; i < 100; ++i) {
    client.call_policy().timeouts().on_result(EventTag::of(mute.self(), kMute),
                                              50 * kMillisecond, true);
  }

  Rng rng(seed ^ 0x601dULL);
  echo.handle(kEcho, [](const IncomingMessage& m, Responder r) {
    if (!m.packet.payload.empty() && m.packet.payload[0] == 'R') {
      r.fail(Err::kRejected, "rejected");
    } else {
      r.ok(m.packet.payload);
    }
  });
  slow.handle(kSlow, [&](const IncomingMessage& m, Responder r) {
    const Duration d = static_cast<Duration>(50 + rng.below(400)) * kMillisecond;
    events.schedule(d, [r, p = m.packet.payload] { r.ok(p); });
  });
  mute.handle(kMute, [](const IncomingMessage&, Responder) {});

  ScriptRun out;
  std::uint64_t h = kFnvBasis;
  std::uint64_t next_index = 0;
  bool down = false;
  bool stopped = false;
  auto issue = [&](const Endpoint& to, MsgType type, Bytes payload,
                   CallOptions opts) {
    const std::uint64_t index = next_index++;
    client.call(to, type, std::move(payload), std::move(opts),
                [&, index](Result<Bytes> r) {
                  if (stopped) out.abandoned_fired = true;
                  ++out.callbacks;
                  h = fnv_mix(h, index);
                  h = fnv_mix(h, static_cast<std::uint64_t>(events.clock().now()));
                  h = fnv_mix(h, static_cast<std::uint64_t>(r.code()));
                  if (r.ok()) {
                    h = fnv_mix(h, as_text(r.value()));
                    return;
                  }
                  h = fnv_mix(h, std::string_view(r.error().message));
                  if (r.code() == Err::kPeerDown) ++out.crashed;
                  if (r.code() == Err::kRefused) ++out.refused;
                  if (r.code() == Err::kRejected) ++out.rejected;
                  if (r.error().message == "call deadline exceeded") ++out.deadlines;
                });
  };
  auto payload_of = [](char lead, std::uint64_t i) {
    Bytes b{static_cast<std::uint8_t>(lead)};
    for (int k = 0; k < 8; ++k) b.push_back(static_cast<std::uint8_t>(i >> (8 * k)));
    return b;
  };

  // Phase 1, 0-6 s: hedged, retried echoes teach the forecaster the RTT.
  for (int i = 0; i < 60; ++i) {
    events.schedule(i * 100 * kMillisecond, [&, i] {
      CallOptions o;
      o.retry = RetryPolicy::standard(3);
      o.hedge = HedgePolicy::at(0.9);
      issue(echo.self(), kEcho, payload_of('e', i), o);
    });
  }

  // Phase 2, 6-30 s: a seeded mix of every option, with a crash at 20 s and
  // a restart at 20.5 s.
  for (int i = 0; i < 120; ++i) {
    events.schedule(6 * kSecond + i * 200 * kMillisecond, [&, i] {
      if (down) return;
      CallOptions o;
      switch (rng.below(6)) {
        case 0:  // hedge losers become orphans
          o.retry = RetryPolicy::standard(3);
          o.hedge = HedgePolicy::at(0.8);
          issue(echo.self(), kEcho, payload_of('h', i), o);
          break;
        case 1:  // application rejections, retried on request
          o.retry = RetryPolicy::standard(3);
          o.retry.base_backoff = 20 * kMillisecond;
          o.retry.retry_rejected = true;
          issue(echo.self(), kEcho, payload_of('R', i), o);
          break;
        case 2:  // late responses rescue a retrying call
          o.attempt_timeout = 300 * kMillisecond;
          o.retry = RetryPolicy::standard(3);
          issue(slow.self(), kSlow, payload_of('s', i), o);
          break;
        case 3:  // a single attempt: its late response rescues nothing
          issue(slow.self(), kSlow, payload_of('o', i),
                CallOptions::fixed(300 * kMillisecond));
          break;
        case 4:  // the deadline cuts the retries short
          o.deadline = 400 * kMillisecond;
          o.attempt_timeout = 250 * kMillisecond;
          o.retry = RetryPolicy::standard(4);
          issue(slow.self(), kSlow, payload_of('d', i), o);
          break;
        default:  // synchronous kRefused, retried
          o.retry = RetryPolicy::standard(2);
          o.retry.base_backoff = 10 * kMillisecond;
          issue(ghost, kEcho, payload_of('g', i), o);
          break;
      }
    });
  }
  events.schedule(20 * kSecond + 50 * kMillisecond, [&] {
    issue(mute.self(), kMute, payload_of('c', 0), CallOptions::fixed(2 * kSecond));
    issue(echo.self(), kEcho, payload_of('c', 1), CallOptions::fixed(2 * kSecond));
  });
  events.schedule(20 * kSecond + 100 * kMillisecond, [&] {
    down = true;
    client.crash();
  });
  events.schedule(20 * kSecond + 600 * kMillisecond, [&] {
    down = false;
    EXPECT_TRUE(client.start().ok());
  });

  // Phase 3, 30-42 s: trip the mute server's breaker, then hedge while the
  // half-open probe is out, so the hedge is shed with the probe in flight.
  CallOptions mute_opts;
  mute_opts.attempt_timeout = 200 * kMillisecond;
  mute_opts.retry = RetryPolicy::standard(2);
  mute_opts.retry.base_backoff = 20 * kMillisecond;
  mute_opts.hedge = HedgePolicy::at(0.95);
  for (int i = 0; i < 3; ++i) {
    events.schedule(30 * kSecond + i * 500 * kMillisecond, [&, i] {
      issue(mute.self(), kMute, payload_of('m', i), mute_opts);
    });
  }
  std::uint64_t shed_before = 0;
  std::uint64_t callbacks_before = 0;
  events.schedule(41 * kSecond, [&] {
    shed_before = stats.registry().counter(obs::names::kNetShortCircuits).value();
    callbacks_before = out.callbacks;
    issue(mute.self(), kMute, payload_of('p', 0), mute_opts);
  });
  events.schedule(41 * kSecond + 100 * kMillisecond, [&] {
    out.probe_shed =
        stats.registry().counter(obs::names::kNetShortCircuits).value() ==
            shed_before + 1 &&
        out.callbacks == callbacks_before;
  });

  // Phase 4, 45 s: stop() with two calls outstanding; they never complete.
  events.schedule(44 * kSecond + 950 * kMillisecond, [&] {
    issue(slow.self(), kSlow, payload_of('x', 0), CallOptions::fixed(60 * kSecond));
    issue(slow.self(), kSlow, payload_of('x', 1), CallOptions::fixed(60 * kSecond));
  });
  events.schedule(45 * kSecond, [&] {
    client.stop();
    stopped = true;
  });
  events.run_until_idle();

  obs::trace().set_enabled(false);
  h = fnv_mix(h, std::string_view(stats.registry().snapshot_json()));
  h = fnv_mix(h, std::string_view(obs::trace().to_json()));
  out.digest = h;
  obs::Registry& reg = stats.registry();
  out.late = reg.counter(obs::names::kNetLateResponses).value();
  out.rescued = reg.counter(obs::names::kNetLateRescues).value();
  out.duplicates = reg.counter(obs::names::kNetDuplicateResponses).value();
  out.hedge_losses = reg.counter(obs::names::kNetHedgeLosses).value();
  out.short_circuits = reg.counter(obs::names::kNetShortCircuits).value();
  return out;
}

void expect_reaches_every_path(const ScriptRun& run) {
  EXPECT_GT(run.rescued, 0u) << "no late response rescued a call";
  EXPECT_GT(run.late, run.rescued) << "no unrescued late response";
  EXPECT_GT(run.duplicates, 0u) << "no orphan answered as a duplicate";
  EXPECT_GT(run.hedge_losses, 0u) << "no hedge lost its race";
  EXPECT_TRUE(run.probe_shed) << "no hedge shed with the probe in flight";
  EXPECT_GT(run.short_circuits, 1u);
  EXPECT_GT(run.crashed, 0u) << "crash() failed no call";
  EXPECT_GT(run.refused, 0u);
  EXPECT_GT(run.deadlines, 0u);
  EXPECT_GT(run.rejected, 0u);
  EXPECT_FALSE(run.abandoned_fired) << "a callback ran after stop()";
}

TEST(NodeGolden, ScriptSeed1) {
  const ScriptRun run = run_script(1);
  expect_reaches_every_path(run);
  EXPECT_EQ(hex(run.digest), "e66ac906abe1a77f");
}

TEST(NodeGolden, ScriptSeed2) {
  const ScriptRun run = run_script(2);
  expect_reaches_every_path(run);
  EXPECT_EQ(hex(run.digest), "a9598c57c9036488");
}

// Edge and re-entrancy cases on a quiet network.
class NodeEdge : public ::testing::Test {
 protected:
  NodeEdge()
      : server(events, transport, Endpoint{"server", 1}),
        client(events, transport, Endpoint{"client", 1}) {
    net.set_loss_rate(0.0);
    net.set_jitter_sigma(0.0);
    net.set_default_latencies(kMillisecond, kMillisecond);
    EXPECT_TRUE(server.start().ok());
    EXPECT_TRUE(client.start().ok());
    server.handle(kEcho, [this](const IncomingMessage& m, Responder r) {
      seqs.push_back(m.packet.seq);
      r.ok(m.packet.payload);
    });
    server.handle(kHeld, [this](const IncomingMessage& m, Responder r) {
      seqs.push_back(m.packet.seq);
      held.push_back(r);
    });
    client.call_policy().set_stats_sink(&stats);
  }

  /// Deliver a response with `seq` to the client from an endpoint that
  /// never sent it a request.
  void inject_response(std::uint64_t seq) {
    Packet p;
    p.kind = PacketKind::kResponse;
    p.type = kEcho;
    p.seq = seq;
    p.payload = Bytes{0, 7};
    ASSERT_TRUE(transport.send(Endpoint{"rogue", 1}, client.self(), std::move(p)).ok());
    events.run_for(10 * kMillisecond);
  }

  std::uint64_t stat(const char* name) const {
    return stats.registry().counter(name).value();
  }

  sim::EventQueue events;
  sim::NetworkModel net{Rng(1)};
  sim::SimTransport transport{events, net};
  Node server;
  Node client;
  AggregateCallStats stats;
  std::vector<std::uint64_t> seqs;  // every request seq the server saw
  std::vector<Responder> held;
};

TEST_F(NodeEdge, UnknownSeqsCountAsUnrescuedLateAndAreNeverDelivered) {
  int finished = 0;
  client.call(server.self(), kEcho, {1}, CallOptions::fixed(kSecond),
              [&](Result<Bytes>) { ++finished; });
  events.run_until_idle();
  ASSERT_EQ(finished, 1);
  ASSERT_EQ(seqs.size(), 1u);
  const std::uint64_t finished_seq = seqs[0];
  for (int i = 0; i < 100; ++i) {
    client.call(server.self(), kEcho, {2}, CallOptions::fixed(kSecond),
                [&](Result<Bytes>) { ++finished; });
  }
  events.run_until_idle();
  ASSERT_EQ(finished, 101);

  // One call stays outstanding: an unknown response must not complete it.
  std::optional<Result<Bytes>> open;
  client.call(server.self(), kHeld, {3}, CallOptions::fixed(10 * kSecond),
              [&](Result<Bytes> r) { open = std::move(r); });
  events.run_for(10 * kMillisecond);
  ASSERT_EQ(held.size(), 1u);

  const std::uint64_t late_before = stat(obs::names::kNetLateResponses);
  for (std::uint64_t seq : {std::uint64_t{0}, std::uint64_t{1} << 40,
                            seqs.back() + 1000, finished_seq}) {
    inject_response(seq);
  }
  EXPECT_EQ(stat(obs::names::kNetLateResponses), late_before + 4);
  EXPECT_EQ(stat(obs::names::kNetLateRescues), 0u);
  EXPECT_EQ(stat(obs::names::kNetDuplicateResponses), 0u);
  EXPECT_FALSE(open.has_value());
  EXPECT_EQ(finished, 101);
  EXPECT_EQ(client.outstanding_calls(), 1u);

  held[0].ok({9});
  events.run_until_idle();
  ASSERT_TRUE(open && open->ok());
  EXPECT_EQ(open->value(), Bytes{9});
}

TEST_F(NodeEdge, OrphanAnsweredAfterTenThousandCallsIsNeverDelivered) {
  // The deadline completes the call while its attempt is still out: the
  // attempt's seq is orphaned.
  int fired = 0;
  CallOptions o;
  o.deadline = 100 * kMillisecond;
  o.attempt_timeout = 10 * kSecond;
  client.call(server.self(), kHeld, {1}, o, [&](Result<Bytes> r) {
    ++fired;
    EXPECT_EQ(r.code(), Err::kTimeout);
  });
  events.run_for(kSecond);
  ASSERT_EQ(fired, 1);
  ASSERT_EQ(held.size(), 1u);

  int echoed = 0;
  for (int i = 0; i < 10'000; ++i) {
    client.call(server.self(), kEcho, {2}, CallOptions::fixed(kSecond),
                [&](Result<Bytes> r) { echoed += r.ok() ? 1 : 0; });
    events.run_until_idle();
  }
  ASSERT_EQ(echoed, 10'000);

  const std::uint64_t before = stat(obs::names::kNetDuplicateResponses) +
                               stat(obs::names::kNetLateResponses);
  held[0].ok({3});
  events.run_until_idle();
  EXPECT_EQ(stat(obs::names::kNetDuplicateResponses) +
                stat(obs::names::kNetLateResponses),
            before + 1);
  EXPECT_EQ(stat(obs::names::kNetLateRescues), 0u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(client.outstanding_calls(), 0u);
}

TEST_F(NodeEdge, CallsIssuedFromInsideOnResponseAllCompleteOnce) {
  // The first call's callback runs inside the client's response dispatch
  // and issues 100 calls that are all outstanding at once, growing the
  // Node's call and attempt bookkeeping mid-dispatch. A hedged, retried
  // call stays in flight around them.
  net.set_default_latencies(5 * kMillisecond, 5 * kMillisecond);
  for (int i = 0; i < 100; ++i) {
    client.call_policy().timeouts().on_result(EventTag::of(server.self(), kHeld),
                                              20 * kMillisecond, true);
  }
  std::optional<Result<Bytes>> hedged;
  CallOptions ho;
  ho.attempt_timeout = 200 * kMillisecond;
  ho.retry = RetryPolicy::standard(3);
  ho.hedge = HedgePolicy::at(0.95);
  client.call(server.self(), kHeld, {0xee}, ho,
              [&](Result<Bytes> r) { hedged = std::move(r); });

  std::vector<int> got(100, 0);
  std::vector<int> value(100, -1);
  client.call(server.self(), kEcho, {0}, CallOptions::fixed(kSecond),
              [&](Result<Bytes> first) {
                ASSERT_TRUE(first.ok());
                for (int i = 0; i < 100; ++i) {
                  client.call(server.self(), kEcho,
                              {static_cast<std::uint8_t>(i)},
                              CallOptions::fixed(kSecond),
                              [&, i](Result<Bytes> r) {
                                ++got[i];
                                if (r.ok()) value[i] = r.value()[0];
                              });
                }
                EXPECT_EQ(client.outstanding_calls(), 101u);
              });
  events.run_for(30 * kMillisecond);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(got[i], 1) << i;
    EXPECT_EQ(value[i], i) << i;
  }
  EXPECT_FALSE(hedged.has_value());
  ASSERT_FALSE(held.empty());
  held.front().ok({0xab});
  events.run_until_idle();
  ASSERT_TRUE(hedged && hedged->ok());
  EXPECT_EQ(hedged->value(), Bytes{0xab});
  for (int i = 0; i < 100; ++i) EXPECT_EQ(got[i], 1) << i;
  EXPECT_EQ(client.outstanding_calls(), 0u);
}

}  // namespace
}  // namespace ew
