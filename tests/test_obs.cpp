// The observability layer (DESIGN.md §8): registry instruments, the trace
// ring, snapshot determinism under the sim clock, and the pin that tracing
// is pure observation — enabling it cannot change what the system does.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "net/call_policy.hpp"
#include "net/node.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "sim/event_queue.hpp"
#include "sim/network_model.hpp"
#include "sim/sim_transport.hpp"

namespace ew {
namespace {

// ---------------------------------------------------------------------------
// Minimal JSON validator: enough grammar to certify that snapshot_json()
// and to_json() emit well-formed documents without a JSON dependency.

class JsonValidator {
 public:
  explicit JsonValidator(const std::string& s) : s_(s) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') ++pos_;  // skip the escaped character
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool literal(const char* lit) {
    for (const char* p = lit; *p; ++p, ++pos_) {
      if (pos_ >= s_.size() || s_[pos_] != *p) return false;
    }
    return true;
  }
  [[nodiscard]] char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Histogram bucket boundaries.

TEST(ObsHistogram, BucketBoundariesArePowersOfTwo) {
  obs::Histogram h;
  h.record(0);  // exact zeros land in bucket 0
  EXPECT_EQ(h.bucket(0), 1u);

  h.record(1);  // bit width 1
  EXPECT_EQ(h.bucket(1), 1u);

  h.record(2);  // [2,3] is bucket 2
  h.record(3);
  EXPECT_EQ(h.bucket(2), 2u);
  h.record(4);  // [4,7] is bucket 3
  h.record(7);
  EXPECT_EQ(h.bucket(3), 2u);
  h.record(8);  // boundary: 8 moves up to bucket 4
  EXPECT_EQ(h.bucket(4), 1u);

  h.record(std::uint64_t{1} << 32);  // bit width 33
  EXPECT_EQ(h.bucket(33), 1u);
  h.record(~std::uint64_t{0});  // bit width 64: the top bucket
  EXPECT_EQ(h.bucket(64), 1u);

  EXPECT_EQ(h.count(), 9u);
  EXPECT_EQ(h.sum(), 0u + 1 + 2 + 3 + 4 + 7 + 8 + (std::uint64_t{1} << 32) +
                         ~std::uint64_t{0});

  EXPECT_EQ(obs::Histogram::bucket_upper(0), 0u);
  EXPECT_EQ(obs::Histogram::bucket_upper(1), 1u);
  EXPECT_EQ(obs::Histogram::bucket_upper(2), 3u);
  EXPECT_EQ(obs::Histogram::bucket_upper(3), 7u);
  EXPECT_EQ(obs::Histogram::bucket_upper(64), ~std::uint64_t{0});

  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.bucket(64), 0u);
}

// ---------------------------------------------------------------------------
// Registry basics: labeled instruments, stable references, snapshot shape.

TEST(ObsRegistry, InstrumentsAreStableAndLabeled) {
  obs::Registry reg;
  obs::Counter& a = reg.counter("x.events");
  obs::Counter& a2 = reg.counter("x.events");
  EXPECT_EQ(&a, &a2);  // find-or-create returns the same instrument

  reg.counter("x.events", "east").inc(2);
  reg.counter("x.events", "west").inc(3);
  a.inc();
  reg.gauge("x.level").set(1.5);
  reg.gauge("x.level").add(0.25);
  reg.histogram("x.wait_us").record(100);

  EXPECT_EQ(reg.instrument_count(), 5u);
  EXPECT_DOUBLE_EQ(reg.gauge("x.level").value(), 1.75);

  const std::string json = reg.snapshot_json();
  EXPECT_TRUE(JsonValidator(json).valid()) << json;
  EXPECT_NE(json.find("\"x.events\":1"), std::string::npos);
  EXPECT_NE(json.find("\"x.events{east}\":2"), std::string::npos);
  EXPECT_NE(json.find("\"x.events{west}\":3"), std::string::npos);

  reg.reset();  // zeroes values, keeps registrations and references
  EXPECT_EQ(reg.instrument_count(), 5u);
  EXPECT_EQ(a.value(), 0u);
  a.inc(7);
  EXPECT_EQ(reg.counter("x.events").value(), 7u);
}

TEST(ObsRegistry, SnapshotIsByteIdenticalForIdenticalState) {
  auto build = [] {
    obs::Registry reg;
    reg.counter("b.count").inc(41);
    reg.gauge("b.level").set(2.5);
    reg.histogram("b.lat_us").record(17);
    reg.histogram("b.lat_us").record(1 << 20);
    return reg.snapshot_json();
  };
  EXPECT_EQ(build(), build());
}

// The ctest mandatory-set check: the process-wide registry's snapshot always
// parses and contains every core instrument, even before any subsystem ran.
TEST(ObsRegistry, ProcessSnapshotContainsMandatoryInstruments) {
  const std::string json = obs::snapshot_json();
  EXPECT_TRUE(JsonValidator(json).valid()) << json;
  for (const char* name : obs::mandatory_counters()) {
    std::string needle = "\"";
    needle.append(name).append("\":");
    EXPECT_NE(json.find(needle), std::string::npos)
        << "missing counter " << name;
  }
  for (const char* name : obs::mandatory_histograms()) {
    std::string needle = "\"";
    needle.append(name).append("\":{");
    EXPECT_NE(json.find(needle), std::string::npos)
        << "missing histogram " << name;
  }
}

// ---------------------------------------------------------------------------
// Trace ring.

TEST(ObsTrace, RingEvictsOldestAndPreservesTotal) {
  obs::TraceRecorder rec(4);
  rec.set_enabled(true);
  const std::uint32_t tag = rec.intern("t");
  for (int i = 1; i <= 7; ++i) {
    rec.record(i, obs::SpanKind::kCallAttempt, tag, i, 0);
  }
  EXPECT_EQ(rec.total(), 7u);
  EXPECT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.dropped(), 3u);

  const std::vector<obs::SpanEvent> events = rec.snapshot();
  ASSERT_EQ(events.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(events[static_cast<std::size_t>(i)].at, i + 4);  // oldest → 4
  }

  const std::string json = rec.to_json();
  EXPECT_TRUE(JsonValidator(json).valid()) << json;
  EXPECT_NE(json.find("\"total\":7"), std::string::npos);
  EXPECT_NE(json.find("\"dropped\":3"), std::string::npos);

  // clear() drops events but keeps interned ids valid.
  rec.clear();
  EXPECT_EQ(rec.total(), 0u);
  EXPECT_EQ(rec.intern("t"), tag);
  EXPECT_EQ(rec.tag_name(tag), "t");
  // reset() forgets the intern table too.
  rec.reset();
  EXPECT_EQ(rec.tag_name(tag), "");
}

TEST(ObsTrace, DisabledRecorderRecordsNothing) {
  obs::TraceRecorder rec(8);
  rec.record(1, obs::SpanKind::kSchedDispatch);
  EXPECT_EQ(rec.total(), 0u);
  EXPECT_FALSE(rec.enabled());
}

// ---------------------------------------------------------------------------
// Determinism under the sim clock, and the "obs off changes nothing" pin.

constexpr MsgType kOp = 0x42;

struct SimRun {
  std::uint64_t ok_calls = 0;
  std::uint64_t packets = 0;
  TimePoint end_clock = 0;
  std::string trace_json;
};

/// A small lossy client/server workload; every decision point in the call
/// layer fires (attempts, retries, hedges, timeouts) so the trace has real
/// content. Identical seeds must produce identical worlds.
SimRun run_sim_workload(bool tracing) {
  obs::trace().reset();
  obs::trace().set_enabled(tracing);

  sim::EventQueue events;
  sim::NetworkModel network{Rng(42)};
  network.set_site("cli", "east");
  network.set_site("srv", "west");
  sim::SimTransport transport(events, network);
  Node server(events, transport, Endpoint{"srv", 1});
  Node client(events, transport, Endpoint{"cli", 1});
  server.start();
  client.start();
  server.handle(kOp, [](const IncomingMessage& m, Responder r) {
    r.ok(m.packet.payload);
  });

  // Lossless warm-up so the forecaster learns the RTT, then open the tap.
  for (int i = 0; i < 32; ++i) {
    events.schedule(static_cast<Duration>(i) * (100 * kMillisecond), [&] {
      client.call(server.self(), kOp, {0}, CallOptions{}, [](Result<Bytes>) {});
    });
  }
  events.run_until_idle();
  network.set_loss_rate(0.15);

  SimRun out;
  CallOptions opts;
  opts.retry = RetryPolicy::standard(3);
  opts.hedge = HedgePolicy::at(0.97);
  for (int i = 0; i < 80; ++i) {
    events.schedule(static_cast<Duration>(i) * (150 * kMillisecond), [&] {
      client.call(server.self(), kOp, {1}, opts, [&](Result<Bytes> r) {
        if (r.ok()) ++out.ok_calls;
      });
    });
  }
  events.run_until_idle();

  out.packets = transport.packets_sent();
  out.end_clock = events.clock().now();
  out.trace_json = obs::trace().to_json();
  client.stop();
  server.stop();
  obs::trace().set_enabled(false);
  return out;
}

TEST(ObsDeterminism, TraceReplaysBitIdenticalUnderSimClock) {
  const SimRun a = run_sim_workload(true);
  const SimRun b = run_sim_workload(true);
  EXPECT_EQ(a.trace_json, b.trace_json);
  EXPECT_GT(obs::trace().total(), 0u) << "workload recorded no spans";
  EXPECT_TRUE(JsonValidator(a.trace_json).valid());
  // The registry side of the same guarantee: identical runs, identical doc.
  obs::registry().reset();
  const SimRun c = run_sim_workload(true);
  const std::string snap_c = obs::snapshot_json();
  obs::registry().reset();
  const SimRun d = run_sim_workload(true);
  const std::string snap_d = obs::snapshot_json();
  EXPECT_EQ(snap_c, snap_d);
  EXPECT_EQ(c.trace_json, d.trace_json);
}

TEST(ObsDeterminism, TracingIsPureObservation) {
  // The seed-behavior pin: with obs off the workload must do exactly what
  // it does with obs on — same completions, same packets, same clock.
  const SimRun off = run_sim_workload(false);
  const SimRun on = run_sim_workload(true);
  EXPECT_EQ(off.ok_calls, on.ok_calls);
  EXPECT_EQ(off.packets, on.packets);
  EXPECT_EQ(off.end_clock, on.end_clock);
  // And with obs off, nothing is recorded.
  EXPECT_EQ(off.trace_json.find("\"events\":[]") != std::string::npos, true)
      << off.trace_json;
}

// ---------------------------------------------------------------------------
// The call-stats bridge: a default-constructed AggregateCallStats owns a
// private registry (bench isolation) that callers read by obs::names key.

TEST(ObsCallStats, DefaultSinkIsIsolatedFromProcessRegistry) {
  obs::registry().reset();
  AggregateCallStats local;
  local.record_call_start();
  local.record_attempt(false, false);
  local.record_attempt(true, false);
  local.record_attempt(false, true);
  local.record_timeout(250 * kMillisecond);
  local.record_late_response(true);
  local.record_hedge_result(true);
  local.record_call_end(true, 10 * kMillisecond);
  local.record_breaker_transition(0, 1);  // closed -> open

  obs::Registry& r = local.registry();
  EXPECT_EQ(r.counter(obs::names::kNetCallsStarted).value(), 1u);
  EXPECT_EQ(r.counter(obs::names::kNetCallsOk).value(), 1u);
  EXPECT_EQ(r.counter(obs::names::kNetAttempts).value(), 3u);
  EXPECT_EQ(r.counter(obs::names::kNetRetries).value(), 1u);
  EXPECT_EQ(r.counter(obs::names::kNetHedges).value(), 1u);
  EXPECT_EQ(r.counter(obs::names::kNetHedgeWins).value(), 1u);
  EXPECT_EQ(r.counter(obs::names::kNetTimeoutsFired).value(), 1u);
  EXPECT_EQ(r.counter(obs::names::kNetLateResponses).value(), 1u);
  EXPECT_EQ(r.counter(obs::names::kNetLateRescues).value(), 1u);
  EXPECT_EQ(r.histogram(obs::names::kNetTimeoutWaitUs).sum(), 250'000u);
  EXPECT_EQ(r.histogram(obs::names::kNetCallLatencyUs).sum(), 10'000u);

  // Nothing leaked into the process-wide registry.
  EXPECT_EQ(obs::registry().counter(obs::names::kNetCallsStarted).value(), 0u);
  EXPECT_EQ(obs::registry().counter(obs::names::kNetAttempts).value(), 0u);

  local.reset();
  EXPECT_EQ(r.counter(obs::names::kNetAttempts).value(), 0u);
}

TEST(ObsCallStats, BreakerTransitionCountsOpensOnly) {
  AggregateCallStats local;
  local.record_breaker_transition(0, 1);  // closed -> open
  local.record_breaker_transition(1, 2);  // open -> half-open: not an open
  local.record_breaker_transition(2, 1);  // half-open -> open
  EXPECT_EQ(local.registry().counter(obs::names::kNetBreakerOpened).value(), 2u);
}

}  // namespace
}  // namespace ew
