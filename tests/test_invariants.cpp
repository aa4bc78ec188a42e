// Negative-path tests for the trace invariant checker: every predicate in
// obs::check_invariants is tripped by a hand-crafted span stream and the
// violation text is asserted, alongside the matching forgiveness twin (the
// nearly-identical trace that is legitimately clean). The chaos tests and
// the model checker prove real runs stay clean; these prove the checker
// would actually have said something if they had not.
#include <gtest/gtest.h>

#include <string>

#include "obs/invariants.hpp"
#include "obs/trace.hpp"
#include "sim/chaos.hpp"

namespace ew::obs {
namespace {

// sim::FaultKind wire values (see invariants.cpp — obs cannot include sim).
constexpr std::int64_t kCrash = 0;
constexpr std::int64_t kRestart = 1;
// CircuitBreaker states on the wire: 0 = closed, 1 = open, 2 = half-open.
constexpr std::int64_t kClosed = 0;
constexpr std::int64_t kOpen = 1;
constexpr std::int64_t kHalfOpen = 2;

constexpr std::int64_t kSec = 1'000'000;  // µs

/// A private enabled recorder per test: nothing here touches the process
/// trace, so these tests cannot interfere with (or be polluted by) others.
/// (TraceRecorder owns a mutex, so it is built in place, not returned.)
struct EnabledRecorder : TraceRecorder {
  explicit EnabledRecorder(std::size_t cap = 4096) : TraceRecorder(cap) {
    set_enabled(true);
  }
};

bool has_violation(const InvariantReport& r, const std::string& needle) {
  for (const auto& v : r.violations) {
    if (v.find(needle) != std::string::npos) return true;
  }
  return false;
}

TEST(Invariants, FaultKindWireValuesMatchTheChaosEngine) {
  // The checker reads crash and restart out of kChaosFault's a word by value.
  EXPECT_EQ(static_cast<std::int64_t>(sim::FaultKind::kCrash), kCrash);
  EXPECT_EQ(static_cast<std::int64_t>(sim::FaultKind::kRestart), kRestart);
  EXPECT_STREQ(sim::fault_kind_name(sim::FaultKind::kCrash), "crash");
  EXPECT_STREQ(sim::fault_kind_name(sim::FaultKind::kRestart), "restart");
}

TEST(Invariants, UnitIssuedAndNeverReclaimedIsLost) {
  EnabledRecorder rec;
  const std::uint32_t sched = rec.intern("sched:700");
  rec.record(1 * kSec, SpanKind::kSchedUnitIssued, sched, /*unit=*/7);
  rec.record(9 * kSec, SpanKind::kCliqueTokenPass);  // extend the trace

  InvariantReport r = check_invariants(rec, {});
  EXPECT_EQ(r.units_issued, 1u);
  EXPECT_EQ(r.units_lost, 1u);
  EXPECT_TRUE(has_violation(r, "work unit 7"));
  EXPECT_TRUE(has_violation(r, "never reclaimed"));

  // Forgiveness twin: the same unit named as legitimately live is clean.
  InvariantOptions live;
  live.live_units = {7};
  EXPECT_TRUE(check_invariants(rec, live).ok());
}

TEST(Invariants, CrashWithoutRestartLosesTheInFlightUnit) {
  EnabledRecorder rec;
  const std::uint32_t sched = rec.intern("sched:700");
  const std::uint32_t host = rec.intern("sched");
  rec.record(1 * kSec, SpanKind::kSchedUnitIssued, sched, 7);
  rec.record(2 * kSec, SpanKind::kChaosFault, host, kCrash);
  rec.record(90 * kSec, SpanKind::kCliqueTokenPass);  // end well past grace

  InvariantReport r = check_invariants(rec, {});
  EXPECT_EQ(r.units_lost, 1u);
  EXPECT_TRUE(has_violation(r, "never restarted"));

  // Twin 1: a restart after the crash promises the recovery path re-issues.
  EnabledRecorder rec2;
  const std::uint32_t s2 = rec2.intern("sched:700");
  const std::uint32_t h2 = rec2.intern("sched");
  rec2.record(1 * kSec, SpanKind::kSchedUnitIssued, s2, 7);
  rec2.record(2 * kSec, SpanKind::kChaosFault, h2, kCrash);
  rec2.record(3 * kSec, SpanKind::kChaosFault, h2, kRestart);
  rec2.record(90 * kSec, SpanKind::kCliqueTokenPass);
  EXPECT_TRUE(check_invariants(rec2, {}).ok());

  // Twin 2: a crash inside the end-of-trace grace window is forgiven.
  InvariantOptions grace;
  grace.crash_grace_us = 100 * kSec;
  EXPECT_TRUE(check_invariants(rec, grace).ok());
}

TEST(Invariants, ReissueWhileOutstandingIsDoubleIssued) {
  EnabledRecorder rec;
  const std::uint32_t sched = rec.intern("sched:700");
  rec.record(1 * kSec, SpanKind::kSchedUnitIssued, sched, 7);
  rec.record(2 * kSec, SpanKind::kSchedUnitIssued, sched, 7);
  rec.record(3 * kSec, SpanKind::kSchedUnitReclaimed, sched, 7);

  InvariantReport r = check_invariants(rec, {});
  EXPECT_EQ(r.units_double_issued, 1u);
  EXPECT_TRUE(has_violation(r, "double-issued"));

  // Twin 1: reclaim between the issues (migration) is the sanctioned path.
  EnabledRecorder rec2;
  const std::uint32_t s2 = rec2.intern("sched:700");
  rec2.record(1 * kSec, SpanKind::kSchedUnitIssued, s2, 7);
  rec2.record(2 * kSec, SpanKind::kSchedUnitReclaimed, s2, 7,
              reclaim::kMigrated);
  rec2.record(3 * kSec, SpanKind::kSchedUnitIssued, s2, 7);
  rec2.record(4 * kSec, SpanKind::kSchedUnitReclaimed, s2, 7);
  InvariantReport r2 = check_invariants(rec2, {});
  EXPECT_TRUE(r2.ok());
  EXPECT_EQ(r2.units_double_issued, 0u);

  // Twin 2: a crash between the issues makes the re-issue the recovery path.
  EnabledRecorder rec3;
  const std::uint32_t s3 = rec3.intern("sched:700");
  const std::uint32_t h3 = rec3.intern("sched");
  rec3.record(1 * kSec, SpanKind::kSchedUnitIssued, s3, 7);
  rec3.record(2 * kSec, SpanKind::kChaosFault, h3, kCrash);
  rec3.record(3 * kSec, SpanKind::kChaosFault, h3, kRestart);
  rec3.record(4 * kSec, SpanKind::kSchedUnitIssued, s3, 7);
  rec3.record(5 * kSec, SpanKind::kSchedUnitReclaimed, s3, 7);
  InvariantReport r3 = check_invariants(rec3, {});
  EXPECT_TRUE(r3.ok());
  EXPECT_EQ(r3.units_reissued_after_crash, 1u);
}

TEST(Invariants, CliqueGenerationMustNotRegressWithinAnIncarnation) {
  EnabledRecorder rec;
  const std::uint32_t member = rec.intern("g0:700");
  rec.record(1 * kSec, SpanKind::kCliqueViewChange, member, /*gen=*/5, 3);
  rec.record(2 * kSec, SpanKind::kCliqueViewChange, member, /*gen=*/3, 3);

  InvariantReport r = check_invariants(rec, {});
  EXPECT_TRUE(has_violation(r, "generation regressed"));
  EXPECT_TRUE(has_violation(r, "5 -> 3"));

  // Twin: a crash/restart of that member's host starts a new incarnation,
  // so rejoining at a lower generation is legitimate.
  EnabledRecorder rec2;
  const std::uint32_t m2 = rec2.intern("g0:700");
  const std::uint32_t h2 = rec2.intern("g0");
  rec2.record(1 * kSec, SpanKind::kCliqueViewChange, m2, 5, 3);
  rec2.record(2 * kSec, SpanKind::kChaosFault, h2, kCrash);
  rec2.record(3 * kSec, SpanKind::kChaosFault, h2, kRestart);
  rec2.record(4 * kSec, SpanKind::kCliqueViewChange, m2, 1, 1);
  EXPECT_TRUE(check_invariants(rec2, {}).ok());
}

TEST(Invariants, EmptyGossipDeltaIsAViolation) {
  EnabledRecorder rec;
  const std::uint32_t peer = rec.intern("s1:750");
  rec.record(1 * kSec, SpanKind::kGossipDelta, peer, /*blobs=*/0, /*regs=*/0);

  InvariantReport r = check_invariants(rec, {});
  EXPECT_TRUE(has_violation(r, "empty gossip delta"));

  // Twins: a delta carrying blobs OR registrations is what the planner owes.
  EnabledRecorder rec2;
  const std::uint32_t p2 = rec2.intern("s1:750");
  rec2.record(1 * kSec, SpanKind::kGossipDelta, p2, 2, 0);
  rec2.record(2 * kSec, SpanKind::kGossipDelta, p2, 0, 1);
  InvariantReport r2 = check_invariants(rec2, {});
  EXPECT_TRUE(r2.ok());
  EXPECT_EQ(r2.gossip_deltas, 2u);
  EXPECT_EQ(r2.gossip_delta_blobs, 2u);
}

TEST(Invariants, BreakerOpenAndNeverProbedIsLatched) {
  EnabledRecorder rec;
  const std::uint32_t ep = rec.intern("peer:800");
  rec.record(1 * kSec, SpanKind::kBreakerTransition, ep, kClosed, kOpen);
  rec.record(120 * kSec, SpanKind::kCliqueTokenPass);  // far past the grace

  InvariantReport r = check_invariants(rec, {});
  EXPECT_EQ(r.breaker_opens, 1u);
  EXPECT_EQ(r.breaker_reprobes, 0u);
  EXPECT_TRUE(has_violation(r, "never probed"));

  // Twin 1: the open->half-open probe clears it (even if it re-opens later,
  // recently enough to be inside the grace window).
  EnabledRecorder rec2;
  const std::uint32_t e2 = rec2.intern("peer:800");
  rec2.record(1 * kSec, SpanKind::kBreakerTransition, e2, kClosed, kOpen);
  rec2.record(30 * kSec, SpanKind::kBreakerTransition, e2, kOpen, kHalfOpen);
  rec2.record(120 * kSec, SpanKind::kCliqueTokenPass);
  InvariantReport r2 = check_invariants(rec2, {});
  EXPECT_TRUE(r2.ok());
  EXPECT_EQ(r2.breaker_reprobes, 1u);

  // Twin 2: an open near the end of the trace is inside the cooldown grace.
  EnabledRecorder rec3;
  const std::uint32_t e3 = rec3.intern("peer:800");
  rec3.record(100 * kSec, SpanKind::kBreakerTransition, e3, kClosed, kOpen);
  rec3.record(120 * kSec, SpanKind::kCliqueTokenPass);
  EXPECT_TRUE(check_invariants(rec3, {}).ok());
}

TEST(Invariants, DroppedRingEventsMakeAccountingUnsound) {
  EnabledRecorder rec(/*cap=*/4);
  for (int i = 0; i < 10; ++i) {
    rec.record(i * kSec, SpanKind::kCliqueTokenPass);
  }
  ASSERT_GT(rec.dropped(), 0u);
  InvariantReport r = check_invariants(rec, {});
  EXPECT_TRUE(has_violation(r, "dropped"));
  EXPECT_TRUE(has_violation(r, "unsound"));
}

TEST(Invariants, CleanTraceReportsCleanAccounting) {
  EnabledRecorder rec;
  const std::uint32_t sched = rec.intern("sched:700");
  rec.record(1 * kSec, SpanKind::kSchedUnitIssued, sched, 7);
  rec.record(2 * kSec, SpanKind::kSchedUnitReclaimed, sched, 7,
             reclaim::kReleased);
  rec.record(3 * kSec, SpanKind::kCliqueViewChange, rec.intern("g0:700"), 1, 3);

  InvariantReport r = check_invariants(rec, {});
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.units_issued, 1u);
  EXPECT_EQ(r.units_reclaimed, 1u);
  EXPECT_EQ(r.view_changes, 1u);
}

}  // namespace
}  // namespace ew::obs
