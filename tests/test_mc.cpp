// Model-checker tests: the EventQueue choice-point surface (eligible /
// step_event / cancel-during-dispatch) and the Explorer itself (exploration
// determinism, sleep-set reduction soundness, the seeded no-dedupe scheduler
// bug's minimized repro). The heavyweight exhaustive gates live in
// bench/mc_explore (ctest: mc_smoke); these pin the mechanisms.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/clock.hpp"
#include "sim/event_queue.hpp"
#include "sim/mc/explorer.hpp"
#include "sim/mc/fixtures.hpp"

namespace ew::sim {
namespace {

// ---- Choice-point API: eligible() / step_event() ------------------------

TEST(EventQueueChoice, EligibleListsSameTimeEventsInFifoOrder) {
  EventQueue q;
  int ran = 0;
  TimerId a = q.schedule(5, [&] { ran = 1; });
  TimerId b = q.schedule(5, [&] { ran = 2; });
  q.schedule(9, [&] { ran = 3; });  // later: must not be eligible

  auto elig = q.eligible();
  ASSERT_EQ(elig.size(), 2u);
  EXPECT_EQ(elig[0].id, a);
  EXPECT_EQ(elig[1].id, b);
  EXPECT_LT(elig[0].id, elig[1].id);
  EXPECT_EQ(elig[0].at, 5);

  // Firing eligible()[0] is exactly step().
  EXPECT_TRUE(q.step());
  EXPECT_EQ(ran, 1);
}

TEST(EventQueueChoice, StepEventFiresOutOfFifoOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(5, [&] { order.push_back(0); });
  TimerId b = q.schedule(5, [&] { order.push_back(1); });
  q.schedule(5, [&] { order.push_back(2); });

  EXPECT_TRUE(q.step_event(b));  // fire the middle event first
  EXPECT_TRUE(q.step());
  EXPECT_TRUE(q.step());
  EXPECT_EQ(order, (std::vector<int>{1, 0, 2}));
}

TEST(EventQueueChoice, StepEventRejectsNonEligibleAndUnknownIds) {
  EventQueue q;
  int ran = 0;
  q.schedule(5, [&] { ran += 1; });
  TimerId later = q.schedule(9, [&] { ran += 10; });

  EXPECT_FALSE(q.step_event(later));       // not at the earliest timestamp
  EXPECT_FALSE(q.step_event(9999));        // unknown id
  EXPECT_EQ(ran, 0);                       // nothing fired
  EXPECT_EQ(q.pending(), 2u);

  q.run_until_idle();
  EXPECT_EQ(ran, 11);
  EXPECT_FALSE(q.step_event(later));  // already fired: id is gone
}

// ---- cancel() during same-time dispatch ---------------------------------

TEST(EventQueueCancel, SelfCancelInsideOwnClosureIsNoOp) {
  EventQueue q;
  int ran = 0;
  TimerId self = kInvalidTimer;
  self = q.schedule(5, [&] {
    q.cancel(self);  // the firing event's mapping is already gone
    ran = 1;
  });
  EXPECT_TRUE(q.step());
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(q.pending(), 0u);
  // The queue stays healthy: new work schedules and runs normally.
  q.schedule(1, [&] { ran = 2; });
  q.run_until_idle();
  EXPECT_EQ(ran, 2);
}

TEST(EventQueueCancel, SiblingCancelledMidDispatchNeverFires) {
  EventQueue q;
  int ran_b = 0;
  TimerId b = kInvalidTimer;
  q.schedule(5, [&] { q.cancel(b); });   // A cancels same-time sibling B
  b = q.schedule(5, [&] { ran_b = 1; });

  ASSERT_EQ(q.eligible().size(), 2u);
  EXPECT_TRUE(q.step());                 // runs A, which cancels B
  EXPECT_EQ(q.eligible().size(), 0u);    // B is gone, not still eligible
  EXPECT_FALSE(q.step_event(b));         // a chosen-but-cancelled id refuses
  EXPECT_FALSE(q.step());
  EXPECT_EQ(ran_b, 0);
}

TEST(EventQueueCancel, DoubleCancelIsNoOp) {
  EventQueue q;
  int ran = 0;
  TimerId a = q.schedule(5, [&] { ran = 1; });
  q.schedule(5, [&] { ran += 10; });
  q.cancel(a);
  q.cancel(a);  // second cancel of the same id: harmless
  q.run_until_idle();
  EXPECT_EQ(ran, 10);
}

TEST(EventQueueChoice, LabelsInheritFromTheFiringEvent) {
  EventQueue q;
  TimerId child = kInvalidTimer;
  {
    EventQueue::LabelScope scope(q, "hostA");
    q.schedule(5, [&] {
      // Scheduled while a "hostA"-labelled event runs: inherits the label.
      child = q.schedule(3, [] {});
    });
  }
  q.schedule(5, [] {});  // outside the scope: unlabelled

  auto elig = q.eligible();
  ASSERT_EQ(elig.size(), 2u);
  EXPECT_EQ(elig[0].label, "hostA");
  EXPECT_EQ(elig[1].label, "");

  EXPECT_TRUE(q.step());  // fire the labelled parent
  auto elig2 = q.eligible();
  ASSERT_EQ(elig2.size(), 1u);
  EXPECT_EQ(elig2[0].label, "");  // the unlabelled sibling is next (t=5)
  EXPECT_TRUE(q.step());
  auto elig3 = q.eligible();
  ASSERT_EQ(elig3.size(), 1u);
  EXPECT_EQ(elig3[0].id, child);
  EXPECT_EQ(elig3[0].label, "hostA");  // inherited, no LabelScope in sight
}

}  // namespace
}  // namespace ew::sim

namespace ew::sim::mc {
namespace {

constexpr std::uint64_t kSeed = 0x5eed0901;

Options small_clique_opts() {
  Options o;
  o.max_steps = 8;
  o.window = 8 * kSecond;
  return o;
}

Options sched_opts() {
  Options o;
  o.max_steps = 8;
  o.window = 3 * kSecond;
  return o;
}

// ---- Explorer ------------------------------------------------------------

TEST(Explorer, ExplorationIsDeterministic) {
  auto factory = [] { return make_clique_world(kSeed); };
  Report a = Explorer(factory, small_clique_opts()).explore();
  Report b = Explorer(factory, small_clique_opts()).explore();
  EXPECT_EQ(a.branches, b.branches);
  EXPECT_EQ(a.runs, b.runs);
  EXPECT_EQ(a.choice_points, b.choice_points);
  EXPECT_EQ(a.sleep_pruned, b.sleep_pruned);
  EXPECT_EQ(a.fingerprints, b.fingerprints);
  EXPECT_EQ(a.violations.size(), b.violations.size());
}

TEST(Explorer, SleepSetReductionPrunesButPreservesOutcomes) {
  auto factory = [] { return make_clique_world(kSeed); };
  Options on = small_clique_opts();
  Options off = small_clique_opts();
  off.reduce = false;
  Report reduced = Explorer(factory, on).explore();
  Report naive = Explorer(factory, off).explore();

  EXPECT_TRUE(reduced.ok()) << "clique world must be violation-free";
  EXPECT_TRUE(naive.ok());
  EXPECT_LT(reduced.branches, naive.branches);  // pruning actually happened
  EXPECT_GT(reduced.sleep_pruned, 0u);
  // Soundness: the reduced run visits every end state the naive run saw.
  EXPECT_EQ(reduced.fingerprints, naive.fingerprints);
}

TEST(Explorer, DedupeSchedulerWorldIsViolationFree) {
  Report r = Explorer([] { return make_sched_world(kSeed, /*dedupe=*/true); },
                      sched_opts())
                 .explore();
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.violations.empty());
  EXPECT_GE(r.branches, 1u);
}

TEST(Explorer, SeededNoDedupeBugCaughtWithMinimalDeterministicRepro) {
  Options o = sched_opts();
  o.stop_at_first_violation = true;
  auto factory = [] { return make_sched_world(kSeed, /*dedupe=*/false); };
  Report r = Explorer(factory, o).explore();

  ASSERT_FALSE(r.violations.empty())
      << "the no-dedupe lease divergence must be reachable";
  const Violation& v = r.violations.front();
  EXPECT_LE(v.repro.choices.size(), 20u);  // the ISSUE's repro-length gate
  EXPECT_TRUE(v.replay_deterministic);
  // The minimized repro is sparse: every surviving choice is non-default.
  for (const auto& [step, choice] : v.repro.choices) {
    EXPECT_FALSE(choice.is_default()) << "minimize left a default at " << step;
  }
  // Replaying the repro from scratch reproduces the same violation text.
  std::vector<std::string> replayed =
      Explorer(factory, o).replay(v.repro);
  EXPECT_EQ(replayed, v.messages);
}

TEST(Explorer, ReplayOfDefaultBranchIsClean) {
  // An empty repro = the pure FIFO branch, which matches what the seeded
  // chaos-free sim does: it must be violation-free in every world.
  for (auto* make : {&make_clique_world, &make_gossip_world}) {
    auto factory = [make] { return (*make)(kSeed); };
    Repro fifo;
    fifo.world = factory()->name();
    Options o;
    o.max_steps = 4;
    o.window = 2 * kSecond;
    std::vector<std::string> v = Explorer(factory, o).replay(fifo);
    EXPECT_TRUE(v.empty()) << fifo.world << ": " << (v.empty() ? "" : v[0]);
  }
}

TEST(Explorer, ReproToStringRoundTripsTheShape) {
  Repro r;
  r.world = "sched-nodedupe";
  r.choices.push_back({4, Choice{Choice::Kind::kEvent, 1}});
  r.choices.push_back({7, Choice{Choice::Kind::kFault, 0}});
  EXPECT_EQ(r.to_string(), "world=sched-nodedupe steps: 4:ev[1] 7:fault[0]");
}

}  // namespace
}  // namespace ew::sim::mc
