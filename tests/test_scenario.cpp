// End-to-end tests of the SC98 scenario assembly: all seven infrastructures
// delivering power, the judging spike and recovery, the two ablations, and
// golden pins of the quick run.
#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <numeric>
#include <string>

#include "app/scenario.hpp"
#include "common/hash.hpp"
#include "net/node.hpp"
#include "obs/registry.hpp"

namespace ew::app {
namespace {

/// The stability-relevant slice of the process-wide call counters, captured
/// from the registry between scenario arms.
struct NetStats {
  std::uint64_t late_responses = 0;
  std::uint64_t timeouts_fired = 0;
  std::uint64_t timeout_wait_us = 0;
};

NetStats net_stats_snapshot() {
  obs::Registry& r = process_call_stats().registry();
  return {r.counter(obs::names::kNetLateResponses).value(),
          r.counter(obs::names::kNetTimeoutsFired).value(),
          r.histogram(obs::names::kNetTimeoutWaitUs).sum()};
}

/// Small, fast configuration shared by most tests (~2.5 h window).
ScenarioOptions quick_options() {
  ScenarioOptions o;
  o.seed = 7;
  o.fleet_scale = 0.15;
  o.warmup = 30 * kMinute;
  o.record = 150 * kMinute;
  o.judging_offset = 90 * kMinute;
  o.report_interval = kMinute;
  return o;
}

double mean_of(const std::vector<double>& v, std::size_t from, std::size_t to) {
  to = std::min(to, v.size());
  if (from >= to) return 0.0;
  return std::accumulate(v.begin() + static_cast<std::ptrdiff_t>(from),
                         v.begin() + static_cast<std::ptrdiff_t>(to), 0.0) /
         static_cast<double>(to - from);
}

TEST(Scenario, AllInfrastructuresDeliverOps) {
  Sc98Scenario scenario(quick_options());
  const ScenarioResults res = scenario.run();
  EXPECT_GT(res.total_ops, 0u);
  for (int i = 0; i < core::kInfraCount; ++i) {
    const auto& series = res.infra_rate[static_cast<std::size_t>(i)];
    const double total = std::accumulate(series.begin(), series.end(), 0.0);
    EXPECT_GT(total, 0.0) << core::infra_name(static_cast<core::Infra>(i));
  }
}

TEST(Scenario, HostCountsSampledPerInfrastructure) {
  Sc98Scenario scenario(quick_options());
  const ScenarioResults res = scenario.run();
  for (int i = 0; i < core::kInfraCount; ++i) {
    const auto& hosts = res.infra_hosts[static_cast<std::size_t>(i)];
    const double peak = *std::max_element(hosts.begin(), hosts.end());
    EXPECT_GT(peak, 0.0) << core::infra_name(static_cast<core::Infra>(i));
  }
}

TEST(Scenario, JudgingSpikeDipsAndRecovers) {
  Sc98Scenario scenario(quick_options());
  const ScenarioResults res = scenario.run();
  const std::size_t j = res.bins_judging_index;
  ASSERT_GT(j, 4u);
  ASSERT_LT(j + 8, res.total_rate.size());
  const double before = mean_of(res.total_rate, j - 5, j - 1);
  double dip = 1e18;
  for (std::size_t i = j; i < j + 3; ++i) dip = std::min(dip, res.total_rate[i]);
  const double after = mean_of(res.total_rate, j + 7, j + 12);
  EXPECT_LT(dip, 0.75 * before) << "spike must depress delivered power";
  EXPECT_GT(after, 0.75 * before) << "application must re-absorb the power";
}

TEST(Scenario, NoSpikeMeansNoDip) {
  ScenarioOptions o = quick_options();
  o.enable_spike = false;
  Sc98Scenario scenario(o);
  const ScenarioResults res = scenario.run();
  const std::size_t j = res.bins_judging_index;
  const double before = mean_of(res.total_rate, j - 5, j - 1);
  double dip = 1e18;
  for (std::size_t i = j; i < j + 3; ++i) dip = std::min(dip, res.total_rate[i]);
  EXPECT_GT(dip, 0.6 * before);
}

TEST(Scenario, TotalIsSmootherThanComponents) {
  // The Figure 3/4 claim: the aggregate draws power "relatively uniformly"
  // while individual infrastructures fluctuate.
  ScenarioOptions o = quick_options();
  o.enable_spike = false;
  Sc98Scenario scenario(o);
  const ScenarioResults res = scenario.run();
  auto cv = [](const std::vector<double>& v) {
    RunningStats s;
    for (double x : v) s.add(x);
    return s.cv();
  };
  const double total_cv = cv(res.total_rate);
  int rougher = 0;
  int measured = 0;
  for (int i = 0; i < core::kInfraCount; ++i) {
    const auto& series = res.infra_rate[static_cast<std::size_t>(i)];
    if (std::accumulate(series.begin(), series.end(), 0.0) <= 0.0) continue;
    ++measured;
    if (cv(series) > total_cv) ++rougher;
  }
  EXPECT_GE(measured, 5);
  EXPECT_GE(rougher, measured - 1)
      << "nearly every per-infrastructure series should be rougher than the total";
}

TEST(Scenario, DeterministicAcrossRuns) {
  Sc98Scenario a(quick_options());
  Sc98Scenario b(quick_options());
  const ScenarioResults ra = a.run();
  const ScenarioResults rb = b.run();
  EXPECT_EQ(ra.total_ops, rb.total_ops);
  EXPECT_EQ(ra.total_rate, rb.total_rate);
  EXPECT_EQ(ra.reports, rb.reports);
}

TEST(Scenario, SeedChangesTrajectory) {
  ScenarioOptions o = quick_options();
  Sc98Scenario a(o);
  o.seed = 8;
  Sc98Scenario b(o);
  EXPECT_NE(a.run().total_ops, b.run().total_ops);
}

TEST(Scenario, AdaptiveTimeoutsAreStablerThanShortStatic) {
  // Section 2.2 ablation, stability framing: a spurious time-out is a call
  // abandoned whose response later arrived ("misjudged the availability").
  // The forecast-driven policy must misjudge far less than a tight static
  // value while burning far less waiting time than a loose one, at
  // equivalent delivered throughput (compute dominates ops in this model).
  ScenarioOptions base = quick_options();

  process_call_stats().reset();
  const ScenarioResults ra = Sc98Scenario(base).run();
  const NetStats adaptive = net_stats_snapshot();

  ScenarioOptions tight = base;
  tight.adaptive_timeouts = false;
  tight.static_timeout = 300 * kMillisecond;
  process_call_stats().reset();
  const ScenarioResults rt = Sc98Scenario(tight).run();
  const NetStats short_static = net_stats_snapshot();

  ScenarioOptions loose = base;
  loose.adaptive_timeouts = false;
  loose.static_timeout = 20 * kSecond;
  process_call_stats().reset();
  Sc98Scenario(loose).run();
  const NetStats long_static = net_stats_snapshot();
  process_call_stats().reset();

  EXPECT_LT(adaptive.late_responses * 2, short_static.late_responses)
      << "adaptive misjudged " << adaptive.late_responses
      << " vs short static " << short_static.late_responses;
  const double adaptive_wait =
      adaptive.timeouts_fired
          ? static_cast<double>(adaptive.timeout_wait_us) / adaptive.timeouts_fired
          : 0;
  const double loose_wait =
      long_static.timeouts_fired
          ? static_cast<double>(long_static.timeout_wait_us) /
                long_static.timeouts_fired
          : 0;
  EXPECT_LT(adaptive_wait * 2, loose_wait);
  // Throughput stays within the noise band in every configuration.
  EXPECT_NEAR(static_cast<double>(ra.total_ops), static_cast<double>(rt.total_ops),
              0.1 * static_cast<double>(ra.total_ops));
}

TEST(Scenario, SchedulersInCondorDegradeService) {
  // Section 5.4 ablation: schedulers placed on reclaimable hosts churn, and
  // clients spend time re-locating viable schedulers.
  ScenarioOptions stable = quick_options();
  ScenarioOptions volatile_sched = quick_options();
  volatile_sched.schedulers_in_condor = true;
  const ScenarioResults rs = Sc98Scenario(stable).run();
  const ScenarioResults rv = Sc98Scenario(volatile_sched).run();
  EXPECT_LT(rv.total_ops, rs.total_ops);
}

TEST(Scenario, Figure1AuxiliaryServicesRun) {
  // The NWS stations probe throughout the run and the replicated server
  // directory converges on the full scheduler list.
  Sc98Scenario scenario(quick_options());
  const ScenarioResults res = scenario.run();
  EXPECT_GT(res.nws_probes, 100u);
  EXPECT_EQ(res.directory_size, 3u);  // num_schedulers
}

TEST(Scenario, HostCountOverridesApply) {
  ScenarioOptions o = quick_options();
  o.fleet_scale = 1.0;  // overrides below are exact counts
  o.record = 90 * kMinute;
  o.judging_offset = 60 * kMinute;
  o.host_count_override[static_cast<std::size_t>(core::Infra::kCondor)] = 5;
  o.host_count_override[static_cast<std::size_t>(core::Infra::kNT)] = 3;
  Sc98Scenario scenario(o);
  const ScenarioResults res = scenario.run();
  const auto peak = [&](core::Infra i) {
    const auto& v = res.infra_hosts[static_cast<std::size_t>(i)];
    return *std::max_element(v.begin(), v.end());
  };
  EXPECT_LE(peak(core::Infra::kCondor), 5.0);
  EXPECT_LE(peak(core::Infra::kNT), 3.0);
  // Unoverridden pools keep their calibrated sizes.
  EXPECT_GT(peak(core::Infra::kLegion), 10.0);
}

TEST(Scenario, QuirkCountersSurface) {
  ScenarioOptions o = quick_options();
  o.record = 3 * kHour;
  o.judging_offset = 90 * kMinute;
  Sc98Scenario scenario(o);
  const ScenarioResults res = scenario.run();
  EXPECT_GT(res.condor_evictions, 0u);
  EXPECT_GT(res.translated_calls, 0u);  // Legion clients work through the translator
  EXPECT_GT(res.reports, 100u);
  EXPECT_GT(res.log_records, 100u);
}

// Golden pins of the whole scenario, in two parts. The results digest is
// FNV-1a over every ScenarioResults field (each series value's bits and
// every counter); set-up refactors and event-count cuts must leave it
// unchanged. The executed-event count is pinned apart, so a change that
// only removes events shows as exactly that. A failing run prints the
// current values.
struct QuickRun {
  std::uint64_t results = 0;
  std::size_t executed = 0;
};

QuickRun quick_run(std::uint64_t seed) {
  ScenarioOptions o = quick_options();
  o.seed = seed;
  Sc98Scenario scenario(o);
  const ScenarioResults res = scenario.run();
  std::uint64_t h = kFnvBasis;
  auto series = [&h](const std::vector<double>& v) {
    h = fnv_mix(h, static_cast<std::uint64_t>(v.size()));
    for (const double x : v) h = fnv_mix(h, std::bit_cast<std::uint64_t>(x));
  };
  h = fnv_mix(h, static_cast<std::uint64_t>(res.bin_start.size()));
  for (const TimePoint t : res.bin_start) h = fnv_mix(h, static_cast<std::uint64_t>(t));
  series(res.total_rate);
  for (const auto& s : res.infra_rate) series(s);
  for (const auto& s : res.infra_hosts) series(s);
  for (const std::uint64_t c :
       {res.total_ops, res.log_records, res.reports, res.migrations,
        res.presumed_dead, res.condor_evictions, res.lsf_kills,
        res.translated_calls, res.counterexample_stores_rejected,
        res.nws_probes, static_cast<std::uint64_t>(res.directory_size),
        static_cast<std::uint64_t>(res.bins_judging_index)}) {
    h = fnv_mix(h, c);
  }
  return {h, scenario.events().executed()};
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

TEST(ScenarioGolden, QuickSeed1) {
  const QuickRun run = quick_run(1);
  EXPECT_EQ(hex(run.results), "f366e1ed55dc7923");
  EXPECT_EQ(run.executed, 114'179u);
}
TEST(ScenarioGolden, QuickSeed2) {
  const QuickRun run = quick_run(2);
  EXPECT_EQ(hex(run.results), "85aaf88332cf6f3c");
  EXPECT_EQ(run.executed, 113'383u);
}
TEST(ScenarioGolden, QuickSeed3) {
  const QuickRun run = quick_run(3);
  EXPECT_EQ(hex(run.results), "dfc648fe3f48af40");
  EXPECT_EQ(run.executed, 115'370u);
}

}  // namespace
}  // namespace ew::app
