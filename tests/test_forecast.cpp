// Tests for the NWS-style forecasting battery, the adaptive selector, and
// dynamic benchmarking.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string_view>

#include "common/clock.hpp"
#include "common/rng.hpp"
#include "forecast/dynamic_benchmark.hpp"
#include "forecast/forecaster.hpp"
#include "forecast/selector.hpp"

namespace ew {
namespace {

// --- Individual methods ----------------------------------------------------

TEST(LastValue, TracksMostRecent) {
  LastValue f;
  EXPECT_EQ(f.predict(), 0.0);
  f.observe(5);
  f.observe(7);
  EXPECT_EQ(f.predict(), 7.0);
}

TEST(RunningMean, AveragesHistory) {
  RunningMean f;
  for (double v : {2.0, 4.0, 6.0}) f.observe(v);
  EXPECT_DOUBLE_EQ(f.predict(), 4.0);
}

TEST(SlidingMean, ForgetsOldValues) {
  SlidingMean<2> f;
  for (double v : {100.0, 1.0, 3.0}) f.observe(v);
  EXPECT_DOUBLE_EQ(f.predict(), 2.0);
}

TEST(SlidingMedian, RobustToOutlier) {
  SlidingMedian<5> f;
  for (double v : {10.0, 10.0, 10.0, 10.0, 1000.0}) f.observe(v);
  EXPECT_DOUBLE_EQ(f.predict(), 10.0);
}

TEST(TrimmedMean, DropsTails) {
  TrimmedMean<5> f(0.2);
  for (double v : {1.0, 10.0, 10.0, 10.0, 1000.0}) f.observe(v);
  EXPECT_DOUBLE_EQ(f.predict(), 10.0);
}

TEST(TrimmedMean, DegenerateTrimMatchesMedian) {
  // trim = 0.5 cuts everything but the middle: the prediction must agree
  // with SlidingMedian at every step, including the even-size nearest-rank
  // rule during warm-up (the naive version returned the upper middle
  // element there).
  TrimmedMean<4> f(0.5);
  SlidingMedian<4> m;
  for (double v : {8.0, 2.0, 4.0, 16.0, 1.0}) {
    EXPECT_DOUBLE_EQ(f.observe(v), m.observe(v));
  }
  EXPECT_DOUBLE_EQ(f.predict(), m.predict());
}

TEST(SlidingMedian, EvenSizesUseNearestRankDuringWarmup) {
  SlidingMedian<5> f;
  f.observe(10.0);
  EXPECT_DOUBLE_EQ(f.predict(), 10.0);
  f.observe(20.0);
  EXPECT_DOUBLE_EQ(f.predict(), 10.0);  // nearest-rank of {10,20}
}

TEST(Forecaster, ObserveReturnsStandingPrediction) {
  // The hot-path contract: observe() hands back exactly what predict()
  // answers afterwards, for every battery member.
  Rng rng(3);
  NwsBattery battery;
  battery.for_each([&](std::size_t k, auto& m) {
    for (int i = 0; i < 100; ++i) {
      const double got = m.observe(rng.uniform(0, 1000));
      ASSERT_EQ(got, m.predict()) << NwsBattery::kNames[k] << " step " << i;
    }
  });
}

TEST(ExpSmooth, SeedsWithFirstValue) {
  ExpSmooth f(0.5);
  f.observe(10);
  EXPECT_DOUBLE_EQ(f.predict(), 10.0);
  f.observe(20);
  EXPECT_DOUBLE_EQ(f.predict(), 15.0);
}

TEST(AdaptiveExpSmooth, GainStaysClamped) {
  AdaptiveExpSmooth f(0.2, 0.05, 0.95);
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) f.observe(rng.uniform(0, 100));
  EXPECT_GE(f.gain(), 0.05);
  EXPECT_LE(f.gain(), 0.95);
}

TEST(AdaptiveExpSmooth, TracksLevelShift) {
  AdaptiveExpSmooth f;
  for (int i = 0; i < 50; ++i) f.observe(10);
  for (int i = 0; i < 50; ++i) f.observe(100);
  EXPECT_NEAR(f.predict(), 100, 10);
}

TEST(TrendForecaster, ExtrapolatesLinearSeriesExactly) {
  TrendForecaster<10> f;
  for (int i = 0; i < 10; ++i) f.observe(3.0 * i + 2.0);
  EXPECT_NEAR(f.predict(), 3.0 * 10 + 2.0, 1e-9);
}

TEST(TrendForecaster, ConstantSeriesPredictsConstant) {
  TrendForecaster<5> f;
  for (int i = 0; i < 5; ++i) f.observe(7.0);
  EXPECT_NEAR(f.predict(), 7.0, 1e-9);
}

TEST(DefaultBattery, HasDistinctNames) {
  const auto& battery = NwsBattery::kNames;
  ASSERT_GE(battery.size(), 10u);
  const std::set<std::string_view> names(battery.begin(), battery.end());
  EXPECT_EQ(names.size(), battery.size());
}

// --- Adaptive selector -------------------------------------------------------

TEST(AdaptiveForecaster, EmptyForecastIsZeroSamples) {
  auto f = AdaptiveForecaster::nws_default();
  EXPECT_EQ(f.forecast().samples, 0u);
}

TEST(AdaptiveForecaster, ConstantSeriesForecastExact) {
  auto f = AdaptiveForecaster::nws_default();
  for (int i = 0; i < 50; ++i) f.observe(42.0);
  const Forecast fc = f.forecast();
  EXPECT_DOUBLE_EQ(fc.value, 42.0);
  EXPECT_NEAR(fc.error, 0.0, 1e-12);
}

TEST(AdaptiveForecaster, TrendingSeriesPicksTrendAwareMethod) {
  auto f = AdaptiveForecaster::nws_default();
  for (int i = 0; i < 200; ++i) f.observe(5.0 * i);
  const Forecast fc = f.forecast();
  // The winner must be close to the next value (1000); mean-like methods
  // would be hundreds off.
  EXPECT_NEAR(fc.value, 1000.0, 20.0);
}

/// Property: across regime types, the adaptive selector's cumulative MAE is
/// never much worse than the best single method's (the NWS claim).
struct Regime {
  const char* name;
  std::function<double(int, Rng&)> gen;
};

class SelectorProperty : public ::testing::TestWithParam<int> {};

TEST_P(SelectorProperty, SelectorCompetitiveWithBestMethod) {
  const int regime_id = GetParam();
  const Regime regimes[] = {
      {"constant", [](int, Rng& r) { return 50.0 + r.normal(0, 1); }},
      {"trend", [](int i, Rng& r) { return 2.0 * i + r.normal(0, 3); }},
      {"level-shift",
       [](int i, Rng& r) { return (i < 300 ? 20.0 : 200.0) + r.normal(0, 2); }},
      {"noisy", [](int, Rng& r) { return r.uniform(0, 100); }},
      {"spiky",
       [](int i, Rng& r) {
         return (i % 50 == 0 ? 500.0 : 10.0) + r.normal(0, 1);
       }},
      {"seasonal",
       [](int i, Rng& r) {
         return 50.0 + 30.0 * std::sin(i / 10.0) + r.normal(0, 2);
       }},
  };
  const Regime& regime = regimes[regime_id];

  Rng rng(static_cast<std::uint64_t>(regime_id) + 100);
  auto selector = AdaptiveForecaster::nws_default();
  ErrorTracker selector_err;
  for (int i = 0; i < 600; ++i) {
    const double v = regime.gen(i, rng);
    if (i > 0) selector_err.add(selector.forecast().value, v);
    selector.observe(v);
  }
  const auto maes = selector.method_mae();
  const double best = *std::min_element(maes.begin(), maes.end());
  // Allow slack for the selector's warm-up hunting.
  EXPECT_LE(selector_err.mae(), best * 1.5 + 1.0)
      << "regime " << regime.name << ": selector " << selector_err.mae()
      << " vs best method " << best;
}

INSTANTIATE_TEST_SUITE_P(Regimes, SelectorProperty, ::testing::Range(0, 6));

// --- Dynamic benchmarking ------------------------------------------------------

TEST(EventForecasterBank, TagsAreIndependent) {
  EventForecasterBank bank;
  const EventTag a{Endpoint{"server-a", 1}, 1};
  const EventTag b{Endpoint{"server-b", 1}, 1};
  for (int i = 0; i < 20; ++i) {
    bank.record(a, 100.0);
    bank.record(b, 900.0);
  }
  EXPECT_NEAR(bank.forecast(a).value, 100.0, 1.0);
  EXPECT_NEAR(bank.forecast(b).value, 900.0, 1.0);
  EXPECT_EQ(bank.tracked_events(), 2u);
}

TEST(EventForecasterBank, SameAddressDifferentTypeIsDifferentEvent) {
  EventForecasterBank bank;
  bank.record(EventTag{Endpoint{"s", 1}, 1}, 5.0);
  EXPECT_TRUE(bank.knows(EventTag{Endpoint{"s", 1}, 1}));
  EXPECT_FALSE(bank.knows(EventTag{Endpoint{"s", 1}, 2}));
}

TEST(ScopedEventTimer, RecordsElapsedOnFinish) {
  EventForecasterBank bank;
  VirtualClock clock;
  const EventTag tag{Endpoint{"x", 1}, 3};
  {
    ScopedEventTimer t(bank, clock, tag);
    clock.advance(250 * kMillisecond);
    t.finish();
    clock.advance(kSecond);  // after finish: not counted
  }
  const Forecast f = bank.forecast(tag);
  ASSERT_EQ(f.samples, 1u);
  EXPECT_DOUBLE_EQ(f.value, static_cast<double>(250 * kMillisecond));
}

TEST(ScopedEventTimer, RecordsOnDestruction) {
  EventForecasterBank bank;
  VirtualClock clock;
  const EventTag tag{Endpoint{"x", 1}, 4};
  {
    ScopedEventTimer t(bank, clock, tag);
    clock.advance(100);
  }
  EXPECT_EQ(bank.forecast(tag).samples, 1u);
}

TEST(ScopedEventTimer, DismissSkipsRecording) {
  EventForecasterBank bank;
  VirtualClock clock;
  const EventTag tag{Endpoint{"x", 1}, 5};
  {
    ScopedEventTimer t(bank, clock, tag);
    t.dismiss();
  }
  EXPECT_EQ(bank.forecast(tag).samples, 0u);
}

TEST(EventTag, OfEndpointFormatsAddress) {
  const EventTag tag = EventTag::of(Endpoint{"host", 42}, 7);
  EXPECT_EQ(tag.server, (Endpoint{"host", 42}));
  EXPECT_EQ(tag.to_string(), "host:42/7");
}

}  // namespace
}  // namespace ew
