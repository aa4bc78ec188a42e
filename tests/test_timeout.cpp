// Tests for dynamic time-out discovery (paper Section 2.2).
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "forecast/timeout.hpp"

namespace ew {
namespace {

const EventTag kTag{Endpoint{"server", 601}, 0x0202};

TEST(AdaptiveTimeout, InitialBeforeAnyMeasurement) {
  AdaptiveTimeout t;
  EXPECT_EQ(t.timeout(kTag), t.options().initial);
}

TEST(AdaptiveTimeout, ConvergesAboveObservedRtt) {
  AdaptiveTimeout t;
  for (int i = 0; i < 50; ++i) t.on_result(kTag, 100 * kMillisecond, true);
  const Duration to = t.timeout(kTag);
  EXPECT_GT(to, 100 * kMillisecond);          // above the RTT
  EXPECT_LT(to, 2 * kSecond);                 // but not absurdly so
}

TEST(AdaptiveTimeout, RespectsFloor) {
  AdaptiveTimeout::Options o;
  o.floor = 200 * kMillisecond;
  AdaptiveTimeout t(o);
  for (int i = 0; i < 50; ++i) t.on_result(kTag, 1 * kMillisecond, true);
  EXPECT_GE(t.timeout(kTag), o.floor);
}

TEST(AdaptiveTimeout, RespectsCeiling) {
  AdaptiveTimeout::Options o;
  o.ceiling = 10 * kSecond;
  AdaptiveTimeout t(o);
  for (int i = 0; i < 50; ++i) t.on_result(kTag, 60 * kSecond, true);
  EXPECT_LE(t.timeout(kTag), o.ceiling);
}

TEST(AdaptiveTimeout, FailuresInflateTimeout) {
  AdaptiveTimeout t;
  for (int i = 0; i < 20; ++i) t.on_result(kTag, 100 * kMillisecond, true);
  const Duration before = t.timeout(kTag);
  for (int i = 0; i < 10; ++i) t.on_result(kTag, before, false);
  EXPECT_GT(t.timeout(kTag), before);
}

TEST(AdaptiveTimeout, RecoversAfterFailures) {
  AdaptiveTimeout t;
  for (int i = 0; i < 20; ++i) t.on_result(kTag, 100 * kMillisecond, true);
  for (int i = 0; i < 5; ++i) t.on_result(kTag, t.timeout(kTag), false);
  const Duration inflated = t.timeout(kTag);
  for (int i = 0; i < 100; ++i) t.on_result(kTag, 100 * kMillisecond, true);
  EXPECT_LT(t.timeout(kTag), inflated);
}

TEST(AdaptiveTimeout, TracksLoadIncrease) {
  // RTTs jump 10x; the time-out must follow within a modest number of
  // observations (the SCINet reconfiguration scenario).
  AdaptiveTimeout t;
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    t.on_result(kTag, static_cast<Duration>(100 * kMillisecond * rng.uniform(0.8, 1.2)),
                true);
  }
  for (int i = 0; i < 40; ++i) {
    const Duration rtt =
        static_cast<Duration>(1000 * kMillisecond * rng.uniform(0.8, 1.2));
    t.on_result(kTag, rtt, rtt <= t.timeout(kTag));
  }
  EXPECT_GT(t.timeout(kTag), 1000 * kMillisecond);
}

TEST(AdaptiveTimeout, PerTagIsolation) {
  AdaptiveTimeout t;
  const EventTag fast{Endpoint{"fast", 1}, 1};
  const EventTag slow{Endpoint{"slow", 1}, 1};
  for (int i = 0; i < 30; ++i) {
    t.on_result(fast, 10 * kMillisecond, true);
    t.on_result(slow, 5 * kSecond, true);
  }
  EXPECT_LT(t.timeout(fast), t.timeout(slow));
}

TEST(AdaptiveTimeout, GlobalOverrideFreezesPolicy) {
  AdaptiveTimeout t;
  for (int i = 0; i < 30; ++i) t.on_result(kTag, 100 * kMillisecond, true);
  {
    AdaptiveTimeout::StaticOverrideGuard guard(7 * kSecond);
    EXPECT_EQ(t.timeout(kTag), 7 * kSecond);
    EXPECT_EQ(AdaptiveTimeout::global_static_override(), 7 * kSecond);
  }
  EXPECT_EQ(AdaptiveTimeout::global_static_override(), 0);
  EXPECT_NE(t.timeout(kTag), 7 * kSecond);
}

/// Property sweep: across lognormal RTT distributions, the converged
/// adaptive time-out yields a low spurious-timeout rate while staying within
/// a small multiple of the typical RTT (tight AND safe).
class TimeoutProperty : public ::testing::TestWithParam<double> {};

TEST_P(TimeoutProperty, LowSpuriousRateTightBound) {
  const double sigma = GetParam();
  Rng rng(static_cast<std::uint64_t>(sigma * 100));
  AdaptiveTimeout t;
  const double median_ms = 200.0;
  // Warm up.
  for (int i = 0; i < 200; ++i) {
    const auto rtt = static_cast<Duration>(median_ms * kMillisecond *
                                           rng.lognormal(0.0, sigma));
    t.on_result(kTag, rtt, rtt <= t.timeout(kTag));
  }
  int spurious = 0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    const auto rtt = static_cast<Duration>(median_ms * kMillisecond *
                                           rng.lognormal(0.0, sigma));
    const bool ok = rtt <= t.timeout(kTag);
    spurious += ok ? 0 : 1;
    t.on_result(kTag, rtt, ok);
  }
  EXPECT_LT(static_cast<double>(spurious) / n, 0.08) << "sigma=" << sigma;
}

INSTANTIATE_TEST_SUITE_P(JitterShapes, TimeoutProperty,
                         ::testing::Values(0.1, 0.25, 0.5, 0.8));

}  // namespace
}  // namespace ew
