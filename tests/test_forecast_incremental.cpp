// Property tests for the incremental forecaster battery: every O(log w) /
// O(1) incremental implementation must agree with a naive
// recompute-from-the-raw-window reference over long random observe/evict
// sequences. Exactness tiers (documented in DESIGN.md, "Forecasting hot
// path"):
//   * SlidingMedian, TrimmedMean — bit-identical (pure order statistics /
//     identical left-to-right sums over identically sorted arrays);
//   * SlidingMean, TrendForecaster — equal to within floating-point
//     accumulation tolerance (running sums vs. full recompute).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <deque>
#include <functional>
#include <type_traits>
#include <vector>

#include "common/rng.hpp"
#include "forecast/dynamic_benchmark.hpp"
#include "forecast/forecaster.hpp"
#include "forecast/selector.hpp"
#include "obs/registry.hpp"

namespace ew {
namespace {

// --- Naive reference implementations (the pre-optimization semantics) ------

class NaiveWindow {
 public:
  explicit NaiveWindow(std::size_t cap) : cap_(cap) {}
  void add(double v) {
    if (buf_.size() == cap_) buf_.pop_front();
    buf_.push_back(v);
  }
  [[nodiscard]] std::vector<double> sorted() const {
    std::vector<double> v(buf_.begin(), buf_.end());
    std::sort(v.begin(), v.end());
    return v;
  }
  [[nodiscard]] const std::deque<double>& values() const { return buf_; }

 private:
  std::size_t cap_;
  std::deque<double> buf_;
};

// The toolkit's nearest-rank median (lower middle element at even sizes),
// the rule every median and quantile in the toolkit uses.
double naive_median(const std::vector<double>& sorted) {
  return sorted[(sorted.size() - 1) / 2];
}

double naive_mean(const std::deque<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double naive_trimmed(const std::vector<double>& sorted, double trim) {
  const std::size_t n = sorted.size();
  const auto cut = static_cast<std::size_t>(trim * static_cast<double>(n));
  const std::size_t lo = cut, hi = n - cut;
  if (lo >= hi) return naive_median(sorted);
  double s = 0.0;
  for (std::size_t i = lo; i < hi; ++i) s += sorted[i];
  return s / static_cast<double>(hi - lo);
}

double naive_trend(const std::deque<double>& vals) {
  const std::size_t n = vals.size();
  if (n == 0) return 0.0;
  if (n == 1) return vals.back();
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  std::size_t i = 0;
  for (double v : vals) {
    const auto x = static_cast<double>(i++);
    sx += x;
    sy += v;
    sxx += x * x;
    sxy += x * v;
  }
  const auto dn = static_cast<double>(n);
  const double denom = dn * sxx - sx * sx;
  if (std::abs(denom) < 1e-12) return sy / dn;
  const double slope = (dn * sxy - sx * sy) / denom;
  const double intercept = (sy - slope * sx) / dn;
  return intercept + slope * dn;
}

// --- Value generators ------------------------------------------------------

/// NaN-free fuzz double in the measurement domain, test_fuzz style: random
/// 64-bit patterns bit-cast to double, rejecting non-finite values and
/// magnitudes beyond any plausible measurement (timings/rates stay far below
/// 1e12; astronomically large windows would make *any* floating-point
/// summation meaningless, incremental or not).
double fuzz_value(Rng& rng) {
  for (;;) {
    const double v = std::bit_cast<double>(rng.next_u64());
    if (std::isfinite(v) && std::abs(v) < 1e12) return v;
  }
}

using Gen = std::function<double(int, Rng&)>;

std::vector<std::pair<const char*, Gen>> generators() {
  return {
      {"uniform", [](int, Rng& r) { return r.uniform(0, 1000); }},
      {"spiky",
       [](int i, Rng& r) {
         return (i % 37 == 0 ? 5e6 : 100.0) + r.normal(0, 5);
       }},
      {"level-shift",
       [](int i, Rng& r) { return (i / 500 % 2 ? 2000.0 : 20.0) + r.normal(0, 1); }},
      {"tiny", [](int, Rng& r) { return r.uniform(0, 1e-6); }},
      {"fuzz", [](int, Rng& r) { return fuzz_value(r); }},
  };
}

// --- The equivalence property ---------------------------------------------

constexpr int kSteps = 10'000;

/// Calls f(std::integral_constant<std::size_t, W>{}) for each window W, so
/// the methods' compile-time windows can be swept like a runtime parameter.
template <std::size_t... Ws, class F>
void for_windows(F&& f) {
  (f(std::integral_constant<std::size_t, Ws>{}), ...);
}

TEST(IncrementalEquivalence, SlidingMedianMatchesNaiveExactly) {
  for_windows<1, 2, 3, 5, 30, 31, 128>([](auto window) {
    constexpr std::size_t w = decltype(window)::value;
    for (const auto& [name, gen] : generators()) {
      Rng rng(w * 1000003u + 17);
      SlidingMedian<w> inc;
      NaiveWindow ref(w);
      for (int i = 0; i < kSteps; ++i) {
        const double v = gen(i, rng);
        const double got = inc.observe(v);
        ref.add(v);
        ASSERT_EQ(got, naive_median(ref.sorted()))
            << "w=" << w << " gen=" << name << " step=" << i;
        ASSERT_EQ(inc.predict(), got);
      }
    }
  });
}

TEST(IncrementalEquivalence, TrimmedMeanMatchesNaiveExactly) {
  for_windows<1, 2, 5, 30, 100>([](auto window) {
    constexpr std::size_t w = decltype(window)::value;
    for (double trim : {0.0, 0.1, 0.3, 0.45, 0.5}) {
      for (const auto& [name, gen] : generators()) {
        Rng rng(w * 7919u + static_cast<std::uint64_t>(trim * 100));
        TrimmedMean<w> inc(trim);
        NaiveWindow ref(w);
        for (int i = 0; i < kSteps / 4; ++i) {
          const double v = gen(i, rng);
          const double got = inc.observe(v);
          ref.add(v);
          ASSERT_EQ(got, naive_trimmed(ref.sorted(), trim))
              << "w=" << w << " trim=" << trim << " gen=" << name
              << " step=" << i;
        }
      }
    }
  });
}

TEST(IncrementalEquivalence, SlidingMeanMatchesNaiveToTolerance) {
  for_windows<1, 5, 30>([](auto window) {
    constexpr std::size_t w = decltype(window)::value;
    for (const auto& [name, gen] : generators()) {
      Rng rng(w + 31337);
      SlidingMean<w> inc;
      NaiveWindow ref(w);
      double max_abs = 1.0;
      for (int i = 0; i < kSteps; ++i) {
        const double v = gen(i, rng);
        max_abs = std::max(max_abs, std::abs(v));
        const double got = inc.observe(v);
        ref.add(v);
        ASSERT_NEAR(got, naive_mean(ref.values()), 1e-9 * max_abs)
            << "w=" << w << " gen=" << name << " step=" << i;
      }
    }
  });
}

TEST(IncrementalEquivalence, TrendMatchesNaiveToTolerance) {
  for_windows<2, 10, 50>([](auto window) {
    constexpr std::size_t w = decltype(window)::value;
    for (const auto& [name, gen] : generators()) {
      Rng rng(w * 271u + 5);
      TrendForecaster<w> inc;
      NaiveWindow ref(w);
      double max_abs = 1.0;
      for (int i = 0; i < kSteps; ++i) {
        const double v = gen(i, rng);
        max_abs = std::max(max_abs, std::abs(v));
        const double got = inc.observe(v);
        ref.add(v);
        // The rolling cross-sums accumulate rounding proportional to window
        // length and magnitude; 1e-7 relative headroom is ~1e9 ULPs of
        // slack while still catching any real re-indexing bug.
        ASSERT_NEAR(got, naive_trend(ref.values()),
                    1e-7 * max_abs * static_cast<double>(w))
            << "w=" << w << " gen=" << name << " step=" << i;
      }
    }
  });
}

// --- Selector-level properties ---------------------------------------------

TEST(AdaptiveForecasterIncremental, CachedPredictionsMatchMethodPredict) {
  // The selector's cached standing predictions must be exactly what each
  // method would answer if asked directly — same battery, same trace.
  auto selector = AdaptiveForecaster::nws_default();
  NwsBattery mirror;
  const auto names = selector.method_names();
  Rng rng(404);
  for (int i = 0; i < 2000; ++i) {
    const double v = rng.uniform(0, 500);
    selector.observe(v);
    mirror.for_each([&](std::size_t, auto& m) { m.observe(v); });
    const Forecast f = selector.forecast();
    // The winner's value must equal that method's own standing prediction.
    mirror.for_each([&](std::size_t k, auto& m) {
      if (names[k] == f.method) {
        ASSERT_EQ(f.value, m.predict()) << "step " << i;
      }
    });
  }
}

TEST(AdaptiveForecasterIncremental, BatchObserveEqualsSequential) {
  std::vector<double> trace;
  Rng rng(777);
  for (int i = 0; i < 5000; ++i) trace.push_back(rng.uniform(10, 90));

  auto one = AdaptiveForecaster::nws_default();
  auto batch = AdaptiveForecaster::nws_default();
  for (double v : trace) one.observe(v);
  batch.observe(std::span<const double>(trace));

  const Forecast a = one.forecast();
  const Forecast b = batch.forecast();
  EXPECT_EQ(a.value, b.value);
  EXPECT_EQ(a.error, b.error);
  EXPECT_EQ(a.samples, b.samples);
  EXPECT_EQ(a.method, b.method);
}

TEST(AdaptiveForecasterIncremental, ForecastPicksLowestMaeUnderAnyInterleaving) {
  // The best index is settled by the first forecast() after an observe()
  // and cached: whether a step asks for no forecast, one or two, and
  // whether the method-switch trace settles it first, forecast() must
  // answer with the first method of lowest MAE as of the last observation.
  for (const std::uint32_t trace_tag : {0u, 7u}) {
    auto f = AdaptiveForecaster::nws_default();
    if (trace_tag != 0) f.enable_method_switch_trace(trace_tag);
    const auto names = f.method_names();
    const std::uint64_t switches0 =
        obs::registry().counter(obs::names::kForecastMethodSwitches).value();
    Rng rng(2024);
    for (int i = 0; i < 3000; ++i) {
      // Three regimes, so the winner changes along the way.
      const double v = i < 1000   ? 50.0 + rng.normal(0, 1)
                       : i < 2000 ? 2.0 * i
                                  : (i % 40 == 0 ? 900.0 : 10.0);
      f.observe(v);
      const int asks = i % 3;  // 0, 1 or 2 forecasts per observation
      for (int k = 0; k < asks; ++k) {
        const auto mae = f.method_mae();
        const auto best = static_cast<std::size_t>(
            std::min_element(mae.begin(), mae.end()) - mae.begin());
        const Forecast fc = f.forecast();
        ASSERT_EQ(fc.method, names[best]) << "step " << i << " ask " << k;
        ASSERT_EQ(fc.error, mae[best]) << "step " << i << " ask " << k;
      }
    }
    const std::uint64_t switches =
        obs::registry().counter(obs::names::kForecastMethodSwitches).value() -
        switches0;
    if (trace_tag == 0) {
      EXPECT_EQ(switches, 0u);
    } else {
      EXPECT_GE(switches, 2u);
    }
  }
}

TEST(AdaptiveForecasterIncremental, BestIndexRegressionOnKnownTraces) {
  // Pin best-method selection on fixed traces so hot-path refactors cannot
  // silently change which forecaster wins.
  {
    // Perfectly constant: every method is exact, ties break to the first
    // battery member.
    auto f = AdaptiveForecaster::nws_default();
    for (int i = 0; i < 100; ++i) f.observe(42.0);
    EXPECT_EQ(f.forecast().method, "last");
  }
  {
    // Clean linear ramp: only the trend extrapolates it without lag.
    auto f = AdaptiveForecaster::nws_default();
    for (int i = 0; i < 200; ++i) f.observe(5.0 * i);
    EXPECT_EQ(f.forecast().method, "trend(10)");
  }
  {
    // Constant with rare large spikes: the wide median shrugs spikes off.
    auto f = AdaptiveForecaster::nws_default();
    Rng rng(9);
    for (int i = 0; i < 600; ++i) {
      f.observe((i % 40 == 0 ? 900.0 : 10.0) + rng.normal(0, 0.1));
    }
    const Forecast fc = f.forecast();
    EXPECT_EQ(fc.method, "median(31)");
    EXPECT_NEAR(fc.value, 10.0, 1.0);
  }
}

TEST(EventForecasterBank, RecordBatchEqualsRepeatedRecord) {
  std::vector<double> trace;
  Rng rng(21);
  for (int i = 0; i < 500; ++i) trace.push_back(rng.uniform(0, 100));
  const EventTag tag{Endpoint{"s", 1}, 9};

  EventForecasterBank a, b;
  for (double v : trace) a.record(tag, v);
  b.record_batch(tag, trace);
  EXPECT_EQ(a.forecast(tag).value, b.forecast(tag).value);
  EXPECT_EQ(a.forecast(tag).samples, b.forecast(tag).samples);
}

}  // namespace
}  // namespace ew
