// NWS-style time-series forecasting methods (paper Section 2.2).
//
// The Network Weather Service applies "a set of light-weight time series
// forecasting methods" to each measurement stream and dynamically selects
// whichever has been most accurate (selector.hpp). This file implements the
// methods and NwsBattery, the standard set of 14 held as one flat value.
//
// Because at SC98 forecasts were made inline on every request/response
// event, every method is **fully incremental**: state is updated in
// O(1)–O(w) per observation and the standing prediction is maintained
// alongside it, so predict() is always an O(1) read of cached state.
// observe() returns the refreshed standing prediction, so one battery pass
// hands the selector all 14 predictions.
//
// The methods are concrete, non-virtual value types. Windowed methods take
// their window as a template argument and keep it in inline fixed storage,
// so a battery is one contiguous block: building one allocates nothing and
// observing a stream touches only that block (DESIGN.md §6).
//
// Streams are NaN-free by contract (dynamic benchmarking records elapsed
// times and rates, never missing values). Before any observation every
// method predicts 0.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <string_view>
#include <tuple>

#include "common/stats.hpp"

namespace ew {

/// Predicts the most recent observation ("LAST" in NWS).
class LastValue {
 public:
  double observe(double v) { return last_ = v; }
  [[nodiscard]] double predict() const { return last_; }

 private:
  double last_ = 0.0;
};

/// Running mean over the entire history ("RUN_AVG"), Welford's update.
class RunningMean {
 public:
  double observe(double v) {
    ++n_;
    mean_ += (v - mean_) / static_cast<double>(n_);
    return mean_;
  }
  [[nodiscard]] double predict() const { return mean_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
};

/// Mean over the trailing W observations ("SW_AVG(k)"). O(1) via a running
/// sum: the evicted value is subtracted, then the new one added.
template <std::size_t W>
class SlidingMean {
  static_assert(W > 0, "SlidingMean: zero window");

 public:
  double observe(double v) {
    if (size_ == W) {
      sum_ -= ring_[head_];
      ring_[head_] = v;
      head_ = head_ + 1 == W ? 0 : head_ + 1;
    } else {
      ring_[size_++] = v;
    }
    sum_ += v;
    return predict();
  }
  [[nodiscard]] double predict() const {
    return size_ == 0 ? 0.0 : sum_ / static_cast<double>(size_);
  }

 private:
  std::array<double, W> ring_{};  // arrival order
  std::size_t head_ = 0;          // oldest element once full
  std::size_t size_ = 0;
  double sum_ = 0.0;
};

/// Median over the trailing W observations ("MEDIAN(k)").
/// Robust to the load spikes that dominated SC98 response times.
/// Incremental: one ordered-window slide per observe, O(1) median read. The
/// median is nearest-rank (lower middle element at even sizes).
template <std::size_t W>
class SlidingMedian {
 public:
  double observe(double v) {
    win_.add(v);
    return win_.median();
  }
  [[nodiscard]] double predict() const {
    return win_.empty() ? 0.0 : win_.median();
  }

 private:
  FixedOrderedWindow<W> win_;
};

/// Trimmed mean over the trailing W observations: drop the top/bottom
/// `trim` fraction, average the rest. Maintained from an ordered window like
/// the median: each observe is one slide plus a short sum over the surviving
/// middle ranks, cached as the standing prediction. When the trim consumes
/// the whole window (trim = 0.5 at even sizes), the prediction degenerates
/// to the median under SlidingMedian's nearest-rank rule.
template <std::size_t W>
class TrimmedMean {
 public:
  /// trim = 0.5 is allowed and degenerates to the median; above that the
  /// trim would be ill-defined, so it is clamped to [0, 0.5].
  explicit TrimmedMean(double trim) : trim_(std::clamp(trim, 0.0, 0.5)) {}
  double observe(double v) {
    win_.add(v);
    const std::size_t n = win_.size();
    const auto cut = static_cast<std::size_t>(trim_ * static_cast<double>(n));
    const std::size_t lo = cut;
    const std::size_t hi = n - cut;
    cached_ = lo >= hi ? win_.median()
                       : win_.range_sum(lo, hi) / static_cast<double>(hi - lo);
    return cached_;
  }
  [[nodiscard]] double predict() const { return cached_; }

 private:
  FixedOrderedWindow<W> win_;
  double trim_;
  double cached_ = 0.0;
};

/// Exponential smoothing with fixed gain ("EXP_SMOOTH(g)").
class ExpSmooth {
 public:
  explicit ExpSmooth(double gain) : gain_(gain) {}
  double observe(double v) {
    value_ = seeded_ ? gain_ * v + (1.0 - gain_) * value_ : v;
    seeded_ = true;
    return value_;
  }
  [[nodiscard]] double predict() const { return value_; }

 private:
  double gain_;
  double value_ = 0.0;
  bool seeded_ = false;
};

/// Exponential smoothing whose gain adapts: when the forecast is doing badly
/// the gain grows (track faster), when it is doing well the gain shrinks
/// (smooth harder) — the NWS "adaptive gain" trick.
class AdaptiveExpSmooth {
 public:
  explicit AdaptiveExpSmooth(double initial_gain = 0.2, double min_gain = 0.05,
                             double max_gain = 0.95)
      : gain_(std::clamp(initial_gain, min_gain, max_gain)),
        min_gain_(min_gain),
        max_gain_(max_gain) {}
  double observe(double v) {
    if (!seeded_) {
      value_ = v;
      seeded_ = true;
      return value_;
    }
    const double err = v - value_;
    // Trigg-Leach tracking signal: |smoothed error| / smoothed |error|.
    constexpr double kBeta = 0.2;
    smoothed_err_ = kBeta * err + (1.0 - kBeta) * smoothed_err_;
    smoothed_abs_err_ = kBeta * std::abs(err) + (1.0 - kBeta) * smoothed_abs_err_;
    if (smoothed_abs_err_ > 1e-12) {
      gain_ = std::clamp(std::abs(smoothed_err_ / smoothed_abs_err_), min_gain_,
                         max_gain_);
    }
    value_ = gain_ * v + (1.0 - gain_) * value_;
    return value_;
  }
  [[nodiscard]] double predict() const { return value_; }
  [[nodiscard]] double gain() const { return gain_; }

 private:
  double gain_;
  double min_gain_;
  double max_gain_;
  double value_ = 0.0;
  double smoothed_err_ = 0.0;
  double smoothed_abs_err_ = 0.0;
  bool seeded_ = false;
};

/// Linear trend over the trailing W observations (least-squares slope
/// extrapolation). O(1) per observation: the index/value cross sums are
/// rolled forward when the window slides instead of being rebuilt from the
/// raw values.
template <std::size_t W>
class TrendForecaster {
  static_assert(W > 0, "TrendForecaster: zero window");

 public:
  double observe(double v) {
    if (size_ < W) {
      // Warm-up: the new value lands at index size_ with no eviction.
      ring_[size_] = v;
      sxy_ += static_cast<double>(size_) * v;
      sy_ += v;
      ++size_;
    } else {
      // Slide: drop y_0 (its i*y term is zero), re-index the survivors
      // (every index falls by one, so sxy loses one copy of their sum),
      // append at the back.
      const double oldest = ring_[head_];
      ring_[head_] = v;
      head_ = head_ + 1 == W ? 0 : head_ + 1;
      sy_ -= oldest;
      sxy_ -= sy_;
      sy_ += v;
      sxy_ += static_cast<double>(W - 1) * v;
    }
    return cached_ = compute();
  }
  [[nodiscard]] double predict() const { return cached_; }

 private:
  [[nodiscard]] double compute() const {
    const std::size_t n = size_;
    if (n == 1) return sy_;
    // Least-squares fit of value against window index; extrapolate one
    // step. sx and sxx depend only on n: sums of 0..n-1 and their squares.
    const auto dn = static_cast<double>(n);
    const double sx = dn * (dn - 1.0) / 2.0;
    const double sxx = (dn - 1.0) * dn * (2.0 * dn - 1.0) / 6.0;
    const double denom = dn * sxx - sx * sx;
    if (std::abs(denom) < 1e-12) return sy_ / dn;
    const double slope = (dn * sxy_ - sx * sy_) / denom;
    const double intercept = (sy_ - slope * sx) / dn;
    return intercept + slope * dn;  // next index is n
  }

  std::array<double, W> ring_{};  // arrival order
  std::size_t head_ = 0;          // oldest element once full
  std::size_t size_ = 0;
  double sy_ = 0.0;   // sum of y_i over the window
  double sxy_ = 0.0;  // sum of i * y_i, i = 0 at the window's oldest element
  double cached_ = 0.0;
};

/// The default NWS-like battery: 14 methods as members of one flat value.
/// observe() updates them all in one non-virtual pass; kNames is the static
/// table of their names in battery order.
class NwsBattery {
 public:
  static constexpr std::size_t kSize = 14;
  /// Stable identifiers used in logs and EXPERIMENTS.md tables.
  static constexpr std::array<std::string_view, kSize> kNames = {
      "last",      "run_avg",   "sw_avg(5)", "sw_avg(10)",        "sw_avg(30)",
      "median(5)", "median(15)", "median(31)", "trim_mean(30,30%)", "exp(0.05)",
      "exp(0.20)", "exp(0.50)", "adapt_exp", "trend(10)"};

  /// Absorb v in every method; out[i] becomes method i's standing prediction.
  void observe(double v, std::array<double, kSize>& out) {
    for_each([&](std::size_t i, auto& m) { out[i] = m.observe(v); });
  }

  /// Call f(i, method) for every method i in battery order.
  template <class F>
  void for_each(F&& f) {
    std::apply(
        [&](auto&... m) {
          std::size_t i = 0;
          (f(i++, m), ...);
        },
        methods_);
  }

 private:
  std::tuple<LastValue, RunningMean, SlidingMean<5>, SlidingMean<10>,
             SlidingMean<30>, SlidingMedian<5>, SlidingMedian<15>,
             SlidingMedian<31>, TrimmedMean<30>, ExpSmooth, ExpSmooth,
             ExpSmooth, AdaptiveExpSmooth, TrendForecaster<10>>
      methods_{{}, {}, {}, {}, {}, {}, {}, {}, TrimmedMean<30>(0.3),
               ExpSmooth(0.05), ExpSmooth(0.2), ExpSmooth(0.5),
               AdaptiveExpSmooth(), {}};
  static_assert(std::tuple_size_v<decltype(methods_)> == kSize);
};

}  // namespace ew
