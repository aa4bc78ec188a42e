// Adaptive forecaster selection (paper Section 2.2).
//
// The NWS "dynamically chooses the technique that yields the greatest
// forecasting accuracy over time". AdaptiveForecaster runs the whole method
// battery in parallel over one measurement stream; before each observation
// is absorbed, every method is scored on how well it predicted it, and
// predict() answers with the method that currently has the lowest cumulative
// mean absolute error.
//
// Layout and hot-path contract (see DESIGN.md §6, "Forecasting hot path"):
// the battery (forecaster.hpp: NwsBattery) is held inline, next to fixed
// arrays of every method's standing prediction and absolute-error sum, so
// an AdaptiveForecaster is one block that allocates nothing when built.
// observe() scores the cached predictions against the new truth (plain
// array arithmetic), then one non-virtual battery pass updates every method
// and writes back its refreshed prediction. The first forecast() after an
// observe() settles the best method and caches its index, so a repeated
// forecast() (sc98 asks for two per observation) scans nothing and a stream
// that is only observed (fixed time-outs) never scans. forecast() is
// allocation-free: the method name views the battery's static names table.
// Because of that cache, forecast() is not safe to call from two threads at
// once on the same selector.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "forecast/forecaster.hpp"

namespace ew {

/// A point forecast plus its expected error (the winner's historical MAE).
struct Forecast {
  double value = 0.0;
  double error = 0.0;       // MAE of the selected method so far
  std::size_t samples = 0;  // observations absorbed
  /// Name of the selected method: views NwsBattery::kNames, a static
  /// table, so it stays valid for the life of the program.
  std::string_view method;
};

class AdaptiveForecaster {
 public:
  static constexpr std::size_t kMethods = NwsBattery::kSize;

  /// The standard NWS battery (forecaster.hpp: NwsBattery), no samples yet.
  AdaptiveForecaster() = default;
  static AdaptiveForecaster nws_default() { return {}; }

  /// Score all methods against `value`, then absorb it.
  void observe(double value);

  /// Absorb a whole measurement trace (replayed simulator traces, warm-up
  /// runs): same result as calling observe() per element.
  void observe(std::span<const double> values);

  /// Best-method forecast of the next value.
  [[nodiscard]] Forecast forecast() const;

  /// Per-method cumulative MAE (parallel to method_names()); for diagnostics
  /// and the forecast-accuracy bench.
  [[nodiscard]] std::vector<double> method_mae() const;
  [[nodiscard]] std::vector<std::string> method_names() const;
  [[nodiscard]] std::size_t samples() const { return samples_; }

  /// Emit an obs kForecastMethodSwitch span (tagged `trace_tag`, an id from
  /// obs::trace().intern) whenever the battery's best method changes.
  /// Off by default; the disabled cost in observe() is one integer compare.
  /// The forecaster is clock-free, so spans are stamped with the sample
  /// index (DESIGN.md §8). Pass 0 to disable again.
  void enable_method_switch_trace(std::uint32_t trace_tag);

 private:
  /// Cumulative MAE of method i: every method is scored on every
  /// observation after the first, so all share the count samples_ - 1.
  [[nodiscard]] double mae(std::size_t i) const {
    const std::size_t scored = samples_ > 0 ? samples_ - 1 : 0;
    return scored ? abs_err_[i] / static_cast<double>(scored) : 0.0;
  }
  [[nodiscard]] std::size_t best_index() const;
  // best_index() as of the last observe(), scanned at most once per observe.
  [[nodiscard]] std::size_t best() const;
  void note_method_switch();

  NwsBattery battery_;
  // Standing predictions, refreshed on every observe: predictions_[i] is
  // exactly method i's predict().
  std::array<double, kMethods> predictions_{};
  // Sum of |prediction - truth| per method over the scored observations.
  std::array<double, kMethods> abs_err_{};
  std::size_t samples_ = 0;
  // Cache behind best(); stale after every observe().
  mutable std::size_t best_ = 0;
  mutable bool best_stale_ = false;
  // Method-switch tracing (0 = off). last_best_ tracks the previously
  // winning method so observe() can detect the regime change itself.
  std::uint32_t trace_tag_ = 0;
  std::size_t last_best_ = 0;
};

}  // namespace ew
