// Adaptive forecaster selection (paper Section 2.2).
//
// The NWS "dynamically chooses the technique that yields the greatest
// forecasting accuracy over time". AdaptiveForecaster runs the whole method
// battery in parallel over one measurement stream; before each observation
// is absorbed, every method is scored on how well it predicted it, and
// predict() answers with the method that currently has the lowest cumulative
// mean absolute error.
//
// Hot-path contract (see DESIGN.md, "Forecasting hot path"): the selector
// caches every method's standing prediction. observe() scores the cached
// predictions against the new truth (plain array reads, no virtual calls)
// and then makes exactly one virtual call per method — observe(), which
// updates the method incrementally and hands back the refreshed standing
// prediction. The first forecast() after an observe() settles the best
// method and caches its index, so a repeated forecast() (sc98 asks for two
// per observation) scans nothing and a stream that is only observed (fixed
// time-outs) never scans. forecast() is allocation-free: the method name is
// an interned string_view into storage owned by this selector. Because of
// that cache, forecast() is not safe to call from two threads at once on
// the same selector.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/stats.hpp"
#include "forecast/forecaster.hpp"

namespace ew {

/// A point forecast plus its expected error (the winner's historical MAE).
struct Forecast {
  double value = 0.0;
  double error = 0.0;       // MAE of the selected method so far
  std::size_t samples = 0;  // observations absorbed
  /// Name of the selected method. Interned: views storage owned by the
  /// AdaptiveForecaster that produced it (stable across moves of the
  /// selector); copy into a std::string if the forecast must outlive it.
  std::string_view method;
};

class AdaptiveForecaster {
 public:
  /// Takes ownership of the battery; use nws_default() for the standard set.
  explicit AdaptiveForecaster(std::vector<std::unique_ptr<Forecaster>> battery);

  /// The standard NWS-like battery (forecaster.hpp: default_battery()).
  static AdaptiveForecaster nws_default();

  /// Score all methods against `value`, then absorb it.
  void observe(double value);

  /// Absorb a whole measurement trace (replayed simulator traces, warm-up
  /// runs): same result as calling observe() per element, with one bounds
  /// check and battery sweep set-up per batch instead of per sample.
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
  [[nodiscard]] std::size_t best_index() const;
  // best_index() as of the last observe(), scanned at most once per observe.
  [[nodiscard]] std::size_t best() const;
  void note_method_switch();
  std::vector<std::unique_ptr<Forecaster>> battery_;
  std::vector<ErrorTracker> errors_;
  // Standing predictions, refreshed on every observe; predictions_[i] is
  // exactly battery_[i]->predict() but read without a virtual dispatch.
  std::vector<double> predictions_;
  // Interned method names; forecast().method views into these. The strings
  // are written once at construction and never touched again, so the views
  // survive moves of the selector (the vector's element buffer moves with
  // it).
  std::vector<std::string> names_;
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
