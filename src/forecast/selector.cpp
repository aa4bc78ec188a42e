#include "forecast/selector.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace ew {

AdaptiveForecaster::AdaptiveForecaster(
    std::vector<std::unique_ptr<Forecaster>> battery)
    : battery_(std::move(battery)),
      errors_(battery_.size()),
      predictions_(battery_.size(), 0.0) {
  if (battery_.empty()) {
    throw std::invalid_argument("AdaptiveForecaster: empty battery");
  }
  names_.reserve(battery_.size());
  for (const auto& m : battery_) names_.push_back(m->name());
}

AdaptiveForecaster AdaptiveForecaster::nws_default() {
  return AdaptiveForecaster(default_battery());
}

void AdaptiveForecaster::observe(double value) {
  // Score the cached standing predictions against the new truth, then let
  // each method absorb it; the method's observe() returns the refreshed
  // standing prediction, so the whole pass makes one virtual call per
  // method and recomputes nothing.
  const std::size_t n = battery_.size();
  if (samples_ > 0) {
    for (std::size_t i = 0; i < n; ++i) {
      errors_[i].add(predictions_[i], value);
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    predictions_[i] = battery_[i]->observe(value);
  }
  ++samples_;
  if (trace_tag_ != 0) note_method_switch();
}

void AdaptiveForecaster::enable_method_switch_trace(std::uint32_t trace_tag) {
  trace_tag_ = trace_tag;
  last_best_ = best_index();
}

void AdaptiveForecaster::note_method_switch() {
  // Off the untraced hot path: only streams that opted in pay the O(battery)
  // best-index scan per observation.
  const std::size_t best = best_index();
  if (best == last_best_) return;
  const std::size_t prev = last_best_;
  last_best_ = best;
  obs::registry().counter(obs::names::kForecastMethodSwitches).inc();
  obs::trace().record(static_cast<std::int64_t>(samples_),
                      obs::SpanKind::kForecastMethodSwitch, trace_tag_,
                      static_cast<std::int64_t>(prev),
                      static_cast<std::int64_t>(best));
}

void AdaptiveForecaster::observe(std::span<const double> values) {
  for (double v : values) observe(v);
}

std::size_t AdaptiveForecaster::best_index() const {
  // A block of MAEs first: the divisions are independent, so they pipeline
  // instead of each waiting on the previous comparison. Then the same
  // strict-< scan for the first minimum over the same values, so the winner
  // is the same. The standard battery fits one block.
  constexpr std::size_t kBlock = 16;
  const std::size_t n = errors_.size();
  std::size_t best = 0;
  double best_mae = errors_[0].mae();
  for (std::size_t base = 0; base < n; base += kBlock) {
    const std::size_t m = std::min(kBlock, n - base);
    std::array<double, kBlock> mae;
    for (std::size_t i = 0; i < m; ++i) mae[i] = errors_[base + i].mae();
    for (std::size_t i = 0; i < m; ++i) {
      if (mae[i] < best_mae) {
        best_mae = mae[i];
        best = base + i;
      }
    }
  }
  return best;
}

Forecast AdaptiveForecaster::forecast() const {
  Forecast f;
  f.samples = samples_;
  if (samples_ == 0) return f;
  const std::size_t best = best_index();
  f.value = predictions_[best];
  f.error = errors_[best].mae();
  f.method = names_[best];
  return f;
}

std::vector<double> AdaptiveForecaster::method_mae() const {
  std::vector<double> out;
  out.reserve(errors_.size());
  for (const auto& e : errors_) out.push_back(e.mae());
  return out;
}

std::vector<std::string> AdaptiveForecaster::method_names() const {
  return names_;
}

}  // namespace ew
