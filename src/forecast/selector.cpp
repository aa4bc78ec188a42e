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
  best_stale_ = true;
  if (trace_tag_ != 0) note_method_switch();
}

void AdaptiveForecaster::enable_method_switch_trace(std::uint32_t trace_tag) {
  trace_tag_ = trace_tag;
  last_best_ = best();
}

void AdaptiveForecaster::note_method_switch() {
  const std::size_t now = best();
  if (now == last_best_) return;
  const std::size_t prev = last_best_;
  last_best_ = now;
  obs::registry().counter(obs::names::kForecastMethodSwitches).inc();
  obs::trace().record(static_cast<std::int64_t>(samples_),
                      obs::SpanKind::kForecastMethodSwitch, trace_tag_,
                      static_cast<std::int64_t>(prev),
                      static_cast<std::int64_t>(now));
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

std::size_t AdaptiveForecaster::best() const {
  if (best_stale_) {
    best_ = best_index();
    best_stale_ = false;
  }
  return best_;
}

Forecast AdaptiveForecaster::forecast() const {
  Forecast f;
  f.samples = samples_;
  if (samples_ == 0) return f;
  const std::size_t b = best();
  f.value = predictions_[b];
  f.error = errors_[b].mae();
  f.method = names_[b];
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
