#include "forecast/selector.hpp"

#include <array>
#include <cmath>

#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace ew {

void AdaptiveForecaster::observe(double value) {
  // Score the cached standing predictions against the new truth, then let
  // the battery absorb it in one pass that writes back every method's
  // refreshed prediction.
  if (samples_ > 0) {
    for (std::size_t i = 0; i < kMethods; ++i) {
      abs_err_[i] += std::abs(predictions_[i] - value);
    }
  }
  battery_.observe(value, predictions_);
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
  // All MAEs first: the divisions are independent, so they pipeline instead
  // of each waiting on the previous comparison. Then a strict-< scan for the
  // first minimum.
  std::array<double, kMethods> maes{};
  for (std::size_t i = 0; i < kMethods; ++i) maes[i] = mae(i);
  std::size_t best = 0;
  for (std::size_t i = 1; i < kMethods; ++i) {
    if (maes[i] < maes[best]) best = i;
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
  f.error = mae(b);
  f.method = NwsBattery::kNames[b];
  return f;
}

std::vector<double> AdaptiveForecaster::method_mae() const {
  std::vector<double> out(kMethods);
  for (std::size_t i = 0; i < kMethods; ++i) out[i] = mae(i);
  return out;
}

std::vector<std::string> AdaptiveForecaster::method_names() const {
  return {NwsBattery::kNames.begin(), NwsBattery::kNames.end()};
}

}  // namespace ew
