#include "forecast/dynamic_benchmark.hpp"

#include "obs/trace.hpp"

namespace ew {

AdaptiveForecaster& EventForecasterBank::stream(const EventTag& tag) {
  auto it = bank_.find(tag);
  if (it == bank_.end()) {
    it = bank_.emplace(tag, AdaptiveForecaster::nws_default()).first;
    // When tracing is on, new event streams report their method switches
    // under their dynamic-benchmarking tag so regime changes in the
    // forecast join against the call spans they caused.
    if (obs::trace().enabled()) {
      it->second.enable_method_switch_trace(
          obs::trace().intern(tag.to_string()));
    }
  }
  return it->second;
}

void EventForecasterBank::record(const EventTag& tag, double value) {
  stream(tag).observe(value);
}

void EventForecasterBank::record_batch(const EventTag& tag,
                                       std::span<const double> values) {
  if (values.empty()) return;
  stream(tag).observe(values);
}

Forecast EventForecasterBank::forecast(const EventTag& tag) const {
  auto it = bank_.find(tag);
  if (it == bank_.end()) return Forecast{};
  return it->second.forecast();
}

}  // namespace ew
