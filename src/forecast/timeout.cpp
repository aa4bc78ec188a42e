#include "forecast/timeout.hpp"

namespace ew {

namespace {
Duration g_static_override = 0;
}

void AdaptiveTimeout::set_global_static_override(Duration value) {
  g_static_override = value;
}

Duration AdaptiveTimeout::global_static_override() { return g_static_override; }

Duration AdaptiveTimeout::timeout(const EventTag& tag) const {
  auto it = tags_.find(tag);
  return timeout(it == tags_.end() ? nullptr : &it->second);
}

Duration AdaptiveTimeout::timeout(const TagRecord* rec) const {
  if (g_static_override > 0) return g_static_override;
  if (rec == nullptr) return opts_.initial;
  const Forecast f = rec->forecaster->forecast();
  if (f.samples == 0) return opts_.initial;
  // forecast + k * expected error; a floor on the error term keeps a
  // perfectly-predicted stream from collapsing to a hair-trigger time-out.
  const double error = std::max(f.error, 0.1 * std::max(f.value, 1.0));
  double raw = f.value + opts_.safety_factor * error;
  // Cover the observed tail: response times are heavy-tailed and a live
  // server answering at its p98 must not be declared dead.
  if (rec->tail) {
    raw = std::max(raw, rec->tail->quantile(opts_.tail_quantile) * opts_.tail_margin);
  }
  return std::clamp(static_cast<Duration>(raw), opts_.floor, opts_.ceiling);
}

Duration AdaptiveTimeout::observed_quantile(const EventTag& tag, double q) const {
  auto it = tags_.find(tag);
  if (it == tags_.end() || !it->second.tail) return 0;
  return static_cast<Duration>(it->second.tail->quantile(q));
}

void AdaptiveTimeout::on_result(const EventTag& tag, Duration rtt, bool ok) {
  auto it = tags_.find(tag);
  if (it == tags_.end()) {
    it = tags_.emplace(tag, TagRecord{&bank_.stream(tag), std::nullopt}).first;
  }
  TagRecord& rec = it->second;
  if (ok) {
    rec.forecaster->observe(static_cast<double>(rtt));
    if (!rec.tail) rec.tail.emplace(opts_.tail_window);
    rec.tail->add(static_cast<double>(rtt));
    return;
  }
  // The request never completed, so its true service time is unknown; feed
  // an inflated pseudo-sample so consecutive failures raise the time-out
  // (the paper's alternative — static time-outs — "frequently misjudged the
  // availability" of servers and caused "needless retries").
  const Duration current = timeout(&rec);
  rec.forecaster->observe(opts_.failure_inflation * static_cast<double>(current));
}

}  // namespace ew
