// Dynamic time-out discovery (paper Section 2.2).
//
// "By forecasting how quickly a server would respond to each type of
// message, we were able to dynamically adjust the message time-out interval
// to account for ambient network and CPU load conditions. This dynamic
// time-out discovery proved crucial to overall program stability."
//
// AdaptiveTimeout derives a per-(server, message type) time-out from the
// event forecaster bank: forecast + safety_factor * expected error, clamped
// to [floor, ceiling]. Failed requests feed back an inflated pseudo-sample
// so repeated timeouts push the interval up instead of thrashing. The
// paper's rejected alternative, a static time-out, is run through
// AdaptiveTimeout::StaticOverrideGuard (bench/ablation_timeouts).
#pragma once

#include <algorithm>
#include <optional>

#include "common/clock.hpp"
#include "forecast/dynamic_benchmark.hpp"

namespace ew {

/// Forecast-driven time-outs (the paper's approach).
class AdaptiveTimeout {
 public:
  struct Options {
    Duration floor = 50 * kMillisecond;    // never spin-retry faster than this
    Duration ceiling = 60 * kSecond;       // never hang longer than this
    Duration initial = 5 * kSecond;        // before any measurement
    double safety_factor = 4.0;            // multiples of expected error
    double failure_inflation = 2.0;        // pseudo-sample on timeout
    /// Response times are heavy-tailed (queueing); mean + k*MAE alone
    /// misjudges live-but-slow servers. The time-out also covers an
    /// observed high quantile with margin.
    double tail_quantile = 0.98;
    double tail_margin = 2.5;
    std::size_t tail_window = 128;         // samples kept per event tag
  };

  AdaptiveTimeout() : AdaptiveTimeout(Options{}) {}
  explicit AdaptiveTimeout(Options opts) : opts_(opts) {}
  // Records point into bank_; a copy would point into the original's.
  AdaptiveTimeout(const AdaptiveTimeout&) = delete;
  AdaptiveTimeout& operator=(const AdaptiveTimeout&) = delete;

  /// Time-out to use for the next request matching `tag`.
  [[nodiscard]] Duration timeout(const EventTag& tag) const;
  /// Report a request outcome: round-trip time and success flag.
  void on_result(const EventTag& tag, Duration rtt, bool ok);

  [[nodiscard]] const EventForecasterBank& bank() const { return bank_; }
  [[nodiscard]] const Options& options() const { return opts_; }

  /// Observed RTT quantile for the tag's trailing window, or 0 when the tag
  /// has no successful samples yet. This is the hedging trigger: once a
  /// request outlives the q-quantile of past responses it is probably lost,
  /// and a second attempt is cheaper than waiting out the full time-out.
  [[nodiscard]] Duration observed_quantile(const EventTag& tag, double q) const;

  /// Experiment-wide switch for bench/ablation_timeouts: while set, every
  /// AdaptiveTimeout in the process answers with this fixed value instead of
  /// forecasting — turning the whole toolkit into the paper's rejected
  /// statically-timed-out configuration without rewiring any component.
  /// Pass 0 to restore adaptive behaviour. Not thread-safe by design: the
  /// simulator is single-threaded and scenarios toggle it around runs.
  static void set_global_static_override(Duration value);
  [[nodiscard]] static Duration global_static_override();

  /// RAII guard for the override.
  class StaticOverrideGuard {
   public:
    explicit StaticOverrideGuard(Duration value) { set_global_static_override(value); }
    ~StaticOverrideGuard() { set_global_static_override(0); }
    StaticOverrideGuard(const StaticOverrideGuard&) = delete;
    StaticOverrideGuard& operator=(const StaticOverrideGuard&) = delete;
  };

 private:
  /// Everything kept per event tag, found with one lookup: its forecaster
  /// (owned by bank_) and its trailing RTT window for the tail-quantile
  /// term, ordered incrementally so timeout() reads the quantile in O(1).
  /// The window holds successes only, so it is built at the first one: a
  /// tag that only ever fails (a dead server) never pays for it.
  struct TagRecord {
    AdaptiveForecaster* forecaster;
    std::optional<OrderedWindow> tail;
  };
  /// timeout() of a tag with record `rec`, or of an unknown tag (nullptr).
  [[nodiscard]] Duration timeout(const TagRecord* rec) const;

  Options opts_;
  EventForecasterBank bank_;
  std::unordered_map<EventTag, TagRecord, EventTagHash> tags_;
};

}  // namespace ew
