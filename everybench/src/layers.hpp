// Per-layer measurements taken from outside the program: timed calls into
// public codec, parser and forecaster entry points on the inputs a workload
// recorded, and deltas of the process-wide obs registry counters.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "trace.hpp"

namespace eb {

/// Repeat `body` (which returns how many operations it did) until at least
/// `min_ns` of wall time has passed; returns ns per operation.
template <typename Body>
double time_per_op_ns(Body&& body, std::int64_t min_ns = 50'000'000) {
  std::uint64_t ops = 0;
  const std::int64_t t0 = now_ns();
  std::int64_t elapsed = 0;
  do {
    ops += body();
    elapsed = now_ns() - t0;
  } while (elapsed < min_ns || ops == 0);
  return static_cast<double>(elapsed) / static_cast<double>(ops);
}

/// Keeps timed results observable so the compiler cannot drop the work.
void keep(std::uint64_t v);

/// encode_routed_frame on each recorded frame; ns per frame.
double frame_encode_ns(const std::vector<RecordedFrame>& frames);
/// FrameParser::feed + next_view over the encoded recorded frames; ns per
/// frame.
double frame_parse_ns(const std::vector<RecordedFrame>& frames);
/// AdaptiveForecaster::nws_default().observe over a recorded RTT series (µs);
/// ns per observation.
double forecast_observe_ns(const std::vector<double>& rtt_us);

/// Snapshot of the registry counters the per-layer metrics read.
class CounterSnapshot {
 public:
  static CounterSnapshot take();
  /// this - earlier, per counter.
  [[nodiscard]] CounterSnapshot minus(const CounterSnapshot& earlier) const;
  [[nodiscard]] double operator[](const std::string& name) const;

 private:
  std::map<std::string, std::uint64_t> v_;
};

/// The registry-count metrics every workload reports in its traced run
/// (net.*, forecast.method_switches, sched.*, gossip.*, clique.tokens).
void add_registry_metrics(RunResult& out, const CounterSnapshot& delta);

/// The self time of every span name, per call, plus the traced run's own
/// end-to-end numbers (wall per call, covered share).
void add_span_metrics(RunResult& out, const SpanBuffer& spans,
                      std::uint64_t calls, double window_s);

/// Process counters for the traced run.
void add_proc_metrics(RunResult& out, const ProcWindow& w, std::uint64_t calls);

}  // namespace eb
