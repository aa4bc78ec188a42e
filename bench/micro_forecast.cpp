// Microbenchmark for the forecasting hot path (paper Section 2.2).
//
// The paper calls the NWS methods "light-weight" and runs them inline on
// every request/response event, so their cost IS the dynamic-benchmarking
// overhead. This harness times the battery and prints ONE machine-readable
// JSON line (see EXPERIMENTS.md, "Forecast hot-path microbenchmark") so the
// BENCH trajectory can track ns/observe across PRs:
//
//   {"bench":"micro_forecast","samples":...,"ns_per_observe":...,
//    "ns_per_forecast":...,"ns_per_observe_forecast":...,
//    "ns_per_bank_record":...,
//    "ns_per_batch_observe":...,"per_method":{"last":...,...},
//    "checksum":...}
//
// `--quick` shrinks the iteration counts so the bench_smoke CTest target can
// prove the harness still builds and runs without burning CI time.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "common/rng.hpp"
#include "forecast/dynamic_benchmark.hpp"
#include "forecast/forecaster.hpp"
#include "forecast/selector.hpp"
#include "sim/traces.hpp"

namespace ew {
namespace {

double now_ns() {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Pre-generated input series so the timed loops measure forecasting, not
/// random-number generation.
std::vector<double> make_series(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.uniform(50, 150);
  return v;
}

struct Timed {
  double ns_per_op;
  double checksum;  // defeats dead-code elimination; reported in the JSON
};

template <typename F>
Timed time_per_op(std::size_t iters, F&& op) {
  double sink = 0.0;
  const double t0 = now_ns();
  for (std::size_t i = 0; i < iters; ++i) sink += op(i);
  const double t1 = now_ns();
  return {(t1 - t0) / static_cast<double>(iters), sink};
}

}  // namespace
}  // namespace ew

int main(int argc, char** argv) {
  using namespace ew;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  const std::size_t kObs = quick ? 20'000 : 2'000'000;
  const std::size_t kFc = quick ? 20'000 : 5'000'000;
  double checksum = 0.0;

  const std::vector<double> series = make_series(kObs, 1);

  // Full-battery observe (the per-message cost of dynamic benchmarking).
  auto selector = AdaptiveForecaster::nws_default();
  {  // warm-up: fill every window before timing
    for (double v : make_series(512, 99)) selector.observe(v);
  }
  const Timed obs =
      time_per_op(kObs, [&](std::size_t i) {
        selector.observe(series[i]);
        return 0.0;
      });
  checksum += obs.checksum + selector.forecast().value;

  // forecast(): best-method selection + cached prediction read.
  const Timed fc = time_per_op(kFc, [&](std::size_t i) {
    (void)i;
    return selector.forecast().value;
  });
  checksum += fc.checksum;

  // observe() then forecast(), as a caller reads a forecast after each
  // measurement: every forecast() rescans MAEs that just moved. A second
  // selector, whose sum stays out of `checksum` so the checksum remains
  // comparable with runs that lack this leg.
  auto interleaved = AdaptiveForecaster::nws_default();
  for (double v : make_series(512, 99)) interleaved.observe(v);
  const Timed ofc = time_per_op(kObs, [&](std::size_t i) {
    interleaved.observe(series[i]);
    return interleaved.forecast().value;
  });
  volatile double interleaved_sink = ofc.checksum;
  (void)interleaved_sink;

  // Bank record: hash lookup + observe, the full per-RPC path.
  EventForecasterBank bank;
  const EventTag tag{"sched-0:601", 0x0202};
  for (double v : make_series(512, 98)) bank.record(tag, v);
  const Timed rec = time_per_op(kObs, [&](std::size_t i) {
    bank.record(tag, series[i]);
    return 0.0;
  });
  checksum += rec.checksum + bank.forecast(tag).value;

  // Batch replay (sim traces -> record_batch), amortizing the tag lookup.
  const auto trace =
      sim::MeasurementTrace::synthetic_rtt(quick ? 5'000 : 200'000, Rng(7));
  EventForecasterBank replay_bank;
  const double tr0 = now_ns();
  trace.replay_into(replay_bank, tag);
  const double tr1 = now_ns();
  const double ns_batch = (tr1 - tr0) / static_cast<double>(trace.size());
  checksum += replay_bank.forecast(tag).value;

  // Per-method breakdown (observe cost of each battery member alone).
  bench::JsonWriter per_method;
  for (auto& method : default_battery()) {
    for (double v : make_series(256, 97)) method->observe(v);
    const Timed m = time_per_op(quick ? 20'000 : 1'000'000, [&](std::size_t i) {
      return method->observe(series[i % series.size()]);
    });
    checksum += m.checksum;
    per_method.f(method->name(), m.ns_per_op, 1);
  }

  bench::JsonWriter line;
  line.u64("samples", kObs)
      .f("ns_per_observe", obs.ns_per_op, 1)
      .f("ns_per_forecast", fc.ns_per_op, 1)
      .f("ns_per_observe_forecast", ofc.ns_per_op, 1)
      .f("ns_per_bank_record", rec.ns_per_op, 1)
      .f("ns_per_batch_observe", ns_batch, 1)
      .raw("per_method", per_method.object())
      .g("checksum", checksum);
  bench::emit_json("micro_forecast", line);
  return 0;
}
