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
//    "ns_per_cold_observe":...,"ns_per_bank_record":...,
//    "ns_per_batch_observe":...,"allocs_per_new_forecaster":...,
//    "per_method":{"last":...,...},"checksum":...,"checksum_bits":"..."}
//
// `checksum` is printed with %g; `checksum_bits` is its exact bit pattern in
// hex, so a one-ulp change in any forecast shows. Allocations are counted by
// a replacement global operator new (the micro_timer pattern); the bench
// exits non-zero if building an AdaptiveForecaster allocates at all.
//
// `--quick` shrinks the iteration counts so the bench_smoke CTest target can
// prove the harness still builds and runs, and gates the allocation count,
// without burning CI time.
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "common/rng.hpp"
#include "forecast/dynamic_benchmark.hpp"
#include "forecast/forecaster.hpp"
#include "forecast/selector.hpp"
#include "sim/traces.hpp"

// Program-wide allocation counter (replaces the global operator new).
namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) { return operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

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

  // Cold observe: round-robin over many selectors, one observation each in
  // turn, as sc98 spreads its observations over thousands of event tags, so
  // every observe finds its battery out of the near caches. Kept out of
  // `checksum` like the leg above.
  constexpr std::size_t kColdSelectors = 4096;
  std::vector<AdaptiveForecaster> cold;
  cold.reserve(kColdSelectors);
  const std::vector<double> cold_warmup = make_series(64, 96);
  for (std::size_t k = 0; k < kColdSelectors; ++k) {
    cold.push_back(AdaptiveForecaster::nws_default());
    for (double v : cold_warmup) cold.back().observe(v);
  }
  const Timed cobs = time_per_op(kObs, [&](std::size_t i) {
    cold[i % kColdSelectors].observe(series[i]);
    return 0.0;
  });
  double cold_sum = cobs.checksum;
  for (const auto& f : cold) cold_sum += f.forecast().value;
  volatile double cold_sink = cold_sum;
  (void)cold_sink;

  // Allocations to build a forecaster (and take its first observation and
  // forecast, so nothing about it can be optimised away).
  constexpr std::uint64_t kBuilds = 64;
  double build_sum = 0.0;
  const std::uint64_t a0 = g_allocs.load(std::memory_order_relaxed);
  for (std::uint64_t k = 0; k < kBuilds; ++k) {
    auto f = AdaptiveForecaster::nws_default();
    f.observe(series[k]);
    build_sum += f.forecast().value;
  }
  const double allocs_per_new =
      static_cast<double>(g_allocs.load(std::memory_order_relaxed) - a0) /
      static_cast<double>(kBuilds);
  volatile double build_sink = build_sum;
  (void)build_sink;

  // Bank record: hash lookup + observe, the full per-RPC path.
  EventForecasterBank bank;
  const EventTag tag{Endpoint{"sched-0", 601}, 0x0202};
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
  NwsBattery battery;
  battery.for_each([&](std::size_t k, auto& method) {
    for (double v : make_series(256, 97)) method.observe(v);
    const Timed m = time_per_op(quick ? 20'000 : 1'000'000, [&](std::size_t i) {
      return method.observe(series[i % series.size()]);
    });
    checksum += m.checksum;
    per_method.f(NwsBattery::kNames[k], m.ns_per_op, 1);
  });

  char checksum_bits[24];
  std::snprintf(checksum_bits, sizeof checksum_bits, "%016llx",
                static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(checksum)));

  bench::JsonWriter line;
  line.u64("samples", kObs)
      .f("ns_per_observe", obs.ns_per_op, 1)
      .f("ns_per_forecast", fc.ns_per_op, 1)
      .f("ns_per_observe_forecast", ofc.ns_per_op, 1)
      .f("ns_per_cold_observe", cobs.ns_per_op, 1)
      .f("ns_per_bank_record", rec.ns_per_op, 1)
      .f("ns_per_batch_observe", ns_batch, 1)
      .f("allocs_per_new_forecaster", allocs_per_new, 2)
      .raw("per_method", per_method.object())
      .g("checksum", checksum)
      .str("checksum_bits", checksum_bits);
  bench::emit_json("micro_forecast", line);
  if (allocs_per_new > 0) {
    std::fprintf(stderr,
                 "micro_forecast: building an AdaptiveForecaster allocated "
                 "%.2f times (budget 0)\n",
                 allocs_per_new);
    return 1;
  }
  return 0;
}
