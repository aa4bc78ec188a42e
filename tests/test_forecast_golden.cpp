// Golden digest of the adaptive forecaster's outputs.
//
// Three seeded 5,000-sample traces go through AdaptiveForecaster::
// nws_default(). After every observation (warm-up included) the digest
// takes the bit patterns of forecast()'s value, error and sample count, the
// bytes of its method name, and every method_mae() entry; it starts with the
// method_names() in battery order. FNV-1a over raw bits sees a one-ulp change
// in any method at any step, which a %g-printed checksum cannot. A refactor of
// the battery or the selector must leave these digests unchanged; on a
// failure the test prints the current values.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "forecast/selector.hpp"
#include "sim/traces.hpp"

namespace ew {
namespace {

constexpr std::size_t kSamples = 5000;

class Fnv1a {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 0x100000001b3ULL;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(std::string_view s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::uint64_t digest(const std::vector<double>& trace) {
  Fnv1a h;
  auto f = AdaptiveForecaster::nws_default();
  for (const auto& name : f.method_names()) h.str(name);
  for (double v : trace) {
    f.observe(v);
    const Forecast fc = f.forecast();
    h.f64(fc.value);
    h.f64(fc.error);
    h.u64(fc.samples);
    h.str(fc.method);
    for (double mae : f.method_mae()) h.f64(mae);
  }
  return h.value();
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

TEST(ForecastGolden, UniformTrace) {
  Rng rng(1);
  std::vector<double> trace;
  for (std::size_t i = 0; i < kSamples; ++i) trace.push_back(rng.uniform(50, 150));
  EXPECT_EQ(hex(digest(trace)), "b43ed534d6f8998a");
}

TEST(ForecastGolden, SyntheticRttTrace) {
  const auto trace = sim::MeasurementTrace::synthetic_rtt(kSamples, Rng(2));
  EXPECT_EQ(hex(digest(trace.values())), "7864cfc096092f8d");
}

TEST(ForecastGolden, StepChangeTrace) {
  // A quiet level, then a jump to a noisier one four times higher.
  Rng rng(3);
  std::vector<double> trace;
  for (std::size_t i = 0; i < kSamples; ++i) {
    trace.push_back(i < kSamples / 2 ? 100.0 + rng.normal(0, 2)
                                     : 400.0 + rng.normal(0, 8));
  }
  EXPECT_EQ(hex(digest(trace)), "905b8c974681b8fa");
}

}  // namespace
}  // namespace ew
