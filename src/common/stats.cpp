#include "common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace ew {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::cv() const {
  return mean_ == 0.0 ? 0.0 : stddev() / std::abs(mean_);
}

namespace detail {

namespace {

// The rebuild variant chosen for this CPU, picked once at load time. The
// AVX2 translation unit exists only where the compiler could build it;
// __builtin_cpu_supports keeps the generic binary runnable on any x86-64.
SortedSlideFn pick_sorted_slide() {
#if defined(EW_ORDERED_WINDOW_AVX2)
  if (__builtin_cpu_supports("avx2")) return &sorted_slide_avx2;
#endif
  return &sorted_slide_generic;
}

}  // namespace

const SortedSlideFn sorted_slide = pick_sorted_slide();

void sorted_insert(double* sorted, std::size_t n, double x) {
  // Insertion point: first element > x, so equal runs keep arrival order.
  std::size_t ipos;
  if (n > kSortedScanThreshold) {
    ipos = static_cast<std::size_t>(std::upper_bound(sorted, sorted + n, x) -
                                    sorted);
  } else {
    ipos = 0;
    for (std::size_t i = 0; i < n; ++i) ipos += sorted[i] <= x ? 1u : 0u;
  }
  std::memmove(sorted + ipos + 1, sorted + ipos, (n - ipos) * sizeof(double));
  sorted[ipos] = x;
}

void sorted_replace(double* sorted, std::size_t n, double evicted, double x) {
  // O(log n): locate the evicted element and the insertion slot with binary
  // searches, then close the gap between them with a single memmove.
  const auto epos = static_cast<std::size_t>(
      std::lower_bound(sorted, sorted + n, evicted) - sorted);
  const auto ipos = static_cast<std::size_t>(
      std::upper_bound(sorted, sorted + n, x) - sorted);
  if (epos < ipos) {
    std::memmove(sorted + epos, sorted + epos + 1,
                 (ipos - 1 - epos) * sizeof(double));
    sorted[ipos - 1] = x;
  } else {
    std::memmove(sorted + ipos + 1, sorted + ipos, (epos - ipos) * sizeof(double));
    sorted[ipos] = x;
  }
}

// Steady-state slide for small windows, portable flavour (SSE2 on x86-64,
// scalar elsewhere). Algorithm, in both flavours and in the AVX2 unit:
//
//  1. One fused sweep over the sorted array counts `epos` (elements < the
//     evicted value — its lower_bound index) and `ipos` (elements <= the new
//     value — its upper_bound index). Compares accumulate lane masks, so a
//     random stream costs exactly what a sorted one does.
//  2. A second fixed-trip sweep rebuilds the array into the spare buffer:
//     out[j] = x at the insertion slot, in[j +- 1] inside the span between
//     the two positions, in[j] outside it — selected by rank masks, never by
//     branches. The caller then swaps the buffers' roles.
//
// Rationale: with random data, both the shift direction and the shift length
// of the classic in-place gap close are coin flips, costing two pipeline
// flushes per observation — which also stops the CPU overlapping the four
// ordered windows the default battery updates back to back. The fixed-trip
// rebuild is pure data movement (bit-identical results) with zero
// mispredictions and runs ~1.5x faster across the battery despite touching
// more elements.
void sorted_slide_generic(const double* in, double* out, std::size_t n,
                          double evicted, double x) {
  std::size_t epos;
  std::size_t ipos;
#if defined(__SSE2__)
  {
    const __m128d va = _mm_set1_pd(evicted);
    const __m128d vb = _mm_set1_pd(x);
    __m128i clt = _mm_setzero_si128();
    __m128i cle = _mm_setzero_si128();
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2) {
      const __m128d v = _mm_loadu_pd(in + i);
      clt = _mm_sub_epi64(clt, _mm_castpd_si128(_mm_cmplt_pd(v, va)));
      cle = _mm_sub_epi64(cle, _mm_castpd_si128(_mm_cmple_pd(v, vb)));
    }
    // In-register horizontal sums (a store/reload would put a
    // store-forwarding round trip on every observation's critical path).
    epos = static_cast<std::uint64_t>(
        _mm_cvtsi128_si64(_mm_add_epi64(clt, _mm_unpackhi_epi64(clt, clt))));
    ipos = static_cast<std::uint64_t>(
        _mm_cvtsi128_si64(_mm_add_epi64(cle, _mm_unpackhi_epi64(cle, cle))));
    for (; i < n; ++i) {
      epos += in[i] < evicted ? 1u : 0u;
      ipos += in[i] <= x ? 1u : 0u;
    }
  }
#else
  {
    std::size_t lt = 0, le = 0;
    for (std::size_t i = 0; i < n; ++i) {
      lt += in[i] < evicted ? 1u : 0u;
      le += in[i] <= x ? 1u : 0u;
    }
    epos = lt;
    ipos = le;
  }
#endif
  // Rebuild plan: removing rank epos and inserting at slot shifts exactly
  // the span between them by one, direction given by which side the
  // insertion lands on. All four parameters come from conditional moves.
  const bool leftward = epos < ipos;
  const std::ptrdiff_t d = leftward ? 1 : -1;
  const std::size_t lo = leftward ? epos : ipos + 1;   // first shifted index
  const std::size_t hi = leftward ? ipos - 1 : epos + 1;  // one past last
  const std::size_t slot = leftward ? ipos - 1 : ipos;
#if defined(__SSE2__)
  const __m128d vlo = _mm_set1_pd(static_cast<double>(lo));
  const __m128d vhi = _mm_set1_pd(static_cast<double>(hi));
  __m128d iota = _mm_set_pd(1.0, 0.0);
  const __m128d two = _mm_set1_pd(2.0);
  for (std::size_t j = 0; j < n; j += 2) {
    const __m128d plain = _mm_loadu_pd(in + j);
    const __m128d shifted = _mm_loadu_pd(in + j + d);
    const __m128d m =
        _mm_and_pd(_mm_cmpge_pd(iota, vlo), _mm_cmplt_pd(iota, vhi));
    _mm_storeu_pd(out + j,
                  _mm_or_pd(_mm_and_pd(m, shifted), _mm_andnot_pd(m, plain)));
    iota = _mm_add_pd(iota, two);
  }
#else
  for (std::size_t j = 0; j < n; ++j) {
    const bool in_span = j >= lo && j < hi;
    out[j] = in[in_span ? static_cast<std::size_t>(
                              static_cast<std::ptrdiff_t>(j) + d)
                        : j];
  }
#endif
  out[slot] = x;
}

}  // namespace detail

BinnedSeries::BinnedSeries(TimePoint start, Duration bin_width, std::size_t num_bins)
    : start_(start),
      width_(bin_width),
      sums_(num_bins, 0.0),
      sample_sums_(num_bins, 0.0),
      sample_counts_(num_bins, 0) {
  if (bin_width <= 0) throw std::invalid_argument("BinnedSeries: non-positive bin width");
  if (num_bins == 0) throw std::invalid_argument("BinnedSeries: zero bins");
}

bool BinnedSeries::add(TimePoint t, double amount) {
  if (t < start_) return false;
  const auto bin = static_cast<std::size_t>((t - start_) / width_);
  if (bin >= sums_.size()) return false;
  sums_[bin] += amount;
  return true;
}

bool BinnedSeries::sample(TimePoint t, double value) {
  if (t < start_) return false;
  const auto bin = static_cast<std::size_t>((t - start_) / width_);
  if (bin >= sample_sums_.size()) return false;
  sample_sums_[bin] += value;
  sample_counts_[bin] += 1;
  return true;
}

TimePoint BinnedSeries::bin_start(std::size_t i) const {
  return start_ + static_cast<Duration>(i) * width_;
}

double BinnedSeries::rate(std::size_t i) const {
  return sums_.at(i) / to_seconds(width_);
}

double BinnedSeries::average(std::size_t i) const {
  return sample_counts_.at(i) == 0
             ? 0.0
             : sample_sums_[i] / static_cast<double>(sample_counts_[i]);
}

std::vector<double> BinnedSeries::rate_series() const {
  std::vector<double> out(sums_.size());
  for (std::size_t i = 0; i < sums_.size(); ++i) out[i] = rate(i);
  return out;
}

std::vector<double> BinnedSeries::average_series() const {
  std::vector<double> out(sample_sums_.size());
  for (std::size_t i = 0; i < sample_sums_.size(); ++i) out[i] = average(i);
  return out;
}

}  // namespace ew
