// Streaming statistics used by the forecasters, the dynamic-benchmarking
// layer and the benchmark harnesses (5-minute-average series of Figs. 2-4).
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <stdexcept>
#include <vector>

#include "common/clock.hpp"

namespace ew {

/// Welford running mean/variance over a stream of doubles.
class RunningStats {
 public:
  void add(double x);
  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 with fewer than two samples.
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return n_ ? max_ : 0.0; }
  /// Coefficient of variation (stddev / mean); 0 when mean is 0.
  [[nodiscard]] double cv() const;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Fixed-capacity sliding window with an O(1) running mean and O(n) quantile
/// queries. Small windows only (forecasting uses <= a few hundred samples).
/// Values must be finite (the forecasting streams are NaN-free by contract).
class SlidingWindow {
 public:
  explicit SlidingWindow(std::size_t capacity);
  void add(double x);
  [[nodiscard]] std::size_t size() const { return buf_.size(); }
  [[nodiscard]] bool empty() const { return buf_.empty(); }
  [[nodiscard]] double back() const { return buf_.back(); }
  /// Running-sum mean: O(1). Subject to normal floating-point accumulation
  /// drift over very long streams (bounded by window churn, not stream
  /// length, because evicted values are subtracted back out).
  [[nodiscard]] double mean() const;
  [[nodiscard]] double median() const;
  /// q in [0,1]; nearest-rank quantile. Requires non-empty window.
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] const std::deque<double>& values() const { return buf_; }
  void clear() {
    buf_.clear();
    sum_ = 0.0;
  }

 private:
  std::size_t capacity_;
  std::deque<double> buf_;
  double sum_ = 0.0;
};

class OrderedWindow;
namespace detail {
/// Backdoor for the ISA-specific OrderedWindow kernels (stats_simd.cpp is
/// compiled with wider vector flags than the rest of the library and
/// dispatched at startup by CPU capability).
struct OrderedWindowKernels {
  static void steady_add_generic(OrderedWindow& w, double x);
#if defined(EW_ORDERED_WINDOW_AVX2)
  static void steady_add_avx2(OrderedWindow& w, double x);
#endif
};
}  // namespace detail

/// Fixed-capacity sliding window that keeps its contents **sorted
/// incrementally**, the workhorse behind the incremental forecaster battery
/// (SlidingMedian, TrimmedMean, AdaptiveTimeout tails). Rank queries —
/// median, quantiles, trimmed ranges — are O(1) array indexing instead of
/// the copy-and-sort (O(w log w) plus an allocation) the naive SlidingWindow
/// needs.
///
/// Maintenance strategy, chosen by measurement (see DESIGN.md, "Forecasting
/// hot path"):
///  - w <= kScanThreshold (every battery window): each add() rebuilds the
///    sorted array into a second buffer with a branchless vectorized pass —
///    one sweep counts the evicted element's and the newcomer's ranks, a
///    second sweep blends each element with its shifted-by-one neighbour by
///    rank mask and the buffers swap roles. O(w) with tiny constants; the
///    point is that the trip counts are fixed, so a random measurement
///    stream causes **zero** branch mispredictions and the pipeline can
///    overlap adjacent forecasters' updates. Both the O(log w) dual-multiset
///    (allocator traffic) and binary-search + memmove (one unpredictable
///    direction branch + one unpredictable trip count per add = two pipeline
///    flushes) variants were prototyped and lost ~1.5-4x.
///  - w > kScanThreshold: two O(log w) binary searches plus one contiguous
///    memmove between the two positions, in place.
///
/// Values must be finite; NaNs would corrupt the sorted invariant (asserted
/// in debug builds).
class OrderedWindow {
 public:
  explicit OrderedWindow(std::size_t capacity);

  /// Insert x, evicting the oldest value first when the window is full.
  void add(double x);

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  /// Most recently added value (arrival order, not sorted order).
  [[nodiscard]] double back() const;

  /// i-th smallest value (rank order). Requires i < size().
  [[nodiscard]] double at_rank(std::size_t i) const { return sorted()[i]; }
  /// The toolkit's median definition: nearest-rank, i.e. the order statistic
  /// at rank ceil(n/2) (the lower of the two middle elements for even n).
  /// Identical to SlidingWindow::quantile(0.5), so forecasts are
  /// bit-identical with the naive battery at every window size.
  /// Inline: this is the per-observation read on the forecaster hot path.
  [[nodiscard]] double median() const {
    if (size_ == 0) throw std::logic_error("OrderedWindow::median: empty window");
    return sorted()[(size_ - 1) / 2];
  }
  /// q in [0,1]; nearest-rank quantile (same rank rule as SlidingWindow),
  /// answered in O(1) from the sorted array. Requires non-empty window.
  [[nodiscard]] double quantile(double q) const;
  /// Sum of the order statistics in rank range [lo, hi); O(hi - lo).
  /// Summed left to right so the result is bit-identical to a naive loop
  /// over a sorted copy of the window.
  [[nodiscard]] double range_sum(std::size_t lo, std::size_t hi) const {
    hi = hi < size_ ? hi : size_;
    const double* v = sorted();
    double s = 0.0;
    for (std::size_t i = lo; i < hi; ++i) s += v[i];
    return s;
  }

  void clear();

 private:
  friend struct detail::OrderedWindowKernels;

  /// Windows at or below this use the branchless rebuild; above it, binary
  /// search + memmove (the sweeps' fixed-trip advantage fades once the
  /// window outgrows a few cache lines).
  static constexpr std::size_t kScanThreshold = 64;
  /// Margins around the sorted payload in each buffer: the rebuild sweep
  /// reads the shifted-by-one neighbour (index -1 at the front) and reads &
  /// writes whole vector chunks (up to 3 slots past the end with 4-lane
  /// AVX2). Margin contents are never real data.
  static constexpr std::size_t kFront = 1;
  static constexpr std::size_t kBack = 4;

  /// Sorted payload of the active buffer. A flip flag rather than cached
  /// pointers keeps the implicit copy/move of the class correct.
  [[nodiscard]] const double* sorted() const {
    return (flip_ ? bufb_ : bufa_).data() + kFront;
  }
  [[nodiscard]] double* sorted_mut() {
    return (flip_ ? bufb_ : bufa_).data() + kFront;
  }
  [[nodiscard]] double* spare_mut() {
    return (flip_ ? bufa_ : bufb_).data() + kFront;
  }

  void add_warmup(double x);
  void add_large(double x);  // w > kScanThreshold: binary search + memmove

  std::size_t capacity_;
  std::size_t head_ = 0;  // ring index of the oldest element in fifo_
  std::size_t size_ = 0;
  bool flip_ = false;           // which of bufa_/bufb_ holds the sorted data
  std::vector<double> fifo_;    // arrival order (ring buffer)
  std::vector<double> bufa_;    // sorted values + margins (active or spare)
  std::vector<double> bufb_;
};

/// Accumulates (time, value) observations into fixed-width time bins and
/// reports per-bin averages — exactly the "5 Minute Averages" of the paper's
/// result figures. Values are rates contributed over the bin; `add` deposits
/// an amount of work at a time, and `rate_series` divides by bin width.
class BinnedSeries {
 public:
  BinnedSeries(TimePoint start, Duration bin_width, std::size_t num_bins);

  /// Deposit `amount` (e.g. integer ops completed) at time t. Returns false
  /// (and deposits nothing) when t falls outside the recorded range, so
  /// callers can count what they lose instead of losing it silently.
  bool add(TimePoint t, double amount);

  /// Record an instantaneous gauge sample (e.g. host count) at time t;
  /// per-bin value is the average of samples in the bin. Returns false when
  /// t falls outside the recorded range (sample dropped).
  bool sample(TimePoint t, double value);

  [[nodiscard]] std::size_t num_bins() const { return sums_.size(); }
  [[nodiscard]] TimePoint bin_start(std::size_t i) const;
  /// Sum deposited into bin i divided by bin width in seconds.
  [[nodiscard]] double rate(std::size_t i) const;
  /// Average of gauge samples in bin i (0 if none).
  [[nodiscard]] double average(std::size_t i) const;
  /// Full rate series.
  [[nodiscard]] std::vector<double> rate_series() const;
  /// Full gauge-average series.
  [[nodiscard]] std::vector<double> average_series() const;

 private:
  TimePoint start_;
  Duration width_;
  std::vector<double> sums_;
  std::vector<double> sample_sums_;
  std::vector<std::uint64_t> sample_counts_;
};

/// Mean absolute error accumulator for forecaster scoring.
class ErrorTracker {
 public:
  /// Inline: the adaptive selector scores every battery member against each
  /// new observation, so this runs |battery| times per measurement.
  void add(double predicted, double actual) {
    ++n_;
    const double e = predicted - actual;
    abs_sum_ += std::abs(e);
    sq_sum_ += e * e;
  }
  [[nodiscard]] double mae() const { return n_ ? abs_sum_ / static_cast<double>(n_) : 0.0; }
  [[nodiscard]] double mse() const { return n_ ? sq_sum_ / static_cast<double>(n_) : 0.0; }
  [[nodiscard]] std::size_t count() const { return n_; }

 private:
  std::size_t n_ = 0;
  double abs_sum_ = 0.0;
  double sq_sum_ = 0.0;
};

}  // namespace ew
