// Streaming statistics used by the forecasters, the dynamic-benchmarking
// layer and the benchmark harnesses (5-minute-average series of Figs. 2-4).
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstdint>
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

namespace detail {

/// Raw-buffer kernels behind every ordered window. A sorted buffer keeps its
/// n values at [0, n) with kSortedFront slots before and kSortedBack after
/// them: the rebuild sweep reads the shifted-by-one neighbour (index -1 at
/// the front) and reads & writes whole vector chunks (up to 3 slots past
/// the end with 4-lane AVX2). Margin contents are never real data.
inline constexpr std::size_t kSortedFront = 1;
inline constexpr std::size_t kSortedBack = 4;
/// Windows at or below this slide with the branchless rebuild; above it,
/// binary search + memmove (the sweeps' fixed-trip advantage fades once the
/// window outgrows a few cache lines).
inline constexpr std::size_t kSortedScanThreshold = 64;

/// Insert x into the n sorted values at `sorted` (room for n + 1), after any
/// equal ones so equal runs keep arrival order.
void sorted_insert(double* sorted, std::size_t n, double x);
/// Replace `evicted` (one of the n sorted values at `sorted`) by x in place:
/// two O(log n) binary searches and one memmove.
void sorted_replace(double* sorted, std::size_t n, double evicted, double x);

/// Write to `out` the n sorted values of `in` with `evicted` replaced by x,
/// by the branchless two-sweep rebuild (stats.cpp). Both buffers carry the
/// margins; for n <= kSortedScanThreshold.
using SortedSlideFn = void (*)(const double* in, double* out, std::size_t n,
                               double evicted, double x);
void sorted_slide_generic(const double* in, double* out, std::size_t n,
                          double evicted, double x);
#if defined(EW_ORDERED_WINDOW_AVX2)
/// The same rebuild four lanes wide (stats_simd.cpp, built with -mavx2).
void sorted_slide_avx2(const double* in, double* out, std::size_t n,
                       double evicted, double x);
#endif
/// The rebuild variant chosen for this CPU, picked once at load time.
extern const SortedSlideFn sorted_slide;

/// Inline storage of a window of capacity N: nothing to allocate.
template <std::size_t N>
class InlineWindowStorage {
  static_assert(N > 0, "ordered window of zero capacity");

 public:
  [[nodiscard]] static constexpr std::size_t capacity() { return N; }
  [[nodiscard]] double* fifo() { return fifo_.data(); }
  [[nodiscard]] const double* fifo() const { return fifo_.data(); }
  [[nodiscard]] double* buffer(bool second) {
    return (second ? b_ : a_).data() + kSortedFront;
  }
  [[nodiscard]] const double* buffer(bool second) const {
    return (second ? b_ : a_).data() + kSortedFront;
  }

 private:
  std::array<double, N> fifo_{};
  std::array<double, N + kSortedFront + kSortedBack> a_{};
  std::array<double, N + kSortedFront + kSortedBack> b_{};
};

/// Storage for a capacity chosen at run time: one heap block holding the
/// arrival ring and both sorted buffers.
class HeapWindowStorage {
 public:
  explicit HeapWindowStorage(std::size_t capacity)
      : capacity_(capacity),
        mem_(3 * capacity + 2 * (kSortedFront + kSortedBack)) {
    if (capacity == 0) throw std::invalid_argument("OrderedWindow: zero capacity");
  }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] double* fifo() { return mem_.data(); }
  [[nodiscard]] const double* fifo() const { return mem_.data(); }
  [[nodiscard]] double* buffer(bool second) { return mem_.data() + offset(second); }
  [[nodiscard]] const double* buffer(bool second) const {
    return mem_.data() + offset(second);
  }

 private:
  [[nodiscard]] std::size_t offset(bool second) const {
    const std::size_t stride = capacity_ + kSortedFront + kSortedBack;
    return capacity_ + kSortedFront + (second ? stride : 0);
  }
  std::size_t capacity_;
  std::vector<double> mem_;
};

}  // namespace detail

/// Fixed-capacity sliding window that keeps its contents **sorted
/// incrementally**, the workhorse behind the forecaster battery's order
/// statistics (SlidingMedian, TrimmedMean) and the AdaptiveTimeout tails.
/// Rank queries — median, quantiles, trimmed ranges — are O(1) array
/// indexing instead of a copy-and-sort (O(w log w) plus an allocation).
///
/// `Storage` is detail::InlineWindowStorage<N> (FixedOrderedWindow<N>: the
/// capacity is a compile-time constant and the window allocates nothing) or
/// detail::HeapWindowStorage (OrderedWindow: capacity chosen at run time,
/// one heap block). Both reach the same raw-buffer kernels.
///
/// Maintenance strategy, chosen by measurement (see DESIGN.md, "Forecasting
/// hot path"):
///  - w <= kSortedScanThreshold (every battery window): each add() rebuilds
///    the sorted array into a second buffer with a branchless vectorized
///    pass — one sweep counts the evicted element's and the newcomer's
///    ranks, a second sweep blends each element with its shifted-by-one
///    neighbour by rank mask and the buffers swap roles. O(w) with tiny
///    constants; the point is that the trip counts are fixed, so a random
///    measurement stream causes **zero** branch mispredictions and the
///    pipeline can overlap adjacent forecasters' updates. Both the O(log w)
///    dual-multiset (allocator traffic) and binary-search + memmove (one
///    unpredictable direction branch + one unpredictable trip count per add
///    = two pipeline flushes) variants were prototyped and lost ~1.5-4x.
///  - w > kSortedScanThreshold: two O(log w) binary searches plus one
///    contiguous memmove between the two positions, in place.
///
/// Values must be finite; NaNs would corrupt the sorted invariant (asserted
/// in debug builds).
template <class Storage>
class BasicOrderedWindow {
 public:
  BasicOrderedWindow() = default;
  explicit BasicOrderedWindow(std::size_t capacity) : store_(capacity) {}

  /// Insert x, evicting the oldest value first when the window is full.
  void add(double x) {
    assert(!std::isnan(x) && "OrderedWindow requires NaN-free input");
    const std::size_t cap = store_.capacity();
    double* const fifo = store_.fifo();
    if (size_ < cap) {
      // head_ is 0 until the first eviction, so the arrival slot is size_.
      fifo[size_] = x;
      detail::sorted_insert(store_.buffer(flip_), size_, x);
      ++size_;
      return;
    }
    const double evicted = fifo[head_];
    fifo[head_] = x;
    head_ = head_ + 1 == cap ? 0 : head_ + 1;
    if (cap <= detail::kSortedScanThreshold) {
      // The hot path: every battery window.
      detail::sorted_slide(store_.buffer(flip_), store_.buffer(!flip_), size_,
                           evicted, x);
      flip_ = !flip_;
    } else {
      detail::sorted_replace(store_.buffer(flip_), size_, evicted, x);
    }
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t capacity() const { return store_.capacity(); }
  /// Most recently added value (arrival order, not sorted order).
  [[nodiscard]] double back() const {
    if (size_ == 0) throw std::logic_error("OrderedWindow::back: empty window");
    return store_.fifo()[(head_ + size_ - 1) % store_.capacity()];
  }

  /// i-th smallest value (rank order). Requires i < size().
  [[nodiscard]] double at_rank(std::size_t i) const { return sorted()[i]; }
  /// The toolkit's median definition: nearest-rank, i.e. the order statistic
  /// at rank ceil(n/2) (the lower of the two middle elements for even n),
  /// the same as quantile(0.5).
  [[nodiscard]] double median() const {
    if (size_ == 0) throw std::logic_error("OrderedWindow::median: empty window");
    return sorted()[(size_ - 1) / 2];
  }
  /// q in [0,1]; nearest-rank quantile, answered in O(1) from the sorted
  /// array. Requires non-empty window.
  [[nodiscard]] double quantile(double q) const {
    if (size_ == 0) throw std::logic_error("OrderedWindow::quantile: empty window");
    q = std::clamp(q, 0.0, 1.0);
    const auto n = static_cast<double>(size_);
    const auto rank = static_cast<std::size_t>(std::min(std::ceil(q * n), n));
    return sorted()[rank == 0 ? 0 : rank - 1];
  }
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

  void clear() {
    head_ = 0;
    size_ = 0;
    flip_ = false;
  }

 private:
  [[nodiscard]] const double* sorted() const { return store_.buffer(flip_); }

  Storage store_;
  std::size_t head_ = 0;  // ring index of the oldest element in the fifo
  std::size_t size_ = 0;
  bool flip_ = false;     // which of the two buffers holds the sorted data
};

/// Ordered window whose capacity is chosen at run time (heap storage).
using OrderedWindow = BasicOrderedWindow<detail::HeapWindowStorage>;
/// Ordered window of compile-time capacity N with inline storage.
template <std::size_t N>
using FixedOrderedWindow = BasicOrderedWindow<detail::InlineWindowStorage<N>>;

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

/// Mean absolute (and squared) error accumulator for scoring a forecast
/// stream against the truth (forecast_accuracy, the selector tests).
class ErrorTracker {
 public:
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
