// Shared plumbing for the everybench workloads: run arguments, the metric
// set a workload returns, process counters, and small statistics helpers.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace eb {

struct RunArgs {
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Self-test hook: name of one correctness check to feed a corrupted
  /// input, so the check is seen to fail. Empty in real runs.
  std::string corrupt;
  /// Where the traced run writes its retained spans (empty = nowhere).
  std::string span_out;
};

struct Metric {
  double value = 0;
  std::string unit;
};

/// What one workload run reports; main() renders it as the result line.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::vector<std::string> problems;  // failed checks, printed to stderr

  void set(const std::string& name, double value, const char* unit) {
    if (!std::isfinite(value)) {
      check(false, name + " was not measured");
      value = 0;
    }
    metrics[name] = Metric{value, unit};
  }
  /// Record a correctness check; a false `ok` fails the run.
  void check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      problems.push_back(what);
    }
  }
};

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e9;
}

/// getrusage snapshot; differences give the CPU, context switches and
/// faults of a measured window alone.
struct ProcSample {
  double user_s = 0;
  double sys_s = 0;
  std::uint64_t vcsw = 0;
  std::uint64_t ivcsw = 0;
  double max_rss_mb = 0;

  static ProcSample now() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    ProcSample p;
    p.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
               static_cast<double>(ru.ru_utime.tv_usec) / 1e6;
    p.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
              static_cast<double>(ru.ru_stime.tv_usec) / 1e6;
    p.vcsw = static_cast<std::uint64_t>(ru.ru_nvcsw);
    p.ivcsw = static_cast<std::uint64_t>(ru.ru_nivcsw);
    p.max_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
    return p;
  }
};

/// A measured window's process counters: (end - start) for the flows,
/// peak RSS as of the end.
struct ProcWindow {
  double user_s = 0;
  double sys_s = 0;
  std::uint64_t ctx_switches = 0;
  double max_rss_mb = 0;

  static ProcWindow between(const ProcSample& a, const ProcSample& b) {
    return ProcWindow{b.user_s - a.user_s, b.sys_s - a.sys_s,
                      (b.vcsw - a.vcsw) + (b.ivcsw - a.ivcsw), b.max_rss_mb};
  }
  [[nodiscard]] double cpu_s() const { return user_s + sys_s; }
  [[nodiscard]] double sys_share() const {
    return cpu_s() > 0 ? sys_s / cpu_s() : 0;
  }
};

/// Nearest-rank quantile (q in [0,1]) of an unsorted sample; sorts `v`.
template <typename T>
double quantile(std::vector<T>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1) + 0.5);
  return static_cast<double>(v[std::min(idx, v.size() - 1)]);
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

inline double min_of(const std::vector<double>& v) {
  return v.empty() ? 0 : *std::min_element(v.begin(), v.end());
}
inline double max_of(const std::vector<double>& v) {
  return v.empty() ? 0 : *std::max_element(v.begin(), v.end());
}

/// A measured window cut into short fixed-length slices. Rates, CPU per
/// operation and (when each slice holds enough samples) latency quantiles
/// are taken per slice, and the window reports the best slice. On a shared
/// machine outside load only ever slows a slice down, and it comes and goes
/// in phases of seconds, so the fastest slice is the one closest to the
/// program's own speed while the mean follows the neighbours.
class SlicedWindow {
 public:
  /// `pooled_latency`: for workloads with too few calls per slice for a
  /// per-slice p99, keep every latency sample and take the quantiles over
  /// the calls of the fastest quarter of the slices. Otherwise quantiles are
  /// per slice and the sample buffer is reused slice to slice.
  SlicedWindow(double slice_s, bool pooled_latency)
      : slice_ns_(static_cast<std::int64_t>(slice_s * 1e9)), pooled_(pooled_latency) {}

  /// Open the window with `done` operations completed so far.
  void start(std::uint64_t done) {
    t0_ = slice_t0_ = now_ns();
    proc0_ = slice_proc0_ = ProcSample::now();
    done0_ = slice_done0_ = done;
    open_ = true;
  }
  [[nodiscard]] bool open() const { return open_; }

  /// One call's latency (issue to callback), in ns.
  void sample(std::int64_t ns) {
    buf_.push_back(ns);
    ++samples_;
  }

  /// Call between reactor turns; closes the slice once its time is up.
  void tick(std::uint64_t done) {
    const std::int64_t t = now_ns();
    if (t - slice_t0_ < slice_ns_) return;
    const ProcSample p = ProcSample::now();
    const auto n = static_cast<double>(done - slice_done0_);
    rates_.push_back(n / (static_cast<double>(t - slice_t0_) / 1e9));
    if (n > 0) {
      cpu_us_.push_back((p.user_s + p.sys_s - slice_proc0_.user_s - slice_proc0_.sys_s) * 1e6 / n);
    }
    if (pooled_) {
      cuts_.push_back(buf_.size());
    } else if (!buf_.empty()) {
      p50_.push_back(quantile(buf_, 0.50));
      p99_.push_back(quantile(buf_, 0.99));
      buf_.clear();
    }
    slice_t0_ = t;
    slice_proc0_ = p;
    slice_done0_ = done;
  }

  /// Close the window; later samples are ignored by the caller.
  void stop() { open_ = false; }

  [[nodiscard]] bool elapsed(double seconds) const {
    return static_cast<double>(now_ns() - t0_) / 1e9 >= seconds;
  }
  [[nodiscard]] std::int64_t start_ns() const { return t0_; }
  [[nodiscard]] const ProcSample& start_proc() const { return proc0_; }
  [[nodiscard]] std::uint64_t start_done() const { return done0_; }
  [[nodiscard]] std::uint64_t samples() const { return samples_; }
  [[nodiscard]] const std::vector<double>& rates() const { return rates_; }
  [[nodiscard]] double rate() const { return max_of(rates_); }
  [[nodiscard]] double cpu_us_per_op() const { return min_of(cpu_us_); }
  /// Latency quantile in ns: q is 0.50 or 0.99.
  [[nodiscard]] double latency_ns(double q) {
    if (!pooled_) return min_of(q < 0.9 ? p50_ : p99_);
    if (rates_.empty()) return 0;
    std::vector<double> sorted = rates_;
    const std::size_t keep = std::max<std::size_t>(1, sorted.size() / 4);
    std::nth_element(sorted.begin(), sorted.end() - static_cast<std::ptrdiff_t>(keep), sorted.end());
    const double cut = *(sorted.end() - static_cast<std::ptrdiff_t>(keep));
    std::vector<std::int64_t> fast;
    for (std::size_t i = 0; i < rates_.size(); ++i) {
      if (rates_[i] < cut) continue;
      const std::size_t from = i == 0 ? 0 : cuts_[i - 1];
      fast.insert(fast.end(), buf_.begin() + static_cast<std::ptrdiff_t>(from),
                  buf_.begin() + static_cast<std::ptrdiff_t>(cuts_[i]));
    }
    return quantile(fast, q);
  }

 private:
  std::int64_t slice_ns_;
  bool pooled_;
  bool open_ = false;
  std::int64_t t0_ = 0;
  std::int64_t slice_t0_ = 0;
  ProcSample proc0_;
  ProcSample slice_proc0_;
  std::uint64_t done0_ = 0;
  std::uint64_t slice_done0_ = 0;
  std::uint64_t samples_ = 0;
  std::vector<std::int64_t> buf_;
  std::vector<double> rates_;
  std::vector<double> cpu_us_;
  std::vector<double> p50_;
  std::vector<double> p99_;
  std::vector<std::size_t> cuts_;  // pooled: buf_ size at each slice's end
};

/// 64-bit FNV-1a, for output digests.
class Digest {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ = (h_ ^ b[i]) * 0x100000001b3ULL;
    }
  }
  template <typename T>
  void value(const T& v) {
    bytes(&v, sizeof(v));
  }
  [[nodiscard]] std::uint64_t get() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

// Workload entry points (one translation unit each).
RunResult run_echo_small(const RunArgs& args);
RunResult run_sched_batch(const RunArgs& args);
RunResult run_sc98(const RunArgs& args);

}  // namespace eb
