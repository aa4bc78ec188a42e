// sc98: the paper's application. Sc98Scenario with default options (the
// 12-hour Figure 2 window) in the deterministic sim: the sim engine,
// SimTransport, the Node call path across thousands of event tags,
// retries, hedges and time-outs under churn, gossip and clique traffic. No
// sockets, no frame codec.
//
// Nothing inside the scenario can be timed per call from outside src/, so
// a probe event the benchmark schedules on the scenario's own EventQueue
// stamps the wall and process CPU clocks every 30 simulated seconds (the
// sim's unit of progress here: 1,530 segments, so that the p99 has more
// than ten samples beyond it). The probe only reads the clocks; every
// output is checked to be identical across same-seed runs.
//
// The window repeats the same-seed run, so each segment is the same work in
// every run. Outside load on a shared machine only ever slows a segment
// down, so the benchmark keeps each segment's fastest time across the runs:
// run_s is the sum of those, and the latency pair their p50 and p99.
#include <time.h>

#include <cstdio>

#include "app/scenario.hpp"
#include "layers.hpp"
#include "obs/registry.hpp"

namespace eb {
namespace {

constexpr int kSetupRepeats = 5;
constexpr int kMinRuns = 2;  // the digest check needs two same-seed runs
constexpr ew::Duration kSegment = 30 * ew::kSecond;

struct Sc98Run {
  double wall_s = 0;
  std::uint64_t calls = 0;    // Node calls completed (ok + failed)
  std::uint64_t events = 0;   // sim events, the benchmark's probes excluded
  std::uint64_t digest = 0;
  bool shape_ok = false;
  // Wall and process CPU µs of each segment of run(): one per kSegment of
  // simulated time, then the tail from the last whole segment to the end.
  std::vector<double> segment_wall_us;
  std::vector<double> segment_cpu_us;
  CounterSnapshot counters;
};

std::int64_t process_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double window_min(const std::vector<double>& v, std::size_t from, std::size_t n) {
  double m = 1e300;
  for (std::size_t i = from; i < std::min(from + n, v.size()); ++i) m = std::min(m, v[i]);
  return m;
}

double window_max(const std::vector<double>& v, std::size_t from, std::size_t n) {
  double m = 0;
  for (std::size_t i = from; i < std::min(from + n, v.size()); ++i) m = std::max(m, v[i]);
  return m;
}

/// The Figure 2 shape: a peak above 1.5 Gops/s, the judging-time dip below
/// 65 % of it, recovery above 75 % of it (fig2_sustained_performance).
bool fig2_shape(const ew::app::ScenarioResults& r) {
  const std::size_t j = r.bins_judging_index;
  const double peak = window_max(r.total_rate, 0, r.total_rate.size());
  const double dip = window_min(r.total_rate, j, 4);
  const double recovered = window_max(r.total_rate, j + 2, 5);
  return peak > 1.5e9 && dip < 0.65 * peak && recovered > 0.75 * peak;
}

std::uint64_t output_digest(const ew::app::ScenarioResults& r, std::uint64_t events) {
  Digest d;
  for (double x : r.total_rate) d.value(x);
  for (const auto& series : r.infra_rate) {
    for (double x : series) d.value(x);
  }
  for (const auto& series : r.infra_hosts) {
    for (double x : series) d.value(x);
  }
  for (std::uint64_t v : {r.total_ops, r.log_records, r.reports, r.migrations, r.presumed_dead,
                          r.condor_evictions, r.lsf_kills, r.translated_calls,
                          r.counterexample_stores_rejected, r.nws_probes,
                          static_cast<std::uint64_t>(r.directory_size), events}) {
    d.value(v);
  }
  return d.get();
}

ew::app::ScenarioOptions scenario_options(std::uint64_t seed) {
  ew::app::ScenarioOptions o;  // defaults: the calibrated SC98 set-up
  o.seed = seed;
  return o;
}

Sc98Run run_once(std::uint64_t seed, const std::string& corrupt) {
  Sc98Run out;
  ew::app::Sc98Scenario scenario(scenario_options(seed));
  // Stamps at the start of run(), every kSegment of simulated time, and
  // the end.
  std::vector<std::int64_t> wall, cpu;
  wall.reserve(1024);
  cpu.reserve(1024);
  auto stamp = [&] {
    wall.push_back(now_ns());
    cpu.push_back(process_cpu_ns());
  };
  std::function<void()> probe = [&] {
    stamp();
    scenario.events().schedule(kSegment, probe);
  };
  scenario.events().schedule(kSegment, probe);

  const CounterSnapshot c0 = CounterSnapshot::take();
  stamp();
  ew::app::ScenarioResults res = scenario.run();
  stamp();
  out.wall_s = static_cast<double>(wall.back() - wall.front()) / 1e9;
  out.counters = CounterSnapshot::take().minus(c0);
  out.calls = static_cast<std::uint64_t>(out.counters[ew::obs::names::kNetCallsOk] +
                                         out.counters[ew::obs::names::kNetCallsFailed]);
  out.events = scenario.events().executed() - (wall.size() - 2);  // less the probes
  for (std::size_t i = 1; i < wall.size(); ++i) {
    out.segment_wall_us.push_back(static_cast<double>(wall[i] - wall[i - 1]) / 1e3);
    out.segment_cpu_us.push_back(static_cast<double>(cpu[i] - cpu[i - 1]) / 1e3);
  }
  if (corrupt == "shape") {
    for (std::size_t i = res.bins_judging_index; i < res.total_rate.size(); ++i) {
      res.total_rate[i] = res.total_rate[0];  // no judging-time dip
    }
  }
  out.shape_ok = fig2_shape(res);
  out.digest = output_digest(res, out.events);
  return out;
}

/// Build plus warm-up: the same seed with the recording window cut to one
/// bin.
double set_up_once(std::uint64_t seed) {
  ew::app::ScenarioOptions o = scenario_options(seed);
  o.record = o.bin_width;
  const std::int64_t t0 = now_ns();
  ew::app::Sc98Scenario scenario(o);
  scenario.run();
  return seconds_since(t0);
}

}  // namespace

RunResult run_sc98(const RunArgs& args) {
  RunResult out;
  std::vector<double> setups;
  for (int k = 0; k < kSetupRepeats; ++k) setups.push_back(set_up_once(args.seed));

  std::vector<Sc98Run> runs;
  const ProcSample proc0 = ProcSample::now();
  const std::int64_t t0 = now_ns();
  while (runs.size() < kMinRuns || seconds_since(t0) < args.seconds) {
    runs.push_back(run_once(args.seed, args.corrupt));
    if (args.corrupt == "digest" && runs.size() == 2) runs.back().digest ^= 1;
  }
  const ProcWindow proc = ProcWindow::between(proc0, ProcSample::now());

  // Each segment's fastest time across the runs. Same-seed runs execute
  // the same events, so every run has the same segments.
  const std::size_t segments = runs.front().segment_wall_us.size();
  std::vector<double> best_wall(segments, 1e300), best_cpu(segments, 1e300), wall;
  std::uint64_t calls = 0;
  for (const Sc98Run& r : runs) {
    wall.push_back(r.wall_s);
    calls += r.calls;
    out.check(r.shape_ok, "sc98: Figure 2 shape check failed");
    out.check(r.digest == runs[0].digest && r.events == runs[0].events &&
                  r.segment_wall_us.size() == segments,
              "sc98: same-seed runs produced different outputs");
    for (std::size_t i = 0; i < std::min(segments, r.segment_wall_us.size()); ++i) {
      best_wall[i] = std::min(best_wall[i], r.segment_wall_us[i]);
      best_cpu[i] = std::min(best_cpu[i], r.segment_cpu_us[i]);
    }
  }
  out.attempted = runs.size();
  for (const Sc98Run& r : runs) out.failed += r.shape_ok ? 0 : 1;

  const Sc98Run& first = runs.front();
  double run_us = 0, cpu_us = 0;
  for (std::size_t i = 0; i < segments; ++i) {
    run_us += best_wall[i];
    cpu_us += best_cpu[i];
  }
  const double run_s = run_us / 1e6;
  const double calls_per_s = static_cast<double>(first.calls) / run_s;
  const double cpu_us_per_call = cpu_us / static_cast<double>(std::max<std::uint64_t>(first.calls, 1));
  std::vector<double> segment_us(best_wall.begin(), best_wall.end() - (segments > 1 ? 1 : 0));
  const double samples = static_cast<double>(segment_us.size());
  const double p50 = quantile(segment_us, 0.50);
  const double p99 = quantile(segment_us, 0.99);
  std::printf("sc98: %zu runs of the 12 h window, %zu segments, run_s %.3f s from each "
              "segment's fastest run (whole runs %.3f-%.3f s), %llu sim events, "
              "%llu calls per run, output_digest %016llx\n",
              runs.size(), segment_us.size(), run_s, min_of(wall), max_of(wall),
              static_cast<unsigned long long>(first.events),
              static_cast<unsigned long long>(first.calls),
              static_cast<unsigned long long>(first.digest));

  if (!args.trace) {
    out.set("calls_per_s", calls_per_s, "1/s");
    out.set("call_p50_us", p50, "us");
    out.set("call_p99_us", p99, "us");
    out.set("cpu_us_per_call", cpu_us_per_call, "us");
    out.set("run_s", run_s, "s");
    out.set("setup_s", median(setups), "s");
    out.set("rss_mb", proc.max_rss_mb, "MB");
    return out;
  }

  // The sim has no decorators to switch on: the traced run is the same
  // run, reporting the per-layer view. Counts are per run (identical
  // across same-seed runs).
  out.set("trace.calls_per_s", calls_per_s, "1/s");
  out.set("trace.call_p50_us", p50, "us");
  out.set("trace.call_p99_us", p99, "us");
  out.set("trace.cpu_us_per_call", cpu_us_per_call, "us");
  out.set("call.samples", samples, "count");
  out.set("sim.events", static_cast<double>(first.events), "count");
  out.set("sim.wall_ns_per_event", run_s * 1e9 / static_cast<double>(first.events), "ns");
  add_registry_metrics(out, first.counters);
  add_proc_metrics(out, proc, calls);
  return out;
}

}  // namespace eb
