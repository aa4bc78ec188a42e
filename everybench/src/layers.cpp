#include "layers.hpp"

#include <atomic>

#include "forecast/selector.hpp"
#include "net/packet.hpp"
#include "net/tcp_transport.hpp"
#include "obs/registry.hpp"

namespace eb {

namespace {

std::atomic<std::uint64_t> g_sink{0};

const char* const kCounters[] = {
    ew::obs::names::kNetCallsStarted,
    ew::obs::names::kNetCallsOk,
    ew::obs::names::kNetCallsFailed,
    ew::obs::names::kNetAttempts,
    ew::obs::names::kNetRetries,
    ew::obs::names::kNetHedges,
    ew::obs::names::kNetTimeoutsFired,
    ew::obs::names::kNetDuplicateResponses,
    ew::obs::names::kNetBackpressureRejects,
    ew::obs::names::kForecastMethodSwitches,
    ew::obs::names::kSchedReports,
    ew::obs::names::kSchedBatchReports,
    ew::obs::names::kGossipPolls,
    ew::obs::names::kGossipSyncRounds,
    ew::obs::names::kGossipDeltaBlobs,
    ew::obs::names::kGossipMergeNew,
    ew::obs::names::kGossipMergeFresher,
    ew::obs::names::kGossipMergeStale,
    ew::obs::names::kGossipMergeEqual,
    ew::obs::names::kGossipMergeMerged,
    ew::obs::names::kCliqueTokens,
};

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

void keep(std::uint64_t v) { g_sink.fetch_add(v, std::memory_order_relaxed); }

double frame_encode_ns(const std::vector<RecordedFrame>& frames) {
  if (frames.empty()) return 0;
  return time_per_op_ns([&] {
    for (const RecordedFrame& f : frames) {
      keep(ew::encode_routed_frame(f.packet, f.from, f.to).size());
    }
    return frames.size();
  });
}

double frame_parse_ns(const std::vector<RecordedFrame>& frames) {
  if (frames.empty()) return 0;
  std::vector<ew::Bytes> wire;
  wire.reserve(frames.size());
  for (const RecordedFrame& f : frames) {
    wire.push_back(ew::encode_routed_frame(f.packet, f.from, f.to));
  }
  return time_per_op_ns([&] {
    ew::FrameParser parser;
    std::uint64_t n = 0;
    for (const ew::Bytes& b : wire) {
      parser.feed(b);
      auto v = parser.next_view();
      if (v) {
        keep(v->payload.size());
        ++n;
      }
    }
    return n;
  });
}

double forecast_observe_ns(const std::vector<double>& rtt_us) {
  if (rtt_us.empty()) return 0;
  return time_per_op_ns([&] {
    ew::AdaptiveForecaster f = ew::AdaptiveForecaster::nws_default();
    for (double x : rtt_us) f.observe(x);
    keep(static_cast<std::uint64_t>(f.forecast().value));
    return rtt_us.size();
  });
}

CounterSnapshot CounterSnapshot::take() {
  CounterSnapshot s;
  for (const char* name : kCounters) {
    s.v_[name] = ew::obs::registry().counter(name).value();
  }
  return s;
}

CounterSnapshot CounterSnapshot::minus(const CounterSnapshot& earlier) const {
  CounterSnapshot d;
  for (const auto& [name, v] : v_) d.v_[name] = v - earlier.v_.at(name);
  return d;
}

double CounterSnapshot::operator[](const std::string& name) const {
  auto it = v_.find(name);
  return it == v_.end() ? 0 : static_cast<double>(it->second);
}

void add_registry_metrics(RunResult& out, const CounterSnapshot& d) {
  namespace n = ew::obs::names;
  out.set("net.attempts_per_call", ratio(d[n::kNetAttempts], d[n::kNetCallsStarted]),
          "1/call");
  out.set("net.useful_share", ratio(d[n::kNetCallsOk], d[n::kNetAttempts]), "ratio");
  out.set("net.timeouts_fired", d[n::kNetTimeoutsFired], "count");
  out.set("net.retries", d[n::kNetRetries], "count");
  out.set("net.hedges", d[n::kNetHedges], "count");
  out.set("net.duplicate_responses", d[n::kNetDuplicateResponses], "count");
  out.set("net.backpressure_rejects", d[n::kNetBackpressureRejects], "count");
  out.set("net.calls.failed", d[n::kNetCallsFailed], "count");
  out.set("forecast.method_switches", d[n::kForecastMethodSwitches], "count");
  out.set("sched.reports", d[n::kSchedReports], "count");
  out.set("sched.batch_reports", d[n::kSchedBatchReports], "count");
  out.set("sched.outstanding_units",
          ew::obs::registry().gauge(n::kSchedOutstandingUnits).value(), "count");
  out.set("gossip.polls", d[n::kGossipPolls], "count");
  out.set("gossip.sync_rounds", d[n::kGossipSyncRounds], "count");
  out.set("gossip.delta_blobs", d[n::kGossipDeltaBlobs], "count");
  const double merges = d[n::kGossipMergeNew] + d[n::kGossipMergeFresher] +
                        d[n::kGossipMergeStale] + d[n::kGossipMergeEqual] +
                        d[n::kGossipMergeMerged];
  out.set("gossip.merge.equal_share", ratio(d[n::kGossipMergeEqual], merges), "ratio");
  out.set("clique.tokens", d[n::kCliqueTokens], "count");
}

void add_span_metrics(RunResult& out, const SpanBuffer& spans,
                      std::uint64_t calls, double window_s) {
  const auto c = static_cast<double>(calls);
  auto self_us = [&](SpanName n) {
    return ratio(static_cast<double>(spans.aggregate(n).self_ns) / 1e3, c);
  };
  auto op_ns = [&](SpanName n) {
    const auto& a = spans.aggregate(n);
    return ratio(static_cast<double>(a.total_ns), static_cast<double>(a.count));
  };
  out.set("net.reactor.poll_us", self_us(SpanName::kRunFor), "us");
  out.set("net.node.deliver_us", self_us(SpanName::kDeliver), "us");
  out.set("net.tcp_transport.send_us", self_us(SpanName::kSend), "us");
  out.set("net.reactor.timer_schedule_ns", op_ns(SpanName::kTimerSchedule), "ns");
  out.set("net.reactor.timer_cancel_ns", op_ns(SpanName::kTimerCancel), "ns");
  out.set("net.reactor.timer_fire_us", self_us(SpanName::kTimerFire), "us");
  out.set("core.scheduler.handle_us", self_us(SpanName::kSchedDeliver), "us");
  out.set("bench.app_us", self_us(SpanName::kBenchApp), "us");
  double sum_us = 0;
  for (std::size_t i = 0; i < static_cast<std::size_t>(SpanName::kCount); ++i) {
    sum_us += self_us(static_cast<SpanName>(i));
  }
  const double wall_us = ratio(window_s * 1e6, c);
  out.set("trace.self_sum_us_per_call", sum_us, "us");
  out.set("trace.wall_us_per_call", wall_us, "us");
  out.set("trace.coverage", ratio(sum_us, wall_us), "ratio");
  out.set("trace.spans", static_cast<double>(spans.recorded()), "count");
}

void add_proc_metrics(RunResult& out, const ProcWindow& w, std::uint64_t calls) {
  out.set("proc.sys_share", w.sys_share(), "ratio");
  out.set("proc.ctx_switches_per_call",
          ratio(static_cast<double>(w.ctx_switches), static_cast<double>(calls)),
          "1/call");
}

}  // namespace eb
