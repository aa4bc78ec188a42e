#include "loopback.hpp"

#include <cstdio>

#include "net/tcp.hpp"

namespace eb {

LoopbackRig::LoopbackRig(std::size_t clients, bool traced, SpanName server_deliver,
                         std::size_t record_limit)
    : server_deliver_(server_deliver),
      record_limit_(record_limit),
      reactor_(ew::ReactorBackend::kEpoll),
      n_clients_(clients) {
  if (traced) {
    spans_ = std::make_unique<SpanBuffer>();
    exec_ = std::make_unique<TracingExecutor>(reactor_, *spans_);
  }
}

LoopbackRig::Member LoopbackRig::make_member(std::uint16_t port, SpanName deliver,
                                             std::uint32_t id) {
  Member m;
  m.tcp = std::make_unique<ew::TcpTransport>(reactor_);
  ew::Transport* transport = m.tcp.get();
  ew::Executor* exec = &reactor_;
  if (spans_) {
    m.traced = std::make_unique<TracingTransport>(*m.tcp, *spans_, deliver, id,
                                                  record_limit_);
    transport = m.traced.get();
    exec = exec_.get();
  }
  m.node = std::make_unique<ew::Node>(*exec, *transport,
                                      ew::Endpoint{"127.0.0.1", port});
  return m;
}

bool LoopbackRig::start() {
  // Reserve one distinct port per Node by holding OS-assigned listeners
  // open together, then releasing them just before the real binds.
  std::vector<std::uint16_t> ports;
  {
    std::vector<ew::Fd> held;
    for (std::size_t i = 0; i <= n_clients_; ++i) {
      auto l = ew::tcp_listen(0);
      if (!l) {
        std::fprintf(stderr, "everybench: listen: %s\n",
                     l.error().to_string().c_str());
        return false;
      }
      ports.push_back(*ew::local_port(*l));
      held.push_back(std::move(*l));
    }
  }
  server_ = make_member(ports[0], server_deliver_, 0);
  if (ew::Status s = server_.node->start(); !s.ok()) {
    std::fprintf(stderr, "everybench: server start: %s\n", s.to_string().c_str());
    return false;
  }
  for (std::size_t i = 0; i < n_clients_; ++i) {
    clients_.push_back(make_member(ports[i + 1], SpanName::kDeliver,
                                   static_cast<std::uint32_t>(i + 1)));
    ew::Node& node = *clients_.back().node;
    if (ew::Status s = node.start(); !s.ok()) {
      std::fprintf(stderr, "everybench: client start: %s\n", s.to_string().c_str());
      return false;
    }
    if (spans_) {
      node.set_rtt_observer([this](const ew::Endpoint&, ew::MsgType, ew::Duration d, bool ok) {
        if (ok && spans_->enabled() && rtt_us_.size() < 1'000'000) {
          rtt_us_.push_back(static_cast<double>(d));
        }
      });
    }
  }
  return true;
}

void LoopbackRig::run_for(ew::Duration d) {
  SpanScope s(spans_.get(), SpanName::kRunFor);
  reactor_.run_for(d);
}

std::vector<RecordedFrame> LoopbackRig::request_frames() const {
  std::vector<RecordedFrame> out;
  for (const Member& m : clients_) {
    if (!m.traced) continue;
    for (const RecordedFrame& f : m.traced->recorded()) {
      if (f.packet.kind == ew::PacketKind::kRequest) out.push_back(f);
    }
  }
  return out;
}

std::uint64_t LoopbackRig::sends() const {
  std::uint64_t n = server_.traced ? server_.traced->sends() : 0;
  for (const Member& m : clients_) n += m.traced ? m.traced->sends() : 0;
  return n;
}

void report(RunResult& out, const char* workload, LoopbackRig& rig, LoopbackWindow& w,
            double calls_per_round, const std::vector<double>& setups, const RunArgs& args) {
  SlicedWindow& s = w.slices;
  const double calls_per_s = s.rate();
  const double p50 = s.latency_ns(0.50) / 1e3;
  const double p99 = s.latency_ns(0.99) / 1e3;
  const double cpu_us = s.cpu_us_per_op();
  std::printf("%s: %llu calls in %.3f s, %llu latency samples, %zu slices of calls/s "
              "min %.1f, best %.1f\n",
              workload, static_cast<unsigned long long>(w.calls), w.seconds,
              static_cast<unsigned long long>(s.samples()), s.rates().size(),
              min_of(s.rates()), calls_per_s);
  out.check(w.calls > 0, std::string(workload) + ": no calls completed in the window");

  SpanBuffer* spans = rig.spans();
  if (spans == nullptr) {
    out.set("calls_per_s", calls_per_s, "1/s");
    out.set("call_p50_us", p50, "us");
    out.set("call_p99_us", p99, "us");
    out.set("cpu_us_per_call", cpu_us, "us");
    out.set("run_s", calls_per_round / calls_per_s, "s");
    out.set("setup_s", median(setups), "s");
    out.set("rss_mb", w.proc.max_rss_mb, "MB");
    return;
  }

  const auto calls = static_cast<double>(w.calls);
  out.set("trace.calls_per_s", calls_per_s, "1/s");
  out.set("trace.call_p50_us", p50, "us");
  out.set("trace.call_p99_us", p99, "us");
  out.set("trace.cpu_us_per_call", cpu_us, "us");
  out.set("call.samples", static_cast<double>(s.samples()), "count");
  add_span_metrics(out, *spans, w.calls, w.seconds);
  out.set("net.tcp_transport.sends_per_call", static_cast<double>(rig.sends()) / calls, "1/call");
  out.set("net.reactor.timers_per_call", static_cast<double>(rig.timer_schedules()) / calls,
          "1/call");
  out.set("net.reactor.timer_cancels_per_call", static_cast<double>(rig.timer_cancels()) / calls,
          "1/call");
  const std::vector<RecordedFrame> frames = rig.request_frames();
  out.set("net.packet.encode_ns", frame_encode_ns(frames), "ns");
  out.set("net.packet.parse_ns", frame_parse_ns(frames), "ns");
  out.set("forecast.observe_ns", forecast_observe_ns(rig.rtt_us()), "ns");
  add_registry_metrics(out, w.counters);
  add_proc_metrics(out, w.proc, w.calls);
  if (!args.span_out.empty() && !spans->write(args.span_out)) {
    std::fprintf(stderr, "everybench: cannot write %s\n", args.span_out.c_str());
  }
}

}  // namespace eb
