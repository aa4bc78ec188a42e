#include "trace.hpp"

#include <cstdio>

namespace eb {

const char* span_name(SpanName n) {
  switch (n) {
    case SpanName::kRunFor: return "reactor.run_for";
    case SpanName::kDeliver: return "node.deliver";
    case SpanName::kSchedDeliver: return "scheduler.deliver";
    case SpanName::kSend: return "transport.send";
    case SpanName::kTimerSchedule: return "timer.schedule";
    case SpanName::kTimerCancel: return "timer.cancel";
    case SpanName::kTimerFire: return "timer.fire";
    case SpanName::kBenchApp: return "bench.app";
    case SpanName::kCount: break;
  }
  return "?";
}

SpanBuffer::SpanBuffer(std::size_t retain) : retain_(retain) {
  retained_.reserve(retain_);
  stack_.reserve(16);
}

void SpanBuffer::begin(SpanName name, std::uint32_t node, std::uint64_t seq) {
  const std::uint64_t parent = stack_.empty() ? 0 : stack_.back().id;
  stack_.push_back(Open{next_id_++, parent, now_ns(), 0, name, node, seq});
}

void SpanBuffer::end() {
  const std::int64_t end_ns = now_ns();
  const Open o = stack_.back();
  stack_.pop_back();
  const std::int64_t dur = end_ns - o.start_ns;
  Aggregate& a = agg_[static_cast<std::size_t>(o.name)];
  ++a.count;
  a.total_ns += dur;
  a.self_ns += dur - o.child_ns;
  if (!stack_.empty()) stack_.back().child_ns += dur;
  if (retained_.size() < retain_) {
    retained_.push_back(Span{o.id, o.parent, o.start_ns, end_ns, o.name, o.node, o.seq});
  }
}

bool SpanBuffer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id\tparent\tname\tnode\tseq\tstart_ns\tend_ns\n");
  for (const Span& s : retained_) {
    std::fprintf(f, "%llu\t%llu\t%s\t%u\t%llu\t%lld\t%lld\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), span_name(s.name),
                 s.node, static_cast<unsigned long long>(s.seq),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

TracingTransport::TracingTransport(ew::Transport& inner, SpanBuffer& spans,
                                   SpanName deliver, std::uint32_t node,
                                   std::size_t record_limit)
    : inner_(inner),
      spans_(spans),
      deliver_(deliver),
      node_(node),
      record_limit_(record_limit) {}

ew::Status TracingTransport::bind(const ew::Endpoint& self,
                                  ew::PacketHandler handler) {
  return inner_.bind(self, [this, h = std::move(handler)](ew::IncomingMessage m) {
    SpanScope s(&spans_, deliver_, node_, m.packet.seq);
    h(std::move(m));
  });
}

ew::Status TracingTransport::send(const ew::Endpoint& from,
                                  const ew::Endpoint& to, ew::Packet packet) {
  if (spans_.enabled()) {
    ++sends_;
    std::size_t& n = packet.kind == ew::PacketKind::kResponse
                         ? recorded_responses_
                         : recorded_requests_;
    if (n < record_limit_) {
      ++n;
      recorded_.push_back(RecordedFrame{from, to, packet});
    }
  }
  SpanScope s(&spans_, SpanName::kSend, node_, packet.seq);
  return inner_.send(from, to, std::move(packet));
}

std::function<void()> TracingExecutor::wrap(std::function<void()> fn) {
  return [this, fn = std::move(fn)] {
    SpanScope s(&spans_, SpanName::kTimerFire);
    fn();
  };
}

void TracingExecutor::post(std::function<void()> fn) {
  inner_.post(wrap(std::move(fn)));
}

ew::TimerId TracingExecutor::schedule(ew::Duration delay,
                                      std::function<void()> fn) {
  // Build the wrapper before the span opens so the span times only the
  // executor's own work.
  std::function<void()> wrapped = wrap(std::move(fn));
  if (spans_.enabled()) ++schedules_;
  SpanScope s(&spans_, SpanName::kTimerSchedule);
  return inner_.schedule(delay, std::move(wrapped));
}

void TracingExecutor::cancel(ew::TimerId id) {
  if (spans_.enabled()) ++cancels_;
  SpanScope s(&spans_, SpanName::kTimerCancel);
  inner_.cancel(id);
}

}  // namespace eb
