#include "obs/trace.hpp"

#include <cinttypes>
#include <cstdio>

namespace ew::obs {

const char* span_kind_name(SpanKind k) {
  switch (k) {
    case SpanKind::kCallAttempt: return "call.attempt";
    case SpanKind::kCallRetry: return "call.retry";
    case SpanKind::kCallHedge: return "call.hedge";
    case SpanKind::kBreakerTransition: return "breaker.transition";
    case SpanKind::kGossipSyncRound: return "gossip.sync_round";
    case SpanKind::kGossipPoll: return "gossip.poll";
    case SpanKind::kCliqueTokenPass: return "clique.token_pass";
    case SpanKind::kCliqueElection: return "clique.election";
    case SpanKind::kSchedDispatch: return "sched.dispatch";
    case SpanKind::kSchedMigration: return "sched.migration";
    case SpanKind::kForecastMethodSwitch: return "forecast.method_switch";
    case SpanKind::kCliqueViewChange: return "clique.view_change";
    case SpanKind::kSchedUnitIssued: return "sched.unit_issued";
    case SpanKind::kSchedUnitReclaimed: return "sched.unit_reclaimed";
    case SpanKind::kChaosFault: return "chaos.fault";
    case SpanKind::kGossipDelta: return "gossip.delta";
    case SpanKind::kWishJob: return "wish.job";
    case SpanKind::kWishBarrier: return "wish.barrier";
    case SpanKind::kWishCollective: return "wish.collective";
  }
  return "?";
}

TraceRecorder::TraceRecorder(std::size_t capacity) {
  ring_.reserve(capacity == 0 ? 1 : capacity);
  ring_.resize(0);
  cap_ = capacity == 0 ? 1 : capacity;
}

void TraceRecorder::set_capacity(std::size_t capacity) {
  std::lock_guard lock(mu_);
  cap_ = capacity == 0 ? 1 : capacity;
  ring_.clear();
  ring_.reserve(cap_);
  total_ = 0;
}

std::uint32_t TraceRecorder::intern(std::string_view s) {
  std::lock_guard lock(mu_);
  auto it = tag_ids_.find(std::string(s));
  if (it != tag_ids_.end()) return it->second;
  tag_names_.emplace_back(s);
  const auto id = static_cast<std::uint32_t>(tag_names_.size());  // 1-based
  tag_ids_.emplace(tag_names_.back(), id);
  return id;
}

std::string TraceRecorder::tag_name(std::uint32_t id) const {
  std::lock_guard lock(mu_);
  if (id == 0 || id > tag_names_.size()) return {};
  return tag_names_[id - 1];
}

void TraceRecorder::record(std::int64_t at, SpanKind kind, std::uint32_t tag,
                           std::int64_t a, std::int64_t b) {
  if (!enabled()) return;
  std::lock_guard lock(mu_);
  const SpanEvent ev{at, kind, tag, a, b};
  if (ring_.size() < cap_) {
    ring_.push_back(ev);  // within reserved capacity: no allocation
  } else {
    ring_[total_ % cap_] = ev;  // overwrite the oldest slot
  }
  ++total_;
}

std::uint64_t TraceRecorder::total() const {
  std::lock_guard lock(mu_);
  return total_;
}

std::size_t TraceRecorder::size() const {
  std::lock_guard lock(mu_);
  return ring_.size();
}

std::uint64_t TraceRecorder::dropped() const {
  std::lock_guard lock(mu_);
  return total_ - ring_.size();
}

std::vector<SpanEvent> TraceRecorder::snapshot() const {
  std::lock_guard lock(mu_);
  std::vector<SpanEvent> out;
  out.reserve(ring_.size());
  if (ring_.size() < cap_) {
    out = ring_;
  } else {
    // Ring is full: the oldest event sits at the next overwrite position.
    const std::size_t head = total_ % cap_;
    out.insert(out.end(), ring_.begin() + static_cast<std::ptrdiff_t>(head),
               ring_.end());
    out.insert(out.end(), ring_.begin(),
               ring_.begin() + static_cast<std::ptrdiff_t>(head));
  }
  return out;
}

namespace {
void append_quoted(std::string& out, const std::string& s) {
  out.push_back('"');
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  out.push_back('"');
}
}  // namespace

std::string TraceRecorder::to_json() const {
  const std::vector<SpanEvent> events = snapshot();
  std::uint64_t total;
  {
    std::lock_guard lock(mu_);
    total = total_;
  }
  std::string out;
  out.reserve(96 * events.size() + 64);
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "{\"total\":%" PRIu64 ",\"dropped\":%" PRIu64 ",\"events\":[",
                total, total - events.size());
  out += buf;
  bool first = true;
  for (const SpanEvent& ev : events) {
    if (!first) out.push_back(',');
    first = false;
    std::snprintf(buf, sizeof(buf), "{\"at\":%" PRId64 ",\"kind\":", ev.at);
    out += buf;
    append_quoted(out, span_kind_name(ev.kind));
    out += ",\"tag\":";
    append_quoted(out, tag_name(ev.tag));
    std::snprintf(buf, sizeof(buf), ",\"a\":%" PRId64 ",\"b\":%" PRId64 "}",
                  ev.a, ev.b);
    out += buf;
  }
  out += "]}";
  return out;
}

void TraceRecorder::clear() {
  std::lock_guard lock(mu_);
  ring_.clear();
  ring_.reserve(cap_);
  total_ = 0;
}

void TraceRecorder::reset() {
  std::lock_guard lock(mu_);
  ring_.clear();
  ring_.reserve(cap_);
  total_ = 0;
  tag_names_.clear();
  tag_ids_.clear();
}

TraceRecorder& trace() {
  static TraceRecorder* t = new TraceRecorder();
  return *t;
}

}  // namespace ew::obs
