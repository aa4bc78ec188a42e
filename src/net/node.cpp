#include "net/node.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/log.hpp"
#include "common/serialize.hpp"
#include "obs/trace.hpp"

namespace ew {

namespace {
// Orphaned-seq memory: enough to cover every plausible in-flight duplicate,
// small enough that a degenerate run cannot bloat the node.
constexpr std::size_t kCancelledSeqCap = 4096;

// Spans join against forecast streams through the same dynamic-benchmarking
// event tag the timeout discovery uses. Called only when tracing is on, so
// the tag string is built (and interned) only then.
std::uint32_t call_trace_tag(const EventTag& tag) {
  return obs::trace().intern(tag.to_string());
}
}  // namespace

void Responder::fail(Err code, const std::string& message) const {
  Writer w;
  w.str(message);
  emit(err_to_wire(code), w.take());
}

void Responder::emit(std::uint8_t code, const Bytes& payload) const {
  if (!reply_ || reply_->sent) return;
  reply_->sent = true;
  reply_->node->send_reply(*reply_, code, payload);
}

Node::Node(Executor& exec, Transport& transport, Endpoint self)
    : exec_(exec), transport_(transport), self_(std::move(self)) {}

Node::~Node() { stop(); }

Status Node::start() {
  if (started_) return Status(Err::kRejected, "node already started");
  Status s = transport_.bind(self_, [this](IncomingMessage msg) {
    on_packet(std::move(msg));
  });
  started_ = s.ok();
  return s;
}

void Node::stop() {
  if (!started_) return;
  transport_.unbind(self_);
  started_ = false;
  // Abandon outstanding calls WITHOUT invoking their callbacks: stop() is
  // routinely called during teardown, after the objects owning those
  // callbacks are gone. Components that need completion guarantees keep
  // their own liveness flags.
  for (auto& [seq, a] : pending_) exec_.cancel(a.timer);
  for (auto& [id, c] : calls_) {
    exec_.cancel(c.deadline_timer);
    exec_.cancel(c.retry_timer);
    exec_.cancel(c.hedge_timer);
  }
  pending_.clear();
  calls_.clear();
  late_.clear();
  cancelled_.clear();
  cancelled_order_.clear();
}

void Node::crash() {
  if (!started_) return;
  transport_.unbind(self_);
  started_ = false;
  fail_outstanding(Err::kPeerDown);
}

void Node::fail_outstanding(Err code) {
  // complete_call erases from calls_ (and may enqueue follow-up work via
  // the callbacks); snapshot the ids and walk them in a deterministic
  // order so chaos replays are bit-identical.
  std::vector<std::uint64_t> ids;
  ids.reserve(calls_.size());
  for (const auto& [id, c] : calls_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  for (std::uint64_t id : ids) {
    complete_call(id, Error{code, "process crashed"});
  }
}

void Node::handle(MsgType type, ServerHandler handler) {
  handlers_[type] = std::move(handler);
}

void Node::call(const Endpoint& to, MsgType type, Bytes payload,
                CallOptions opts, CallCallback cb) {
  const std::uint64_t id = next_call_id_++;
  const TimePoint now = exec_.now();
  policy_.stats().record_call_start();

  CallState c;
  c.cb = std::move(cb);
  c.to = to;
  c.type = type;
  c.tag = EventTag::of(to, type);
  c.opts = std::move(opts);
  c.started = now;
  // The payload is copied only when a second attempt is possible; the
  // common single-attempt call moves it straight into the packet.
  const bool may_resend =
      c.opts.retry.max_attempts > 1 || c.opts.hedge.enabled;
  if (may_resend) c.payload = payload;
  if (c.opts.deadline > 0) {
    c.deadline_at = now + c.opts.deadline;
    c.deadline_timer = exec_.schedule(c.opts.deadline, [this, id] {
      complete_call(id, Error{Err::kTimeout, "call deadline exceeded"});
    });
  }
  calls_.emplace(id, std::move(c));

  start_attempt(id, std::move(payload), /*is_hedge=*/false);
  // The first attempt may already have completed the call (synchronous send
  // failure with no retry budget); maybe_schedule_hedge no-ops then.
  maybe_schedule_hedge(id);
}

Status Node::send_oneway(const Endpoint& to, MsgType type, Bytes payload) {
  Packet pkt;
  pkt.kind = PacketKind::kOneWay;
  pkt.type = type;
  pkt.seq = 0;
  pkt.payload = std::move(payload);
  return transport_.send(self_, to, std::move(pkt));
}

void Node::start_attempt(std::uint64_t call_id, Bytes payload, bool is_hedge) {
  auto cit = calls_.find(call_id);
  if (cit == calls_.end()) return;
  CallState& c = cit->second;
  const TimePoint now = exec_.now();

  // The breaker may have opened since the call was admitted (or since the
  // last attempt); shed rather than hammer a host known to be down. A shed
  // hedge/duplicate must not abort the call while an earlier attempt is
  // still in flight — that attempt may be the breaker's half-open probe,
  // and killing the call here would drop its response on the floor and
  // leak the probe slot (latching the breaker half-open forever).
  if (!policy_.admit(c.to, now)) {
    policy_.stats().record_short_circuit();
    if (c.in_flight == 0) {
      complete_call(call_id,
                    Error{Err::kUnavailable, "circuit open to " + c.to.to_string()});
    }
    return;
  }

  Duration timeout = policy_.attempt_timeout(c.tag, c.opts);
  if (c.deadline_at > 0) {
    if (c.deadline_at <= now) {
      complete_call(call_id, Error{Err::kTimeout, "call deadline exceeded"});
      return;
    }
    timeout = std::min(timeout, c.deadline_at - now);
  }

  const std::uint64_t seq = next_seq_++;
  if (is_hedge) {
    c.hedge_sent = true;
  } else {
    ++c.attempts_started;
    if (c.attempts_started == 1) c.first_attempt_timeout = timeout;
  }
  ++c.in_flight;
  c.seqs.push_back(seq);
  policy_.stats().record_attempt(!is_hedge && c.attempts_started > 1, is_hedge);
  if (obs::trace().enabled()) {
    obs::trace().record(now, obs::SpanKind::kCallAttempt, call_trace_tag(c.tag),
                        c.attempts_started, is_hedge ? 1 : 0);
  }

  Attempt a;
  a.call_id = call_id;
  a.sent = now;
  a.timeout = timeout;
  a.is_hedge = is_hedge;
  a.timer = exec_.schedule(timeout, [this, seq] { on_attempt_timeout(seq); });
  pending_.emplace(seq, a);

  Packet pkt;
  pkt.kind = PacketKind::kRequest;
  pkt.type = c.type;
  pkt.seq = seq;
  pkt.payload = std::move(payload);
  Status s = transport_.send(self_, c.to, std::move(pkt));
  if (!s.ok()) {
    // Synchronous refusal: the attempt never left this host.
    auto pit = pending_.find(seq);
    exec_.cancel(pit->second.timer);
    pending_.erase(pit);
    --c.in_flight;
    // Backpressure (kOverloaded) is a verdict on OUR outbox, not on the
    // server: feeding it to the breaker/forecaster would open circuits and
    // shrink time-outs for a peer that did nothing wrong. Other synchronous
    // failures are genuine destination trouble and are recorded.
    if (s.code() != Err::kOverloaded) {
      policy_.on_attempt_result(c.tag, c.to, now, /*sent=*/now, 0,
                                /*ok=*/false);
      if (observer_) observer_(c.to, c.type, 0, /*success=*/false);
    }
    on_attempt_failed(call_id, s.error());
  }
}

void Node::maybe_schedule_hedge(std::uint64_t call_id) {
  auto cit = calls_.find(call_id);
  if (cit == calls_.end()) return;
  CallState& c = cit->second;
  if (!c.opts.hedge.enabled) return;
  const Duration delay = policy_.hedge_delay(c.tag, c.opts.hedge);
  // No RTT history, or the tail quantile is so close to the time-out that a
  // retry would fire anyway: don't pay for a duplicate.
  if (delay <= 0 || delay >= c.first_attempt_timeout) return;
  if (obs::trace().enabled()) {
    obs::trace().record(exec_.now(), obs::SpanKind::kCallHedge,
                        call_trace_tag(c.tag), delay);
  }
  c.hedge_timer = exec_.schedule(delay, [this, call_id] {
    auto it = calls_.find(call_id);
    if (it == calls_.end()) return;
    CallState& call = it->second;
    call.hedge_timer = kInvalidTimer;
    // Hedge only while the first attempt is still out there; if it already
    // failed we are in retry territory, which has its own schedule.
    if (call.hedge_sent || call.in_flight < 1) return;
    start_attempt(call_id, call.payload, /*is_hedge=*/true);
  });
}

void Node::on_attempt_timeout(std::uint64_t seq) {
  auto it = pending_.find(seq);
  if (it == pending_.end()) return;
  const Attempt a = it->second;
  pending_.erase(it);
  auto cit = calls_.find(a.call_id);
  if (cit == calls_.end()) return;
  CallState& c = cit->second;
  --c.in_flight;
  policy_.stats().record_timeout(a.timeout);
  policy_.on_attempt_result(c.tag, c.to, exec_.now(), a.sent, a.timeout,
                            /*ok=*/false);
  if (observer_) observer_(c.to, c.type, a.timeout, /*success=*/false);
  // The server may still answer; if the call is then still undecided, that
  // late response completes it (see on_response).
  late_.emplace(seq, LateAttempt{a.call_id, a.sent});
  on_attempt_failed(a.call_id, Error{Err::kTimeout, "request timed out"});
}

void Node::on_attempt_failed(std::uint64_t call_id, Error err) {
  auto cit = calls_.find(call_id);
  if (cit == calls_.end()) return;
  CallState& c = cit->second;
  // A sibling attempt (the hedge or the primary) is still in flight; let it
  // run — it may yet win.
  if (c.in_flight > 0) return;
  if (err_retryable(err.code) && schedule_retry(call_id)) return;
  if (!c.opts.trace_tag.empty()) {
    EW_DEBUG << "call '" << c.opts.trace_tag << "' to " << c.to.to_string()
             << " failed after " << c.attempts_started
             << " attempt(s): " << err.to_string();
  }
  complete_call(call_id, std::move(err));
}

bool Node::schedule_retry(std::uint64_t call_id) {
  auto cit = calls_.find(call_id);
  if (cit == calls_.end()) return false;
  CallState& c = cit->second;
  if (c.attempts_started >= c.opts.retry.max_attempts) return false;
  const TimePoint now = exec_.now();
  const Duration backoff = c.opts.retry.backoff(c.attempts_started, call_id);
  // A retry that cannot start before the deadline is pointless; fail now
  // with the attempt's error instead of burning the remaining budget.
  if (c.deadline_at > 0 && now + backoff >= c.deadline_at) return false;
  if (obs::trace().enabled()) {
    obs::trace().record(now, obs::SpanKind::kCallRetry, call_trace_tag(c.tag),
                        c.attempts_started + 1, backoff);
  }
  c.retry_timer = exec_.schedule(backoff, [this, call_id] {
    auto it = calls_.find(call_id);
    if (it == calls_.end()) return;
    it->second.retry_timer = kInvalidTimer;
    if (it->second.in_flight > 0) return;  // a late response revived the race
    start_attempt(call_id, it->second.payload, /*is_hedge=*/false);
  });
  return true;
}

void Node::on_packet(IncomingMessage msg) {
  if (msg.packet.kind == PacketKind::kResponse) {
    on_response(std::move(msg.packet));
    return;
  }
  auto it = handlers_.find(msg.packet.type);
  Responder responder;
  if (msg.packet.kind == PacketKind::kRequest) {
    responder = Responder(std::make_shared<Responder::Reply>(Responder::Reply{
        this, msg.from, msg.packet.seq, msg.packet.type, false}));
  }
  if (it == handlers_.end()) {
    responder.fail(Err::kRejected, "no handler for type " + std::to_string(msg.packet.type));
    return;
  }
  it->second(msg, responder);
}

void Node::send_reply(const Responder::Reply& reply, std::uint8_t code,
                      const Bytes& body) {
  Packet packet;
  packet.kind = PacketKind::kResponse;
  packet.type = reply.type;
  packet.seq = reply.seq;
  Writer w(1 + body.size());
  w.u8(code);
  w.raw(body);
  packet.payload = w.take();
  Status s = transport_.send(self_, reply.to, std::move(packet));
  if (!s.ok()) {
    EW_DEBUG << "reply to " << reply.to.to_string() << " failed: " << s.to_string();
  }
}

void Node::on_response(Packet response) {
  const std::uint64_t seq = response.seq;
  const TimePoint now = exec_.now();

  if (auto it = pending_.find(seq); it != pending_.end()) {
    const Attempt a = it->second;
    exec_.cancel(a.timer);
    pending_.erase(it);
    auto cit = calls_.find(a.call_id);
    if (cit == calls_.end()) return;
    CallState& c = cit->second;
    --c.in_flight;
    const Duration rtt = now - a.sent;
    policy_.on_attempt_result(c.tag, c.to, now, a.sent, rtt, /*ok=*/true);
    if (observer_) observer_(c.to, c.type, rtt, /*success=*/true);
    if (c.hedge_sent) policy_.stats().record_hedge_result(a.is_hedge);
    deliver_response(a.call_id, std::move(response.payload));
    return;
  }

  if (auto lt = late_.find(seq); lt != late_.end()) {
    const LateAttempt la = lt->second;
    late_.erase(lt);
    // The attempt's timer fired but the server was alive — the exact
    // misjudgment the paper blames static time-outs for ("needless retries
    // and dynamic reconfigurations", Section 2.2). The call is still
    // undecided (late_ entries die with their call), so the response
    // completes it rather than going to waste.
    auto cit = calls_.find(la.call_id);
    if (cit == calls_.end()) return;
    CallState& c = cit->second;
    policy_.stats().record_late_response(/*rescued=*/true);
    policy_.on_attempt_result(c.tag, c.to, now, la.sent, now - la.sent,
                              /*ok=*/true);
    deliver_response(la.call_id, std::move(response.payload));
    return;
  }

  if (cancelled_.erase(seq) > 0) {
    // A hedge loser or superseded retry answering after its call already
    // completed: expected duplicate, dropped — never a second delivery.
    policy_.stats().record_duplicate_response();
    return;
  }

  // Response for a call that already finished (by error or abandoned at
  // stop): the classic spurious time-out with nothing left to rescue.
  policy_.stats().record_late_response(/*rescued=*/false);
}

void Node::deliver_response(std::uint64_t call_id, Bytes payload) {
  auto cit = calls_.find(call_id);
  if (cit == calls_.end()) return;
  CallState& c = cit->second;

  // Unwrap the status byte.
  Reader r(payload);
  std::uint8_t code = 0;
  if (!r.get_le(code)) {
    complete_call(call_id, Error{Err::kProtocol, "response missing status byte"});
    return;
  }
  if (code == 0) {
    payload.erase(payload.begin());  // the body stays in the payload's buffer
    complete_call(call_id, std::move(payload));
    return;
  }
  auto message = r.str();
  Error e{err_from_wire(code), message ? *message : std::string{}};
  // An application-level verdict rode a working round trip; resending the
  // same request usually repeats the answer, so only callers that opted in
  // (retry_rejected) burn retry budget on it.
  if (c.opts.retry.retry_rejected && c.in_flight == 0 &&
      schedule_retry(call_id)) {
    return;
  }
  complete_call(call_id, std::move(e));
}

void Node::complete_call(std::uint64_t call_id, Result<Bytes> result) {
  auto cit = calls_.find(call_id);
  if (cit == calls_.end()) return;
  CallState c = std::move(cit->second);
  calls_.erase(cit);
  exec_.cancel(c.deadline_timer);
  exec_.cancel(c.retry_timer);
  exec_.cancel(c.hedge_timer);
  for (std::uint64_t seq : c.seqs) {
    if (auto it = pending_.find(seq); it != pending_.end()) {
      // Still-in-flight loser (the cancelled hedge or superseded attempt);
      // its eventual response is an expected duplicate. Its outcome will
      // never reach the policy, so hand back any half-open probe slot the
      // attempt may hold — otherwise the breaker stays latched half-open.
      exec_.cancel(it->second.timer);
      pending_.erase(it);
      remember_cancelled(seq);
      policy_.on_attempt_abandoned(c.to);
    }
    // Dead late_ entries: a response now is just a plain late response.
    late_.erase(seq);
  }
  policy_.stats().record_call_end(result.ok(), exec_.now() - c.started);
  if (c.cb) c.cb(std::move(result));
}

void Node::remember_cancelled(std::uint64_t seq) {
  if (cancelled_.insert(seq).second) {
    cancelled_order_.push_back(seq);
    if (cancelled_order_.size() > kCancelledSeqCap) {
      cancelled_.erase(cancelled_order_.front());
      cancelled_order_.pop_front();
    }
  }
}

}  // namespace ew
