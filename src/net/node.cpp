#include "net/node.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/log.hpp"
#include "common/serialize.hpp"
#include "obs/trace.hpp"

namespace ew {

namespace {
// The seq ring's floor, a power of two. Over sc98 seeds 1-3 no Node had
// more than 13 attempts live or its live seqs spanning more than 31, and
// every answered orphan was answered within 15 newer seqs (DESIGN.md §7).
constexpr std::size_t kRingFloor = 16;

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
    : exec_(exec), transport_(transport), self_(std::move(self)),
      ring_(kRingFloor) {}

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
  for (const Attempt& a : ring_) exec_.cancel(a.timer);  // no-op once fired
  ring_.assign(ring_.size(), Attempt{});
  for (std::uint32_t slot = 0; slot < arena_.size(); ++slot) {
    if (arena_[slot].id != 0) close_call(slot);
  }
}

void Node::crash() {
  if (!started_) return;
  transport_.unbind(self_);
  started_ = false;
  fail_outstanding(Err::kPeerDown);
}

void Node::fail_outstanding(Err code) {
  // complete_call frees slots (and its callbacks may start new calls);
  // snapshot the live calls and walk them in call-id order so chaos
  // replays are bit-identical.
  std::vector<CallRef> live;
  for (std::uint32_t slot = 0; slot < arena_.size(); ++slot) {
    if (arena_[slot].id != 0) live.push_back(CallRef{slot, arena_[slot].gen});
  }
  std::sort(live.begin(), live.end(), [this](CallRef a, CallRef b) {
    return arena_[a.slot].id < arena_[b.slot].id;
  });
  for (CallRef ref : live) complete_call(ref, Error{code, "process crashed"});
}

void Node::handle(MsgType type, ServerHandler handler) {
  handlers_[type] = std::move(handler);
}

void Node::call(const Endpoint& to, MsgType type, Bytes payload,
                CallOptions opts, CallCallback cb) {
  const TimePoint now = exec_.now();
  policy_.stats().record_call_start();

  if (free_slot_ == kNoSlot) {
    free_slot_ = static_cast<std::uint32_t>(arena_.size());
    arena_.emplace_back();
  }
  const CallRef ref{free_slot_, arena_[free_slot_].gen};
  CallState& c = arena_[ref.slot];
  free_slot_ = c.next_free;
  c.id = next_call_id_++;
  c.cb = std::move(cb);
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
    c.deadline_timer = exec_.schedule(c.opts.deadline, [this, ref] {
      complete_call(ref, Error{Err::kTimeout, "call deadline exceeded"});
    });
  }

  const Duration first_timeout =
      start_attempt(ref, std::move(payload), /*is_hedge=*/false);
  // The first attempt may already have completed the call (synchronous send
  // failure with no retry budget); there is nothing to hedge then.
  CallState* live = find_call(ref);
  if (live == nullptr || !live->opts.hedge.enabled) return;
  const Duration delay = policy_.hedge_delay(live->tag, live->opts.hedge);
  // No RTT history, or the tail quantile is so close to the time-out that a
  // retry would fire anyway: don't pay for a duplicate.
  if (delay <= 0 || delay >= first_timeout) return;
  if (obs::trace().enabled()) {
    obs::trace().record(now, obs::SpanKind::kCallHedge,
                        call_trace_tag(live->tag), delay);
  }
  live->hedge_timer = exec_.schedule(delay, [this, ref] {
    CallState* c = find_call(ref);
    if (c == nullptr) return;
    c->hedge_timer = kInvalidTimer;
    // Hedge only while the first attempt is still out there; if it already
    // failed we are in retry territory, which has its own schedule.
    if (c->hedge_sent || c->in_flight < 1) return;
    start_attempt(ref, c->payload, /*is_hedge=*/true);
  });
}

Status Node::send_oneway(const Endpoint& to, MsgType type, Bytes payload) {
  Packet pkt;
  pkt.kind = PacketKind::kOneWay;
  pkt.type = type;
  pkt.seq = 0;
  pkt.payload = std::move(payload);
  return transport_.send(self_, to, std::move(pkt));
}

Duration Node::start_attempt(CallRef ref, Bytes payload, bool is_hedge) {
  CallState* c = find_call(ref);
  if (c == nullptr) return 0;
  const TimePoint now = exec_.now();

  // The breaker may have opened since the call was admitted (or since the
  // last attempt); shed rather than hammer a host known to be down. A shed
  // hedge/duplicate must not abort the call while an earlier attempt is
  // still in flight — that attempt may be the breaker's half-open probe,
  // and killing the call here would drop its response on the floor and
  // leak the probe slot (latching the breaker half-open forever).
  if (!policy_.admit(c->tag.server, now)) {
    policy_.stats().record_short_circuit();
    if (c->in_flight == 0) {
      complete_call(ref,
                    Error{Err::kUnavailable,
                          "circuit open to " + c->tag.server.to_string()});
    }
    return 0;
  }

  Duration timeout = policy_.attempt_timeout(c->tag, c->opts);
  if (c->deadline_at > 0) {
    if (c->deadline_at <= now) {
      complete_call(ref, Error{Err::kTimeout, "call deadline exceeded"});
      return 0;
    }
    timeout = std::min(timeout, c->deadline_at - now);
  }

  const std::uint64_t seq = next_seq_++;
  if (is_hedge) {
    c->hedge_sent = true;
  } else {
    ++c->attempts_started;
  }
  ++c->in_flight;
  policy_.stats().record_attempt(!is_hedge && c->attempts_started > 1, is_hedge);
  if (obs::trace().enabled()) {
    obs::trace().record(now, obs::SpanKind::kCallAttempt, call_trace_tag(c->tag),
                        c->attempts_started, is_hedge ? 1 : 0);
  }

  // Free entries and orphans are overwritten (a response to a forgotten
  // orphan is unknown); a pending or late entry in the way doubles the ring.
  // Seqs distinct mod n stay distinct mod 2n, so re-placing collides with
  // nothing.
  while (entry(seq).state == Attempt::State::kPending ||
         entry(seq).state == Attempt::State::kLate) {
    std::vector<Attempt> old(ring_.size() * 2);
    old.swap(ring_);
    for (const Attempt& e : old) {
      if (e.state != Attempt::State::kFree) entry(e.seq) = e;
    }
  }
  Attempt& a = entry(seq);
  a = Attempt{seq, c->last_seq, ref, kInvalidTimer, now, timeout,
              Attempt::State::kPending, is_hedge};
  a.timer = exec_.schedule(timeout, [this, seq] { on_attempt_timeout(seq); });
  c->last_seq = seq;

  Packet pkt;
  pkt.kind = PacketKind::kRequest;
  pkt.type = c->tag.type;
  pkt.seq = seq;
  pkt.payload = std::move(payload);
  Status s = transport_.send(self_, c->tag.server, std::move(pkt));
  if (!s.ok()) {
    // Synchronous refusal: the attempt never left this host.
    Attempt& dead = entry(seq);
    exec_.cancel(dead.timer);
    c->last_seq = dead.prev;
    dead.state = Attempt::State::kFree;
    --c->in_flight;
    // Backpressure (kOverloaded) is a verdict on OUR outbox, not on the
    // server: feeding it to the breaker/forecaster would open circuits and
    // shrink time-outs for a peer that did nothing wrong. Other synchronous
    // failures are genuine destination trouble and are recorded.
    if (s.code() != Err::kOverloaded) {
      policy_.on_attempt_result(c->tag, now, /*sent=*/now, 0, /*ok=*/false);
      if (observer_) observer_(c->tag.server, c->tag.type, 0, /*success=*/false);
    }
    on_attempt_failed(ref, s.error());
  }
  return timeout;
}

void Node::on_attempt_timeout(std::uint64_t seq) {
  // Only a pending attempt's timer is armed. The server may still answer;
  // if the call is then still undecided, that late response completes it
  // (see on_response).
  entry(seq).state = Attempt::State::kLate;
  const Attempt a = entry(seq);
  CallState& c = arena_[a.call.slot];  // a pending attempt's call is live
  --c.in_flight;
  policy_.stats().record_timeout(a.timeout);
  policy_.on_attempt_result(c.tag, exec_.now(), a.sent, a.timeout,
                            /*ok=*/false);
  if (observer_) {
    observer_(c.tag.server, c.tag.type, a.timeout, /*success=*/false);
  }
  on_attempt_failed(a.call, Error{Err::kTimeout, "request timed out"});
}

void Node::on_attempt_failed(CallRef ref, Error err) {
  CallState* c = find_call(ref);
  if (c == nullptr) return;
  // A sibling attempt (the hedge or the primary) is still in flight; let it
  // run — it may yet win.
  if (c->in_flight > 0) return;
  if (err_retryable(err.code) && schedule_retry(ref)) return;
  if (!c->opts.trace_tag.empty()) {
    EW_DEBUG << "call '" << c->opts.trace_tag << "' to "
             << c->tag.server.to_string()
             << " failed after " << c->attempts_started
             << " attempt(s): " << err.to_string();
  }
  complete_call(ref, std::move(err));
}

bool Node::schedule_retry(CallRef ref) {
  CallState* c = find_call(ref);
  if (c == nullptr || c->attempts_started >= c->opts.retry.max_attempts) {
    return false;
  }
  const TimePoint now = exec_.now();
  const Duration backoff = c->opts.retry.backoff(c->attempts_started, c->id);
  // A retry that cannot start before the deadline is pointless; fail now
  // with the attempt's error instead of burning the remaining budget.
  if (c->deadline_at > 0 && now + backoff >= c->deadline_at) return false;
  if (obs::trace().enabled()) {
    obs::trace().record(now, obs::SpanKind::kCallRetry, call_trace_tag(c->tag),
                        c->attempts_started + 1, backoff);
  }
  c->retry_timer = exec_.schedule(backoff, [this, ref] {
    CallState* call = find_call(ref);
    if (call == nullptr) return;
    call->retry_timer = kInvalidTimer;
    if (call->in_flight > 0) return;  // a late response revived the race
    start_attempt(ref, call->payload, /*is_hedge=*/false);
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
  const TimePoint now = exec_.now();
  Attempt& found = entry(response.seq);
  if (found.state == Attempt::State::kFree || found.seq != response.seq) {
    // Response for a call that already finished (by error or abandoned at
    // stop), or for a seq the ring no longer holds: the classic spurious
    // time-out with nothing left to rescue.
    policy_.stats().record_late_response(/*rescued=*/false);
    return;
  }
  const Attempt a = found;  // callbacks below may grow the ring
  found.state = Attempt::State::kFree;
  if (a.state == Attempt::State::kOrphaned) {
    // A hedge loser or superseded retry answering after its call already
    // completed: expected duplicate, dropped — never a second delivery.
    policy_.stats().record_duplicate_response();
    return;
  }
  CallState& c = arena_[a.call.slot];  // pending and late attempts' calls live
  std::uint64_t* link = &c.last_seq;  // unlink it from the call's chain
  while (*link != a.seq) link = &entry(*link).prev;
  *link = a.prev;
  if (a.state == Attempt::State::kPending) {
    exec_.cancel(a.timer);
    --c.in_flight;
    const Duration rtt = now - a.sent;
    policy_.on_attempt_result(c.tag, now, a.sent, rtt, /*ok=*/true);
    if (observer_) observer_(c.tag.server, c.tag.type, rtt, /*success=*/true);
    if (c.hedge_sent) policy_.stats().record_hedge_result(a.is_hedge);
  } else {
    // The attempt's timer fired but the server was alive — the exact
    // misjudgment the paper blames static time-outs for ("needless retries
    // and dynamic reconfigurations", Section 2.2). The call is still
    // undecided (late attempts die with their call), so the response
    // completes it rather than going to waste.
    policy_.stats().record_late_response(/*rescued=*/true);
    policy_.on_attempt_result(c.tag, now, a.sent, now - a.sent,
                              /*ok=*/true);
  }

  // Unwrap the status byte.
  Bytes& payload = response.payload;
  Reader r(payload);
  std::uint8_t code = 0;
  if (!r.get_le(code)) {
    complete_call(a.call, Error{Err::kProtocol, "response missing status byte"});
    return;
  }
  if (code == 0) {
    payload.erase(payload.begin());  // the body stays in the payload's buffer
    complete_call(a.call, std::move(payload));
    return;
  }
  auto message = r.str();
  Error e{err_from_wire(code), message ? *message : std::string{}};
  // An application-level verdict rode a working round trip; resending the
  // same request usually repeats the answer, so only callers that opted in
  // (retry_rejected) burn retry budget on it.
  if (c.opts.retry.retry_rejected && c.in_flight == 0 &&
      schedule_retry(a.call)) {
    return;
  }
  complete_call(a.call, std::move(e));
}

void Node::complete_call(CallRef ref, Result<Bytes> result) {
  CallState* c = find_call(ref);
  if (c == nullptr) return;
  for (std::uint64_t seq = c->last_seq; seq != 0;) {
    Attempt& a = entry(seq);
    seq = a.prev;
    if (a.state == Attempt::State::kPending) {
      // Still-in-flight loser (the cancelled hedge or superseded attempt);
      // its eventual response is an expected duplicate. Its outcome will
      // never reach the policy, so hand back any half-open probe slot the
      // attempt may hold — otherwise the breaker stays latched half-open.
      exec_.cancel(a.timer);
      a.state = Attempt::State::kOrphaned;
      policy_.on_attempt_abandoned(c->tag.server);
    } else {
      // A timed-out attempt dies with its call: a response now is just a
      // plain late response.
      a.state = Attempt::State::kFree;
    }
  }
  policy_.stats().record_call_end(result.ok(), exec_.now() - c->started);
  CallCallback cb = std::move(c->cb);
  close_call(ref.slot);
  if (cb) cb(std::move(result));
}

void Node::close_call(std::uint32_t slot) {
  CallState& c = arena_[slot];
  exec_.cancel(c.deadline_timer);
  exec_.cancel(c.retry_timer);
  exec_.cancel(c.hedge_timer);
  c = CallState{.gen = c.gen + 1, .next_free = free_slot_};
  free_slot_ = slot;
}

}  // namespace ew
