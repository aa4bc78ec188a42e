#include "net/call_policy.hpp"

#include <algorithm>

#include "obs/trace.hpp"

namespace ew {

namespace {

// splitmix64 finalizer: cheap, well-mixed, and deterministic — simulator
// runs replay bit-exactly while concurrent callers still decorrelate.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

Duration RetryPolicy::backoff(std::uint32_t prior_attempts,
                              std::uint64_t seed) const {
  // prior_attempts >= 1 when we are pricing a retry; exponent 0 for the
  // first retry keeps base_backoff the fastest resend.
  const std::uint32_t exponent = prior_attempts > 0 ? prior_attempts - 1 : 0;
  double backoff = static_cast<double>(base_backoff);
  for (std::uint32_t i = 0; i < exponent; ++i) {
    backoff *= backoff_multiplier;
    if (backoff >= static_cast<double>(max_backoff)) break;
  }
  backoff = std::min(backoff, static_cast<double>(max_backoff));
  if (jitter > 0) {
    const std::uint64_t h = mix64(seed * 0x100000001b3ULL + prior_attempts);
    // Unit sample in [0,1) from the top 53 bits.
    const double unit =
        static_cast<double>(h >> 11) / static_cast<double>(1ULL << 53);
    // Spread over [1 - jitter, 1]: jitter only shortens the wait, so the
    // un-jittered value remains the worst case for deadline budgeting.
    backoff *= 1.0 - jitter * unit;
  }
  return std::max<Duration>(static_cast<Duration>(backoff), 1);
}

bool CircuitBreaker::allow(TimePoint now) {
  roll(now);
  switch (state_) {
    case State::kClosed:
      return true;
    case State::kOpen:
      return false;
    case State::kHalfOpen:
      if (probes_in_flight_ < opts_.half_open_probes) {
        ++probes_in_flight_;
        return true;
      }
      return false;
  }
  return true;
}

void CircuitBreaker::on_result(TimePoint now, TimePoint sent, bool ok) {
  roll(now);
  // Evidence from before the last trip has already been priced in: those
  // attempts were in flight when the breaker opened, and their failures are
  // the very reason it opened. Only attempts sent since then say anything
  // about the destination's *current* health.
  const bool current = sent >= evidence_floor_;
  if (state_ == State::kHalfOpen && current && probes_in_flight_ > 0) {
    --probes_in_flight_;
  }
  if (ok) {
    consecutive_failures_ = 0;
    // One successful probe is proof enough: the paper's servers flap with
    // ambient load, so a long confirmation window would just delay reuse.
    // A stale success still counts — proof of life is valid whenever sent.
    if (state_ == State::kHalfOpen) state_ = State::kClosed;
    return;
  }
  if (!current) return;
  ++consecutive_failures_;
  if (state_ == State::kHalfOpen ||
      consecutive_failures_ >= opts_.failure_threshold) {
    trip(now);
  }
}

void CircuitBreaker::roll(TimePoint now) {
  if (state_ == State::kOpen && now >= open_until_) {
    state_ = State::kHalfOpen;
    probes_in_flight_ = 0;
  }
}

void CircuitBreaker::trip(TimePoint now) {
  state_ = State::kOpen;
  open_until_ = now + opts_.open_for;
  evidence_floor_ = now;
  consecutive_failures_ = 0;
  probes_in_flight_ = 0;
  ++times_opened_;
}

CircuitBreaker& CircuitBreakerBank::at(const Endpoint& to) {
  return by_dest_.try_emplace(to, opts_).first->second;
}

AggregateCallStats::AggregateCallStats()
    : owned_(std::make_unique<obs::Registry>()) {
  bind(*owned_);
}

AggregateCallStats::AggregateCallStats(obs::Registry& reg) { bind(reg); }

void AggregateCallStats::bind(obs::Registry& reg) {
  namespace n = obs::names;
  reg_ = &reg;
  calls_started_ = &reg.counter(n::kNetCallsStarted);
  calls_ok_ = &reg.counter(n::kNetCallsOk);
  calls_failed_ = &reg.counter(n::kNetCallsFailed);
  attempts_ = &reg.counter(n::kNetAttempts);
  retries_ = &reg.counter(n::kNetRetries);
  hedges_ = &reg.counter(n::kNetHedges);
  hedge_wins_ = &reg.counter(n::kNetHedgeWins);
  hedge_losses_ = &reg.counter(n::kNetHedgeLosses);
  timeouts_fired_ = &reg.counter(n::kNetTimeoutsFired);
  late_responses_ = &reg.counter(n::kNetLateResponses);
  late_rescues_ = &reg.counter(n::kNetLateRescues);
  duplicate_responses_ = &reg.counter(n::kNetDuplicateResponses);
  short_circuits_ = &reg.counter(n::kNetShortCircuits);
  breaker_opened_ = &reg.counter(n::kNetBreakerOpened);
  call_latency_us_ = &reg.histogram(n::kNetCallLatencyUs);
  timeout_wait_us_ = &reg.histogram(n::kNetTimeoutWaitUs);
}

void AggregateCallStats::record_breaker_transition(int /*from*/, int to) {
  if (to == static_cast<int>(CircuitBreaker::State::kOpen)) {
    breaker_opened_->inc();
  }
}

void AggregateCallStats::reset() {
  calls_started_->reset();
  calls_ok_->reset();
  calls_failed_->reset();
  attempts_->reset();
  retries_->reset();
  hedges_->reset();
  hedge_wins_->reset();
  hedge_losses_->reset();
  timeouts_fired_->reset();
  late_responses_->reset();
  late_rescues_->reset();
  duplicate_responses_->reset();
  short_circuits_->reset();
  breaker_opened_->reset();
  call_latency_us_->reset();
  timeout_wait_us_->reset();
}

AggregateCallStats& process_call_stats() {
  static AggregateCallStats* stats =
      new AggregateCallStats(obs::registry());
  return *stats;
}

CallStatsSink& CallPolicy::stats() const {
  return sink_ != nullptr ? *sink_ : process_call_stats();
}

Duration CallPolicy::attempt_timeout(const EventTag& tag,
                                     const CallOptions& opts) const {
  // An explicit global override (ablation arms) beats even fixed per-call
  // values, mirroring the old components' uniform use of AdaptiveTimeout.
  const Duration global = AdaptiveTimeout::global_static_override();
  if (global > 0) return global;
  if (opts.attempt_timeout > 0) return opts.attempt_timeout;
  Duration t = timeouts_.timeout(tag);
  if (opts.initial_timeout > 0 && !timeouts_.bank().knows(tag)) {
    t = opts.initial_timeout;
  }
  if (opts.max_attempt_timeout > 0) t = std::min(t, opts.max_attempt_timeout);
  return t;
}

Duration CallPolicy::hedge_delay(const EventTag& tag,
                                 const HedgePolicy& hedge) const {
  if (!hedge.enabled) return 0;
  const Duration q = timeouts_.observed_quantile(tag, hedge.tail_quantile);
  if (q <= 0) return 0;  // no history: the forecast has nothing to say
  return std::max(q, hedge.min_delay);
}

namespace {

// Surface a breaker edge to the stats sink and, when tracing, the span
// ring. The address is interned only on an actual transition, so the
// steady-state path never allocates.
void note_breaker_edge(CallStatsSink& sink, const Endpoint& to, TimePoint now,
                       CircuitBreaker::State before,
                       CircuitBreaker::State after) {
  if (before == after) return;
  sink.record_breaker_transition(static_cast<int>(before),
                                 static_cast<int>(after));
  auto& tr = obs::trace();
  if (tr.enabled()) {
    tr.record(now, obs::SpanKind::kBreakerTransition, tr.intern(to.to_string()),
              static_cast<int>(before), static_cast<int>(after));
  }
}

}  // namespace

bool CallPolicy::admit(const Endpoint& to, TimePoint now) {
  if (!opts_.breaker_enabled) return true;
  CircuitBreaker& b = breakers_.at(to);
  const CircuitBreaker::State before = b.peek_state();
  const bool ok = b.allow(now);  // may roll open -> half-open
  note_breaker_edge(stats(), to, now, before, b.peek_state());
  return ok;
}

void CallPolicy::on_attempt_abandoned(const Endpoint& to) {
  if (opts_.breaker_enabled) breakers_.at(to).release_probe();
}

void CallPolicy::on_attempt_result(const EventTag& tag, TimePoint now,
                                   TimePoint sent, Duration rtt, bool ok) {
  timeouts_.on_result(tag, rtt, ok);
  if (opts_.breaker_enabled) {
    CircuitBreaker& b = breakers_.at(tag.server);
    const CircuitBreaker::State before = b.peek_state();
    b.on_result(now, sent, ok);  // rolls, then applies the outcome
    note_breaker_edge(stats(), tag.server, now, before, b.peek_state());
  }
}

}  // namespace ew
