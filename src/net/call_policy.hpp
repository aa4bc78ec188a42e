// Reliable call layer: policy between Node::call and the forecasting stack.
//
// The paper's dynamic time-out discovery (Section 2.2) tells a caller how
// long to wait — this layer decides what to do when the wait runs out. It
// turns the forecast stream into three actuated policies:
//
//   * retries — exponential backoff with deterministic jitter, budgeted
//     against an overall per-call deadline, taken only on retryable
//     transport failures (a server that *answered* with a rejection is not
//     retried unless the caller opts in);
//   * hedging — when the first attempt outlives the observed RTT tail
//     quantile for its (server, message type) event tag, it is probably
//     lost, and one duplicate attempt is fired; the loser is cancelled and
//     wins/losses are counted;
//   * circuit breaking — per-destination failure counting fed by the same
//     timeout/error stream the forecaster sees; a tripped breaker sheds
//     calls immediately (kUnavailable) and probes half-open for recovery.
//
// CallPolicy bundles the three with the AdaptiveTimeout that prices each
// attempt, plus an injectable AggregateCallStats sink replacing the old
// process-wide Node::GlobalStats.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>

#include "common/clock.hpp"
#include "common/result.hpp"
#include "forecast/timeout.hpp"
#include "net/endpoint.hpp"
#include "obs/registry.hpp"

namespace ew {

/// True for failures where the request may never have reached (or returned
/// from) the server, so a resend is safe-by-idempotence-assumption and
/// useful. Application-level verdicts (kRejected, kProtocol, kInternal)
/// travelled a working round trip; resending the same bytes would only
/// repeat the answer.
[[nodiscard]] inline bool err_retryable(Err e) {
  switch (e) {
    case Err::kTimeout:
    case Err::kClosed:
    case Err::kRefused:
    case Err::kUnavailable:
    case Err::kPeerDown:
    case Err::kOverloaded:  // local outbox full; backoff then resend
      return true;
    default:
      return false;
  }
}

/// Retry schedule for one call. Defaults to a single attempt — the caller
/// must opt in to resends, because Node cannot know which requests are
/// idempotent.
struct RetryPolicy {
  std::uint32_t max_attempts = 1;       // total attempts, including the first
  Duration base_backoff = 100 * kMillisecond;
  double backoff_multiplier = 2.0;
  Duration max_backoff = 5 * kSecond;
  double jitter = 0.5;                  // fraction of the backoff randomised
  /// Also retry application-level rejections (servers that answered with a
  /// failure status). Off by default: see err_retryable.
  bool retry_rejected = false;

  /// Backoff before attempt `prior_attempts + 1`. Jitter is deterministic,
  /// hashed from `seed` (the call id) and the attempt index, so simulator
  /// runs replay exactly while concurrent callers still decorrelate.
  [[nodiscard]] Duration backoff(std::uint32_t prior_attempts,
                                 std::uint64_t seed) const;

  static RetryPolicy standard(std::uint32_t attempts = 3) {
    RetryPolicy p;
    p.max_attempts = attempts;
    return p;
  }
};

/// Hedged-request policy for one call. Off by default; when enabled, at most
/// one duplicate attempt is fired once the first outlives the observed
/// `tail_quantile` of past RTTs for its event tag. With no RTT history the
/// forecast has nothing to say and no hedge fires.
struct HedgePolicy {
  bool enabled = false;
  double tail_quantile = 0.95;
  /// Floor under the forecast delay so a noisy, microsecond-level tail
  /// cannot make every call a double call.
  Duration min_delay = 10 * kMillisecond;

  static HedgePolicy at(double quantile) {
    HedgePolicy h;
    h.enabled = true;
    h.tail_quantile = quantile;
    return h;
  }
};

/// Per-call knobs for Node::call. Default-constructed options reproduce the
/// old single-attempt behaviour with a forecast-driven time-out.
struct CallOptions {
  /// Overall budget across all attempts and backoffs; 0 = no deadline
  /// (each attempt still has its own time-out).
  Duration deadline = 0;
  /// Fixed per-attempt time-out; 0 = dynamic discovery via AdaptiveTimeout.
  Duration attempt_timeout = 0;
  /// With dynamic discovery: time-out to use before the tag has any
  /// samples (0 = the policy-wide AdaptiveTimeout initial).
  Duration initial_timeout = 0;
  /// With dynamic discovery: cap on the discovered time-out (0 = the
  /// policy-wide ceiling).
  Duration max_attempt_timeout = 0;
  RetryPolicy retry{};
  HedgePolicy hedge{};
  /// Optional label carried into failure logs.
  std::string trace_tag{};

  /// The old positional-Duration call, spelled out: one attempt with a
  /// fixed time-out.
  static CallOptions fixed(Duration attempt_timeout) {
    CallOptions o;
    o.attempt_timeout = attempt_timeout;
    return o;
  }
};

/// The call layer's stats sink: everything Node::call does lands in named
/// obs instruments (net.calls.started, net.attempts, net.call.latency_us,
/// ... — DESIGN.md §8), so the call layer shows up in obs::snapshot_json()
/// next to gossip and scheduler series instead of in a private struct.
///
/// Default-constructed sinks own a private Registry — an injected per-bench
/// sink stays isolated, exactly like the old struct-of-ints. Binding an
/// external registry (process_call_stats() binds obs::registry()) shares
/// the instruments with the rest of the process.
class AggregateCallStats {
 public:
  AggregateCallStats();
  explicit AggregateCallStats(obs::Registry& reg);

  void record_call_start() { calls_started_->inc(); }
  /// ok=false covers timeouts, transport failures, rejections, shed calls.
  void record_call_end(bool ok, Duration latency) {
    (ok ? calls_ok_ : calls_failed_)->inc();
    call_latency_us_->record(static_cast<std::uint64_t>(latency));
  }
  /// One network attempt issued. `retry` marks attempts after the first;
  /// `hedge` marks forecast-triggered duplicates.
  void record_attempt(bool retry, bool hedge) {
    attempts_->inc();
    if (retry) retries_->inc();
    if (hedge) hedges_->inc();
  }
  /// An attempt timer fired after waiting `timeout`.
  void record_timeout(Duration timeout) {
    timeouts_fired_->inc();
    timeout_wait_us_->record(static_cast<std::uint64_t>(timeout));
  }
  /// A response arrived for an attempt that had already timed out, or for
  /// no attempt the node still knows. `rescued` means the call was still
  /// live and the response completed it.
  void record_late_response(bool rescued) {
    late_responses_->inc();
    if (rescued) late_rescues_->inc();
  }
  /// A response for an attempt cancelled by retry/hedge completion arrived
  /// after its call finished; it was dropped, not delivered twice.
  void record_duplicate_response() { duplicate_responses_->inc(); }
  /// A hedged call completed; `hedge_won` tells whether the duplicate beat
  /// the original.
  void record_hedge_result(bool hedge_won) {
    (hedge_won ? hedge_wins_ : hedge_losses_)->inc();
  }
  /// A call was shed without a network attempt because the destination's
  /// circuit breaker was open.
  void record_short_circuit() { short_circuits_->inc(); }
  /// A destination's circuit breaker changed state. `from`/`to` are
  /// CircuitBreaker::State values cast to int.
  void record_breaker_transition(int from, int to);

  /// The registry holding this sink's instruments — the owned private one
  /// for default-constructed sinks, the shared one otherwise. Callers read
  /// counter values by obs::names key (the old counters() struct shim is
  /// gone).
  [[nodiscard]] obs::Registry& registry() const { return *reg_; }
  /// Zero this sink's instruments (shared registry: only the net.* set).
  void reset();

 private:
  void bind(obs::Registry& reg);

  std::unique_ptr<obs::Registry> owned_;  // null when bound to a shared one
  obs::Registry* reg_ = nullptr;          // whichever registry bind() used
  obs::Counter* calls_started_ = nullptr;
  obs::Counter* calls_ok_ = nullptr;
  obs::Counter* calls_failed_ = nullptr;
  obs::Counter* attempts_ = nullptr;
  obs::Counter* retries_ = nullptr;
  obs::Counter* hedges_ = nullptr;
  obs::Counter* hedge_wins_ = nullptr;
  obs::Counter* hedge_losses_ = nullptr;
  obs::Counter* timeouts_fired_ = nullptr;
  obs::Counter* late_responses_ = nullptr;
  obs::Counter* late_rescues_ = nullptr;
  obs::Counter* duplicate_responses_ = nullptr;
  obs::Counter* short_circuits_ = nullptr;
  obs::Counter* breaker_opened_ = nullptr;
  obs::Histogram* call_latency_us_ = nullptr;
  obs::Histogram* timeout_wait_us_ = nullptr;
};

/// The process-wide default sink every CallPolicy starts with, bound to
/// obs::registry() — so the call layer's counters appear in every
/// obs::snapshot_json(). Scenario benches read and reset it between
/// experiment arms, exactly like the old Node::reset_global_stats().
AggregateCallStats& process_call_stats();

/// Per-destination failure gate with the classic three states. Counts
/// consecutive transport failures; at the threshold it opens and sheds
/// every call for `open_for`, then lets a limited number of half-open
/// probes through — one success closes it, one failure re-opens it.
class CircuitBreaker {
 public:
  struct Options {
    std::uint32_t failure_threshold = 5;   // consecutive failures to trip
    Duration open_for = 10 * kSecond;      // shed window before probing
    std::uint32_t half_open_probes = 1;    // concurrent probes allowed
  };
  enum class State : std::uint8_t { kClosed, kOpen, kHalfOpen };

  CircuitBreaker() : CircuitBreaker(Options{}) {}
  explicit CircuitBreaker(const Options& opts) : opts_(opts) {}

  [[nodiscard]] State state(TimePoint now) {
    roll(now);
    return state_;
  }

  /// Last-settled state, without rolling the clock forward. Lets observers
  /// diff states around an operation to detect transitions.
  [[nodiscard]] State peek_state() const { return state_; }

  /// May an attempt go out now? Half-open admissions are counted as probes.
  [[nodiscard]] bool allow(TimePoint now);

  /// Transport outcome of an attempt to this destination. Any response —
  /// even an application rejection — proves the host alive. `sent` is when
  /// the attempt left: failures from attempts sent before the breaker last
  /// tripped are *stale evidence* — already priced into that trip — and must
  /// not re-trip a half-open breaker or extend the open window. Without this
  /// guard a burst of N in-flight calls to a briefly-slow peer latches the
  /// breaker open ~N× longer than `open_for` (each straggler timeout
  /// re-trips), shedding unrelated traffic long after the peer recovered.
  void on_result(TimePoint now, TimePoint sent, bool ok);

  /// Attempt outcome with no send-time information: treated as current
  /// evidence (sent = now).
  void on_result(TimePoint now, bool ok) { on_result(now, now, ok); }

  /// An admitted attempt was abandoned (its call completed first) and will
  /// never report a result: free the probe slot it may occupy so the
  /// half-open state cannot latch.
  void release_probe() {
    if (probes_in_flight_ > 0) --probes_in_flight_;
  }

  [[nodiscard]] std::uint64_t times_opened() const { return times_opened_; }

 private:
  void roll(TimePoint now);
  void trip(TimePoint now);

  Options opts_;
  State state_ = State::kClosed;
  TimePoint open_until_ = 0;
  TimePoint evidence_floor_ = 0;  // send-times below this are stale evidence
  std::uint32_t consecutive_failures_ = 0;
  std::uint32_t probes_in_flight_ = 0;
  std::uint64_t times_opened_ = 0;
};

/// One breaker per destination endpoint, created on first use.
class CircuitBreakerBank {
 public:
  explicit CircuitBreakerBank(CircuitBreaker::Options opts = {})
      : opts_(opts) {}

  CircuitBreaker& at(const Endpoint& to);
  [[nodiscard]] std::size_t size() const { return by_dest_.size(); }

 private:
  CircuitBreaker::Options opts_;
  std::unordered_map<Endpoint, CircuitBreaker, EndpointHash> by_dest_;
};

/// Everything a Node consults before, during and after a call: the adaptive
/// time-out (one bank per node, as each node observes its own servers), the
/// breaker bank, and the stats sink.
class CallPolicy {
 public:
  struct Options {
    AdaptiveTimeout::Options timeout{};
    CircuitBreaker::Options breaker{};
    /// Breakers ship disabled: shedding changes failure semantics (callers
    /// see kUnavailable without a network attempt) and components opt in.
    bool breaker_enabled = false;
  };

  CallPolicy() : CallPolicy(Options{}) {}
  explicit CallPolicy(const Options& opts)
      : opts_(opts), timeouts_(opts.timeout), breakers_(opts.breaker) {}

  [[nodiscard]] AdaptiveTimeout& timeouts() { return timeouts_; }
  [[nodiscard]] const AdaptiveTimeout& timeouts() const { return timeouts_; }
  [[nodiscard]] CircuitBreakerBank& breakers() { return breakers_; }

  void set_breaker_enabled(bool on) { opts_.breaker_enabled = on; }
  [[nodiscard]] bool breaker_enabled() const { return opts_.breaker_enabled; }

  /// Route stats to `sink`; nullptr restores the process-wide aggregate.
  void set_stats_sink(AggregateCallStats* sink) { sink_ = sink; }
  [[nodiscard]] AggregateCallStats& stats() const;

  /// Time-out for the next attempt of a call with these options.
  [[nodiscard]] Duration attempt_timeout(const EventTag& tag,
                                         const CallOptions& opts) const;

  /// Delay after which a hedge should fire, or 0 for "don't hedge" (policy
  /// disabled, or no RTT history to forecast from).
  [[nodiscard]] Duration hedge_delay(const EventTag& tag,
                                     const HedgePolicy& hedge) const;

  /// Breaker gate; true when the attempt may proceed.
  [[nodiscard]] bool admit(const Endpoint& to, TimePoint now);

  /// An admitted attempt was cancelled before reporting (its call completed
  /// first); frees any half-open probe slot it held.
  void on_attempt_abandoned(const Endpoint& to);

  /// Feed an attempt's transport outcome to the forecaster and to the
  /// breaker of the tag's server. `sent` is the attempt's send time, used
  /// by the breaker to discount stale evidence from before its last trip.
  void on_attempt_result(const EventTag& tag, TimePoint now, TimePoint sent,
                         Duration rtt, bool ok);

 private:
  Options opts_;
  AdaptiveTimeout timeouts_;
  CircuitBreakerBank breakers_;
  AggregateCallStats* sink_ = nullptr;  // nullptr = process_call_stats()
};

}  // namespace ew
