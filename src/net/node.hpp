// Node: the request/response endpoint every EveryWare component is built on.
//
// A Node owns one bound transport endpoint and multiplexes it between
//   * registered server handlers (one per message type), and
//   * outstanding client calls (matched to responses by sequence number).
//
// A call is a policy-governed unit of work that may span several network
// attempts: retries with backoff, a forecast-triggered hedge duplicate, all
// bounded by an optional overall deadline (net/call_policy.hpp). Attempt
// time-outs come from dynamic time-out discovery — the paper found that
// statically chosen time-outs "frequently misjudged the availability" of
// servers under SC98's fluctuating load (Section 2.2) — and every attempt's
// round trip (or failure) feeds the per-(server, message type) forecaster
// so the next time-out reflects ambient conditions.
//
// Whatever the attempt history, the callback fires exactly once: responses
// from cancelled or superseded attempts are counted and dropped, and a late
// response that beats a pending retry completes the call instead of being
// wasted.
//
// Response payloads are wrapped in a 1-byte status so servers can signal
// application-level rejection (e.g. the persistent-state sanity check of
// Section 3.1.2) distinctly from transport failure; the status byte maps
// onto common/result.hpp Err values end-to-end, which is what lets the
// retry policy distinguish retryable transport failures from non-retryable
// application verdicts.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/clock.hpp"
#include "common/result.hpp"
#include "net/call_policy.hpp"
#include "net/executor.hpp"
#include "net/transport.hpp"

namespace ew {

class Node;

/// Reply hook handed to server handlers. A handler must call exactly one of
/// ok()/fail() (calling neither times the client out; calling both is
/// ignored after the first). Copyable so handlers can defer replies: the
/// copies share one reply record, which says where the reply goes and
/// whether it has gone. A default-constructed Responder (one-way messages)
/// sends nothing.
class Responder {
 public:
  Responder() = default;

  void ok(const Bytes& payload = {}) const { emit(0, payload); }
  void fail(Err code, const std::string& message = {}) const;

 private:
  friend class Node;
  struct Reply {
    Node* node = nullptr;
    Endpoint to;
    std::uint64_t seq = 0;
    MsgType type = 0;
    bool sent = false;
  };
  explicit Responder(std::shared_ptr<Reply> reply) : reply_(std::move(reply)) {}

  void emit(std::uint8_t code, const Bytes& payload) const;
  std::shared_ptr<Reply> reply_;
};

class Node {
 public:
  using ServerHandler = std::function<void(const IncomingMessage&, Responder)>;
  using CallCallback = std::function<void(Result<Bytes>)>;
  /// (server, message type, round-trip time, succeeded) for every attempt.
  using RttObserver =
      std::function<void(const Endpoint&, MsgType, Duration, bool)>;

  Node(Executor& exec, Transport& transport, Endpoint self);
  ~Node();
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  /// Bind the endpoint and begin dispatching. Must be called before use.
  Status start();
  /// Unbind. Outstanding call callbacks are abandoned (never invoked): stop
  /// happens during teardown, when callback owners may already be gone.
  void stop();

  /// Crash-stop: detach from the transport, then fail every outstanding
  /// call with Err::kPeerDown. Unlike stop(), callbacks DO fire — a chaos
  /// kill runs while the owning components are still alive (though already
  /// stopped, so their liveness guards make the callbacks no-ops), and the
  /// paper's recovery paths key off seeing the failure rather than hanging.
  void crash();

  /// Complete every outstanding call with `code` right now, in call-id
  /// order. Timers are cancelled; later responses count as late/duplicate.
  void fail_outstanding(Err code);

  /// Register the handler for requests/one-ways of the given type.
  void handle(MsgType type, ServerHandler handler);

  /// Issue a request under `opts`; `cb` fires exactly once with the
  /// response payload, a server-signalled error, or the last transport
  /// failure once retries/deadline are exhausted. CallOptions{} gives one
  /// attempt with a forecast-driven time-out; CallOptions::fixed(d) is the
  /// old positional-Duration behaviour.
  void call(const Endpoint& to, MsgType type, Bytes payload, CallOptions opts,
            CallCallback cb);

  /// Fire-and-forget message.
  Status send_oneway(const Endpoint& to, MsgType type, Bytes payload);

  void set_rtt_observer(RttObserver obs) { observer_ = std::move(obs); }

  /// Retry/hedge/breaker policy plus the node's adaptive time-outs and
  /// stats sink. Mutable so components can enable breakers, pre-seed
  /// forecasts, or inject a CallStatsSink.
  [[nodiscard]] CallPolicy& call_policy() { return policy_; }
  [[nodiscard]] const CallPolicy& call_policy() const { return policy_; }

  [[nodiscard]] const Endpoint& self() const { return self_; }
  [[nodiscard]] Executor& executor() { return exec_; }
  [[nodiscard]] std::size_t outstanding_calls() const { return calls_.size(); }

 private:
  friend class Responder;

  /// One logical call: callback, policy, and the attempt bookkeeping that
  /// guarantees single delivery across retries and hedges.
  struct CallState {
    CallCallback cb;
    Endpoint to;
    MsgType type = 0;
    EventTag tag;
    CallOptions opts;
    Bytes payload;               // kept only when a resend is possible
    TimePoint started = 0;
    TimePoint deadline_at = 0;   // 0 = no deadline
    TimerId deadline_timer = kInvalidTimer;
    TimerId retry_timer = kInvalidTimer;
    TimerId hedge_timer = kInvalidTimer;
    Duration first_attempt_timeout = 0;
    std::uint32_t attempts_started = 0;  // retries; hedges not counted
    std::uint32_t in_flight = 0;
    bool hedge_sent = false;
    std::vector<std::uint64_t> seqs;     // every seq this call ever used
  };

  /// One wire attempt, matched to its response by seq.
  struct Attempt {
    std::uint64_t call_id = 0;
    TimerId timer = kInvalidTimer;
    TimePoint sent = 0;
    Duration timeout = 0;
    bool is_hedge = false;
  };

  struct LateAttempt {
    std::uint64_t call_id = 0;
    TimePoint sent = 0;
  };

  void on_packet(IncomingMessage msg);
  /// Send the response `code` + `body` that `reply` describes.
  void send_reply(const Responder::Reply& reply, std::uint8_t code,
                  const Bytes& body);
  void on_response(Packet response);
  void start_attempt(std::uint64_t call_id, Bytes payload, bool is_hedge);
  void maybe_schedule_hedge(std::uint64_t call_id);
  void on_attempt_timeout(std::uint64_t seq);
  /// An attempt ended in a transport failure; retry or complete the call.
  void on_attempt_failed(std::uint64_t call_id, Error err);
  /// Schedule the next retry attempt if budget and deadline allow.
  bool schedule_retry(std::uint64_t call_id);
  /// Completes a call with a response payload: its status byte, then the
  /// body (ok) or an error message.
  void deliver_response(std::uint64_t call_id, Bytes payload);
  /// Single point of delivery: erases the call (cancelling every timer and
  /// orphaning every outstanding seq) and then invokes the callback.
  void complete_call(std::uint64_t call_id, Result<Bytes> result);
  void remember_cancelled(std::uint64_t seq);

  Executor& exec_;
  Transport& transport_;
  Endpoint self_;
  bool started_ = false;
  std::uint64_t next_seq_ = 1;
  std::uint64_t next_call_id_ = 1;
  CallPolicy policy_;
  std::unordered_map<MsgType, ServerHandler> handlers_;
  std::unordered_map<std::uint64_t, CallState> calls_;     // by call id
  std::unordered_map<std::uint64_t, Attempt> pending_;     // by seq
  /// Attempts whose timer fired while their call lived on (retrying or
  /// hedged): a response here is the paper's spurious time-out, and it can
  /// still complete the call. Entries die with their call.
  std::unordered_map<std::uint64_t, LateAttempt> late_;
  /// Seqs orphaned by call completion (hedge losers, superseded retries).
  /// Their responses are expected duplicates, counted and dropped. Bounded
  /// FIFO so a seq leaked by a never-answering server cannot grow it.
  std::unordered_set<std::uint64_t> cancelled_;
  std::deque<std::uint64_t> cancelled_order_;
  RttObserver observer_;
};

}  // namespace ew
