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
// Each call is one slot of a call arena and each attempt one entry of a
// seq ring (DESIGN.md §7).
//
// Response payloads are wrapped in a 1-byte status so servers can signal
// application-level rejection (e.g. the persistent-state sanity check of
// Section 3.1.2) distinctly from transport failure; the status byte maps
// onto common/result.hpp Err values end-to-end, which is what lets the
// retry policy distinguish retryable transport failures from non-retryable
// application verdicts.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
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

  /// The observer must not call back into this Node.
  void set_rtt_observer(RttObserver obs) { observer_ = std::move(obs); }

  /// Retry/hedge/breaker policy plus the node's adaptive time-outs and
  /// stats sink. Mutable so components can enable breakers, pre-seed
  /// forecasts, or inject an AggregateCallStats.
  [[nodiscard]] CallPolicy& call_policy() { return policy_; }
  [[nodiscard]] const CallPolicy& call_policy() const { return policy_; }

  [[nodiscard]] const Endpoint& self() const { return self_; }
  [[nodiscard]] Executor& executor() { return exec_; }
  [[nodiscard]] std::size_t outstanding_calls() const {
    return std::count_if(arena_.begin(), arena_.end(),
                         [](const CallState& c) { return c.id != 0; });
  }

 private:
  friend class Responder;

  static constexpr std::uint32_t kNoSlot = UINT32_MAX;

  /// A call's arena slot and generation. The generation moves on when the
  /// call ends, so a timer closure left over from it finds nothing.
  struct CallRef {
    std::uint32_t slot = 0;
    std::uint32_t gen = 0;
  };

  /// One logical call: callback, policy, and the attempt bookkeeping that
  /// guarantees single delivery across retries and hedges.
  struct CallState {
    std::uint64_t id = 0;  // monotone call id; 0 marks a free slot
    std::uint32_t gen = 0;
    std::uint32_t next_free = kNoSlot;  // free-list link while free
    CallCallback cb{};
    EventTag tag{};  // the server and message type called
    CallOptions opts{};
    Bytes payload{};  // kept only when a resend is possible
    TimePoint started = 0;
    TimePoint deadline_at = 0;   // 0 = no deadline
    TimerId deadline_timer = kInvalidTimer;
    TimerId retry_timer = kInvalidTimer;
    TimerId hedge_timer = kInvalidTimer;
    std::uint32_t attempts_started = 0;  // retries; hedges not counted
    std::uint32_t in_flight = 0;
    bool hedge_sent = false;
    std::uint64_t last_seq = 0;  // newest pending or late attempt; 0 = none
  };

  /// One wire attempt: the seq ring entry at `seq & (ring size - 1)`.
  struct Attempt {
    enum class State : std::uint8_t { kFree, kPending, kLate, kOrphaned };
    std::uint64_t seq = 0;
    std::uint64_t prev = 0;  // the call's next older pending or late attempt
    CallRef call;
    TimerId timer = kInvalidTimer;
    TimePoint sent = 0;
    Duration timeout = 0;
    State state = State::kFree;
    bool is_hedge = false;
  };

  void on_packet(IncomingMessage msg);
  /// Send the response `code` + `body` that `reply` describes.
  void send_reply(const Responder::Reply& reply, std::uint8_t code,
                  const Bytes& body);
  void on_response(Packet response);
  /// Returns the attempt's time-out, or 0 if no attempt went out.
  Duration start_attempt(CallRef ref, Bytes payload, bool is_hedge);
  void on_attempt_timeout(std::uint64_t seq);
  /// An attempt ended in a transport failure; retry or complete the call.
  void on_attempt_failed(CallRef ref, Error err);
  /// Schedule the next retry attempt if budget and deadline allow.
  bool schedule_retry(CallRef ref);
  /// Single point of delivery: frees the call's slot (cancelling every
  /// timer, orphaning its pending attempts and freeing its late ones) and
  /// then invokes the callback.
  void complete_call(CallRef ref, Result<Bytes> result);

  /// The live call `ref` names, or nullptr. Dies with the next call().
  CallState* find_call(CallRef ref) {
    CallState& c = arena_[ref.slot];
    return c.id != 0 && c.gen == ref.gen ? &c : nullptr;
  }
  /// Cancels the call's timers and frees its slot.
  void close_call(std::uint32_t slot);
  Attempt& entry(std::uint64_t seq) { return ring_[seq & (ring_.size() - 1)]; }

  Executor& exec_;
  Transport& transport_;
  Endpoint self_;
  bool started_ = false;
  std::uint64_t next_seq_ = 1;
  std::uint64_t next_call_id_ = 1;
  CallPolicy policy_;
  std::unordered_map<MsgType, ServerHandler> handlers_;
  std::vector<CallState> arena_;      // calls, by slot
  std::uint32_t free_slot_ = kNoSlot;  // head of the free-slot list
  std::vector<Attempt> ring_;          // attempts, by seq
  RttObserver observer_;
};

}  // namespace ew
