// Structured trace recorder: a bounded ring buffer of typed span events.
//
// Where the registry answers "how many / how long", the trace answers "in
// what order": every decision point in the toolkit — call attempt, retry,
// hedge, breaker transition, gossip sync round, clique token pass, leader
// election, scheduler dispatch, forecaster method switch — records one
// fixed-size SpanEvent stamped with the caller's clock (the sim clock in
// simulation, so traces replay bit-identically) and the interned
// dynamic-benchmarking event tag, so spans join against forecast streams.
//
// Tracing is off by default; every emission site guards on enabled(), so a
// disabled recorder costs one relaxed load per decision point and allocates
// nothing. When the ring fills, the oldest event is evicted and the total
// recorded count is preserved (dropped() = total() - size()).
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace ew::obs {

/// The span taxonomy. One kind per decision point; DESIGN.md §8 maps each
/// to its emitting subsystem and the meaning of the a/b payload words.
enum class SpanKind : std::uint8_t {
  kCallAttempt = 0,        // a = attempt index, b = 1 if hedge
  kCallRetry = 1,          // a = attempt index being scheduled, b = backoff µs
  kCallHedge = 2,          // a = hedge delay µs
  kBreakerTransition = 3,  // a = from state, b = to state (CircuitBreaker)
  kGossipSyncRound = 4,    // a = digest entries sent, b = peer index
  kGossipPoll = 5,         // a = component index
  kCliqueTokenPass = 6,    // a = round, b = view size
  kCliqueElection = 7,     // a = view size, b = 1 if self is leader
  kSchedDispatch = 8,      // a = directive kind, b = client count
  kSchedMigration = 9,     // a = migrations so far
  kForecastMethodSwitch = 10,  // a = previous method index, b = new index
  kCliqueViewChange = 11,  // a = generation, b = view size; tag = member
  kSchedUnitIssued = 12,   // a = unit id; tag = scheduler endpoint
  kSchedUnitReclaimed = 13,  // a = unit id, b = reason; tag = scheduler
  kChaosFault = 14,        // a = FaultKind; tag = target host
  kGossipDelta = 15,       // a = blobs carried, b = registrations carried
  kWishJob = 16,           // a = job id, b = JobState; tag = daemon endpoint
  kWishBarrier = 17,       // a = epoch, b = arrivals; tag = barrier name
  kWishCollective = 18,    // a = subtree size, b = fan-out; tag = name
};

[[nodiscard]] const char* span_kind_name(SpanKind k);

/// Reason codes carried in kSchedUnitReclaimed's b word.
namespace reclaim {
inline constexpr std::int64_t kReleased = 0;      // client re-registered
inline constexpr std::int64_t kPresumedDead = 1;  // sweep reclaimed the holder
inline constexpr std::int64_t kMigrated = 2;      // moved to a faster client
}  // namespace reclaim

/// One fixed-size event. `tag` is an interned string id (0 = none) — the
/// dynamic-benchmarking event tag, endpoint, or component name.
struct SpanEvent {
  std::int64_t at = 0;  // caller's clock, µs (TimePoint)
  SpanKind kind = SpanKind::kCallAttempt;
  std::uint32_t tag = 0;
  std::int64_t a = 0;
  std::int64_t b = 0;
};

class TraceRecorder {
 public:
  explicit TraceRecorder(std::size_t capacity = 4096);

  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Resize the ring; drops recorded events, keeps the intern table.
  void set_capacity(std::size_t capacity);

  /// Intern a tag string; same string → same id for this recorder's
  /// lifetime (until reset()). Id 0 is reserved for "no tag".
  std::uint32_t intern(std::string_view s);
  /// Name for an interned id ("" for 0 or unknown).
  [[nodiscard]] std::string tag_name(std::uint32_t id) const;

  /// Record one span. No-op when disabled. `at` is the caller's clock so
  /// sim-driven components stay deterministic.
  void record(std::int64_t at, SpanKind kind, std::uint32_t tag = 0,
              std::int64_t a = 0, std::int64_t b = 0);

  [[nodiscard]] std::uint64_t total() const;    // recorded since reset
  [[nodiscard]] std::size_t size() const;       // retained in the ring
  [[nodiscard]] std::uint64_t dropped() const;  // evicted = total - size

  /// Retained events, oldest → newest.
  [[nodiscard]] std::vector<SpanEvent> snapshot() const;

  /// {"total":n,"dropped":n,"events":[{"at":..,"kind":"...","tag":"...",
  ///  "a":..,"b":..},...]} — deterministic for identical recorded state.
  [[nodiscard]] std::string to_json() const;

  /// Drop events (total/dropped restart at 0); intern table survives so
  /// cached tag ids stay valid.
  void clear();
  /// clear() plus forget the intern table — invalidates cached tag ids;
  /// use only between independent runs (determinism tests).
  void reset();

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<SpanEvent> ring_;
  std::size_t cap_ = 4096;
  std::uint64_t total_ = 0;
  std::vector<std::string> tag_names_;  // id - 1 → name
  std::unordered_map<std::string, std::uint32_t> tag_ids_;
};

/// The process-wide recorder every subsystem emits to.
TraceRecorder& trace();

}  // namespace ew::obs
