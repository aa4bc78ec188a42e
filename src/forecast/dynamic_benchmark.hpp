// Dynamic benchmarking (paper Section 2.2).
//
// "Our strategy was to manually instrument the various EveryWare components
// and application modules with timing primitives, and then passing the
// timing information to the forecasting modules to make predictions."
//
// An EventTag identifies a repetitive program event — the paper used
// (address where the request was serviced, message type of the request).
// EventForecasterBank keeps one AdaptiveForecaster per tag; ScopedEventTimer
// is the timing primitive that feeds it.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <unordered_map>

#include "common/clock.hpp"
#include "forecast/selector.hpp"
#include "net/endpoint.hpp"
#include "net/packet.hpp"

namespace ew {

/// Identifier for a benchmarked program event: where it was serviced plus
/// what kind of request it was. Kept as the Endpoint itself, so building a
/// tag on every call formats nothing and hashing it reads no formatted
/// string.
struct EventTag {
  Endpoint server;  // server contact address
  MsgType type = 0;

  static EventTag of(const Endpoint& server, MsgType type) {
    return EventTag{server, type};
  }
  /// "host:port/type", the tag's name in logs and trace intern strings.
  [[nodiscard]] std::string to_string() const {
    return server.to_string() + "/" + std::to_string(type);
  }
  friend bool operator==(const EventTag&, const EventTag&) = default;
};

struct EventTagHash {
  std::size_t operator()(const EventTag& t) const {
    return EndpointHash{}(t.server) * 1000003u ^ t.type;
  }
};

/// One adaptive forecaster per tagged event stream.
///
/// A node tracks a small, slowly-growing set of (server, message type)
/// pairs, but records into them on every single RPC — so the map's buckets
/// are pre-reserved to keep the hot path rehash-free, and a whole replayed
/// trace can be absorbed in one call via record_batch.
class EventForecasterBank {
 public:
  /// `expected_events` pre-reserves hash buckets; the default comfortably
  /// covers a node talking to a few dozen servers with a handful of message
  /// types each.
  explicit EventForecasterBank(std::size_t expected_events = 64) {
    bank_.reserve(expected_events);
  }

  /// Record a measurement (e.g. a request/response round-trip, in
  /// microseconds) for the event.
  void record(const EventTag& tag, double value);

  /// Record a whole measurement trace for the event with a single tag
  /// lookup (replayed simulator traces, bulk imports).
  void record_batch(const EventTag& tag, std::span<const double> values);

  /// Forecast for the event; Forecast::samples == 0 means never measured.
  [[nodiscard]] Forecast forecast(const EventTag& tag) const;

  [[nodiscard]] std::size_t tracked_events() const { return bank_.size(); }
  [[nodiscard]] bool knows(const EventTag& tag) const { return bank_.contains(tag); }

  /// The event's forecaster, created on first use. The reference stays
  /// valid for the bank's lifetime, so callers may keep it.
  AdaptiveForecaster& stream(const EventTag& tag);

 private:
  std::unordered_map<EventTag, AdaptiveForecaster, EventTagHash> bank_;
};

/// RAII timing primitive: measures the time from construction to finish()
/// (or destruction) on the supplied clock and records it in the bank.
class ScopedEventTimer {
 public:
  ScopedEventTimer(EventForecasterBank& bank, const Clock& clock, EventTag tag)
      : bank_(bank), clock_(clock), tag_(std::move(tag)), start_(clock.now()) {}
  ~ScopedEventTimer() { finish(); }
  ScopedEventTimer(const ScopedEventTimer&) = delete;
  ScopedEventTimer& operator=(const ScopedEventTimer&) = delete;

  /// Record now; subsequent finish()/destruction does nothing.
  void finish() {
    if (done_) return;
    done_ = true;
    bank_.record(tag_, static_cast<double>(clock_.now() - start_));
  }
  /// Abandon the measurement (event failed; do not pollute the stream).
  void dismiss() { done_ = true; }

 private:
  EventForecasterBank& bank_;
  const Clock& clock_;
  EventTag tag_;
  TimePoint start_;
  bool done_ = false;
};

}  // namespace ew
