// The distributed logging service (paper Section 3.1.3).
//
// "Before the information is discarded, it is forwarded to a logging server
// so that it can be recorded. Having a separate service allows us to limit
// and control the storage load generated by the application."
//
// LoggingServer accepts one-way kLogRecord messages, keeps bounded storage
// (a ring of recent records plus running per-infrastructure totals), and
// feeds an optional sink — the benchmark harness installs one to build the
// 5-minute-average series of Figures 2-4.
#pragma once

#include <array>
#include <deque>
#include <functional>

#include "core/protocol.hpp"
#include "net/node.hpp"

namespace ew::core {

class LoggingServer {
 public:
  using Sink = std::function<void(const LogRecord&)>;

  struct Options {
    std::size_t retain_records = 10'000;  // bounded footprint (Section 3.1.2)
  };

  explicit LoggingServer(Node& node) : LoggingServer(node, Options{}) {}
  LoggingServer(Node& node, Options opts) : node_(node), opts_(opts) {}

  void start();
  void stop();

  void set_sink(Sink sink) { sink_ = std::move(sink); }

  [[nodiscard]] std::uint64_t records_received() const { return received_; }
  [[nodiscard]] std::uint64_t malformed() const { return malformed_; }
  /// Total ops reported for one infrastructure.
  [[nodiscard]] std::uint64_t total_ops(Infra i) const {
    return totals_[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] std::uint64_t total_ops() const;
  [[nodiscard]] const std::deque<LogRecord>& recent() const { return recent_; }

 private:
  void on_record(const IncomingMessage& msg);

  Node& node_;
  Options opts_;
  Sink sink_;
  bool running_ = false;
  std::uint64_t received_ = 0;
  std::uint64_t malformed_ = 0;
  std::array<std::uint64_t, kInfraCount> totals_{};
  std::deque<LogRecord> recent_;
};

}  // namespace ew::core
