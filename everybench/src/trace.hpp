// Benchmark-owned tracing for the traced run.
//
// Spans are recorded from outside the program: a Transport decorator times
// every send and every delivery to a bound endpoint, an Executor decorator
// times timer arm/cancel/fire, and the workloads open spans around their
// own handler and callback code and around each Reactor::run_for slice.
// Spans nest strictly (one reactor thread), so a span's self time is its
// duration minus the durations of its direct children; the buffer keeps
// those per-name aggregates online and retains the first spans in memory,
// written out once when the run ends.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common.hpp"
#include "net/executor.hpp"
#include "net/transport.hpp"

namespace eb {

enum class SpanName : std::uint8_t {
  kRunFor = 0,     // one Reactor::run_for slice; self time = poll/recv/parse
  kDeliver,        // bound PacketHandler of a client/echo Node
  kSchedDeliver,   // bound PacketHandler of the scheduler Node
  kSend,           // Transport::send (encode, checksum, sendmsg)
  kTimerSchedule,  // Executor::schedule
  kTimerCancel,    // Executor::cancel
  kTimerFire,      // a scheduled callback running
  kBenchApp,       // the benchmark's own handler / callback code
  kCount
};

const char* span_name(SpanName n);

class SpanBuffer {
 public:
  struct Span {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  // 0 = root
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    SpanName name = SpanName::kRunFor;
    std::uint32_t node = 0;  // request id: node index ...
    std::uint64_t seq = 0;   // ... plus packet seq (0 when unknown)
  };
  struct Aggregate {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };

  explicit SpanBuffer(std::size_t retain = 200'000);

  /// Recording is off until enabled; begin/end are no-ops while off.
  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  void begin(SpanName name, std::uint32_t node = 0, std::uint64_t seq = 0);
  void end();

  [[nodiscard]] const Aggregate& aggregate(SpanName n) const {
    return agg_[static_cast<std::size_t>(n)];
  }
  [[nodiscard]] std::uint64_t recorded() const { return next_id_ - 1; }

  /// Write the retained spans as tab-separated lines; returns false on an
  /// I/O error. Called once, after the measured window.
  bool write(const std::string& path) const;

 private:
  struct Open {
    std::uint64_t id;
    std::uint64_t parent;
    std::int64_t start_ns;
    std::int64_t child_ns;
    SpanName name;
    std::uint32_t node;
    std::uint64_t seq;
  };

  bool enabled_ = false;
  std::size_t retain_;
  std::uint64_t next_id_ = 1;
  std::vector<Open> stack_;
  std::vector<Span> retained_;
  Aggregate agg_[static_cast<std::size_t>(SpanName::kCount)]{};
};

/// RAII span; a null buffer makes it free.
class SpanScope {
 public:
  SpanScope(SpanBuffer* buf, SpanName name, std::uint32_t node = 0,
            std::uint64_t seq = 0)
      : buf_(buf != nullptr && buf->enabled() ? buf : nullptr) {
    if (buf_) buf_->begin(name, node, seq);
  }
  ~SpanScope() {
    if (buf_) buf_->end();
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanBuffer* buf_;
};

/// Frames a workload actually sent, kept for the layer timings.
struct RecordedFrame {
  ew::Endpoint from;
  ew::Endpoint to;
  ew::Packet packet;
};

/// Transport decorator: a kSend span around every send, a `deliver` span
/// around every delivery to a bound endpoint, and a copy of the first
/// `record_limit` packets sent (per packet kind).
class TracingTransport final : public ew::Transport {
 public:
  TracingTransport(ew::Transport& inner, SpanBuffer& spans, SpanName deliver,
                   std::uint32_t node, std::size_t record_limit);

  ew::Status bind(const ew::Endpoint& self, ew::PacketHandler handler) override;
  void unbind(const ew::Endpoint& self) override { inner_.unbind(self); }
  ew::Status send(const ew::Endpoint& from, const ew::Endpoint& to,
                  ew::Packet packet) override;

  [[nodiscard]] std::uint64_t sends() const { return sends_; }
  [[nodiscard]] const std::vector<RecordedFrame>& recorded() const {
    return recorded_;
  }

 private:
  ew::Transport& inner_;
  SpanBuffer& spans_;
  SpanName deliver_;
  std::uint32_t node_;
  std::size_t record_limit_;
  std::size_t recorded_requests_ = 0;
  std::size_t recorded_responses_ = 0;
  std::uint64_t sends_ = 0;
  std::vector<RecordedFrame> recorded_;
};

/// Executor decorator handed to the Nodes: spans around schedule/cancel and
/// around each timer callback when it fires.
class TracingExecutor final : public ew::Executor {
 public:
  TracingExecutor(ew::Executor& inner, SpanBuffer& spans)
      : inner_(inner), spans_(spans) {}

  [[nodiscard]] const ew::Clock& clock() const override { return inner_.clock(); }
  void post(std::function<void()> fn) override;
  ew::TimerId schedule(ew::Duration delay, std::function<void()> fn) override;
  void cancel(ew::TimerId id) override;

  [[nodiscard]] std::uint64_t schedules() const { return schedules_; }
  [[nodiscard]] std::uint64_t cancels() const { return cancels_; }

 private:
  std::function<void()> wrap(std::function<void()> fn);

  ew::Executor& inner_;
  SpanBuffer& spans_;
  std::uint64_t schedules_ = 0;
  std::uint64_t cancels_ = 0;
};

}  // namespace eb
