// A one-reactor loopback TCP rig: one server Node and N client Nodes, each
// Node on its own TcpTransport (so each client holds its own kernel
// connection to the server). In a traced run every Node gets the tracing
// decorators; otherwise the Nodes sit directly on the Reactor and the
// TcpTransports.
#pragma once

#include <memory>
#include <vector>

#include "common.hpp"
#include "layers.hpp"
#include "net/node.hpp"
#include "net/reactor.hpp"
#include "net/tcp_transport.hpp"
#include "trace.hpp"

namespace eb {

class LoopbackRig {
 public:
  /// `server_deliver` names the server's delivery spans; `record_limit`
  /// bounds the frames each transport keeps in a traced run.
  LoopbackRig(std::size_t clients, bool traced, SpanName server_deliver,
              std::size_t record_limit);
  LoopbackRig(const LoopbackRig&) = delete;
  LoopbackRig& operator=(const LoopbackRig&) = delete;

  /// Reserve loopback ports and bind every Node. False (with a message on
  /// stderr) if the OS refuses.
  bool start();

  ew::Reactor& reactor() { return reactor_; }
  ew::Node& server() { return *server_.node; }
  ew::Node& client(std::size_t i) { return *clients_[i].node; }
  [[nodiscard]] std::size_t clients() const { return n_clients_; }
  /// Connections the server side has accepted.
  [[nodiscard]] std::size_t server_connections() const {
    return server_.tcp->open_connections();
  }
  /// The span buffer of a traced rig; null when untraced.
  [[nodiscard]] SpanBuffer* spans() { return spans_.get(); }

  /// Run the reactor for `d`, inside a run_for span when traced.
  void run_for(ew::Duration d);

  // Traced-run records, taken while the spans are enabled.
  /// Request frames the clients sent.
  [[nodiscard]] std::vector<RecordedFrame> request_frames() const;
  /// Round-trip times (µs) the client Nodes observed.
  [[nodiscard]] const std::vector<double>& rtt_us() const { return rtt_us_; }
  [[nodiscard]] std::uint64_t sends() const;
  [[nodiscard]] std::uint64_t timer_schedules() const {
    return exec_ ? exec_->schedules() : 0;
  }
  [[nodiscard]] std::uint64_t timer_cancels() const { return exec_ ? exec_->cancels() : 0; }

 private:
  struct Member {
    std::unique_ptr<ew::TcpTransport> tcp;
    std::unique_ptr<TracingTransport> traced;
    std::unique_ptr<ew::Node> node;
  };
  Member make_member(std::uint16_t port, SpanName deliver, std::uint32_t id);

  std::unique_ptr<SpanBuffer> spans_;
  SpanName server_deliver_;
  std::size_t record_limit_;
  std::vector<double> rtt_us_;
  ew::Reactor reactor_;
  std::unique_ptr<TracingExecutor> exec_;
  Member server_;
  std::vector<Member> clients_;
  std::size_t n_clients_;
};

/// One measured window on a loopback rig and what was read around it.
struct LoopbackWindow {
  LoopbackWindow(double slice_s, bool pooled_latency) : slices(slice_s, pooled_latency) {}
  SlicedWindow slices;
  ProcWindow proc;
  CounterSnapshot counters;
  std::uint64_t calls = 0;
  double seconds = 0;
};

/// Run the window for `seconds` in 20 ms reactor turns, with the rig's
/// spans (if traced) enabled for exactly the window. `done()` counts
/// completed calls.
template <typename Done>
void measure(LoopbackRig& rig, LoopbackWindow& w, double seconds, Done done) {
  const CounterSnapshot c0 = CounterSnapshot::take();
  if (rig.spans()) rig.spans()->set_enabled(true);
  SlicedWindow& s = w.slices;
  s.start(done());
  while (!s.elapsed(seconds)) {
    rig.run_for(20 * ew::kMillisecond);
    s.tick(done());
  }
  s.stop();
  w.seconds = seconds_since(s.start_ns());
  w.proc = ProcWindow::between(s.start_proc(), ProcSample::now());
  w.calls = done() - s.start_done();
  if (rig.spans()) rig.spans()->set_enabled(false);
  w.counters = CounterSnapshot::take().minus(c0);
}

/// Print the window's summary line and set what both loopback workloads
/// report: untraced, the end-to-end metrics (`calls_per_round` calls make
/// one run_s round, `setups` are the set-up times); traced, the shared
/// per-layer metrics, and write the spans to args.span_out.
void report(RunResult& out, const char* workload, LoopbackRig& rig, LoopbackWindow& w,
            double calls_per_round, const std::vector<double>& setups, const RunArgs& args);

}  // namespace eb
