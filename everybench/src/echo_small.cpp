// echo_small: 64-byte echo calls over real loopback TCP through Node::call.
//
// Four client Nodes, each with its own connection and one call outstanding
// (closed loop: a client issues its next call from the previous call's
// callback), and the echo server, all on one Reactor thread. Small frames
// make the fixed per-call cost dominate: syscalls, connection and endpoint
// maps, Node bookkeeping, one timer arm and cancel, one forecaster observe.
#include <memory>

#include "common/rng.hpp"
#include "loopback.hpp"

namespace eb {
namespace {

constexpr ew::MsgType kEcho = 0x77;
constexpr std::size_t kClients = 4;
constexpr std::size_t kPayloadBytes = 64;
constexpr std::size_t kPayloadPool = 1024;
constexpr std::uint64_t kCallsPerRound = 50'000;  // run_s unit of work
constexpr double kSliceSeconds = 0.2;
constexpr int kSetupRepeats = 51;

struct Client {
  ew::Bytes request;  // the outstanding call's payload, for the reply check
  bool pending = false;
  std::int64_t issued_ns = 0;
};

/// The closed loop and its checks. Lives as long as the rig it drives.
class EchoLoop {
 public:
  EchoLoop(LoopbackRig& rig, std::uint64_t seed, const std::string& corrupt)
      : rig_(rig), spans_(rig.spans()), corrupt_(corrupt), clients_(rig.clients()) {
    ew::Rng rng(seed);
    pool_.resize(kPayloadPool, ew::Bytes(kPayloadBytes));
    for (ew::Bytes& p : pool_) {
      for (auto& b : p) b = static_cast<std::uint8_t>(rng.below(256));
    }
    rig_.server().handle(kEcho, [this](const ew::IncomingMessage& m, ew::Responder r) {
      SpanScope s(spans_, SpanName::kBenchApp, 0, m.packet.seq);
      r.ok(m.packet.payload);
    });
  }

  void issue(std::size_t i) {
    Client& c = clients_[i];
    // Unique payload per call: a pooled random body stamped with the
    // call number, so a reply swapped between calls cannot match.
    c.request = pool_[issued_ % kPayloadPool];
    for (int b = 0; b < 8; ++b) {
      c.request[static_cast<std::size_t>(b)] =
          static_cast<std::uint8_t>(issued_ >> (8 * b));
    }
    ++issued_;
    c.pending = true;
    c.issued_ns = now_ns();
    rig_.client(i).call(rig_.server().self(), kEcho, c.request,
                        ew::CallOptions::fixed(30 * ew::kSecond),
                        [this, i](ew::Result<ew::Bytes> r) { on_reply(i, std::move(r)); });
  }

  void on_reply(std::size_t i, ew::Result<ew::Bytes> r) {
    SpanScope s(spans_, SpanName::kBenchApp, static_cast<std::uint32_t>(i + 1));
    Client& c = clients_[i];
    const std::int64_t t = now_ns();
    if (!c.pending) {
      ++duplicates_;
      return;
    }
    const std::uint64_t n = completed_ + failed_;
    const bool inject = n == 100 && !corrupt_.empty() && !injected_;
    if (inject) injected_ = true;
    if (inject && corrupt_ == "drop") return;  // reply lost on the floor
    c.pending = false;
    if (!r.ok()) {
      ++failed_;
    } else {
      if (inject && corrupt_ == "reply") (*r)[kPayloadBytes / 2] ^= 0x01;
      if (*r != c.request) ++mismatched_;
      ++completed_;
      if (window_ != nullptr && window_->open()) window_->sample(t - c.issued_ns);
    }
    // The transport delivering this reply a second time.
    if (inject && corrupt_ == "dup") on_reply(i, ew::Bytes(c.request));
    if (running_) issue(i);
  }

  /// Let every outstanding call resolve (bounded by the call time-out).
  void drain() {
    running_ = false;
    for (int spin = 0; spin < 200 && outstanding() > 0; ++spin) {
      rig_.run_for(10 * ew::kMillisecond);
    }
  }

  [[nodiscard]] std::size_t outstanding() const {
    std::size_t n = 0;
    for (const Client& c : clients_) n += c.pending ? 1 : 0;
    return n;
  }

  void check(RunResult& out) const {
    const std::uint64_t lost = issued_ - completed_ - failed_;
    out.check(mismatched_ == 0, "echo: " + std::to_string(mismatched_) +
                                    " replies differ from their request");
    out.check(lost == 0, "echo: " + std::to_string(lost) + " calls lost");
    out.check(duplicates_ == 0,
              "echo: " + std::to_string(duplicates_) + " duplicate replies");
    out.check(failed_ == 0, "echo: " + std::to_string(failed_) + " calls failed");
  }

  LoopbackRig& rig_;
  SpanBuffer* spans_;
  std::string corrupt_;
  bool injected_ = false;
  std::vector<ew::Bytes> pool_;
  std::vector<Client> clients_;
  bool running_ = true;
  SlicedWindow* window_ = nullptr;  // the measured window's latency samples
  std::uint64_t issued_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t duplicates_ = 0;
  std::uint64_t mismatched_ = 0;
};

/// Bind a fresh rig and its loop and connect every client; returns the
/// set-up seconds (bind until the server holds every client connection),
/// or a negative value on failure.
double set_up(std::unique_ptr<LoopbackRig>& rig, std::unique_ptr<EchoLoop>& loop,
              const RunArgs& args) {
  loop.reset();
  rig.reset();
  const std::int64_t t0 = now_ns();
  rig = std::make_unique<LoopbackRig>(kClients, args.trace, SpanName::kDeliver, 2048);
  if (!rig->start()) return -1;
  loop = std::make_unique<EchoLoop>(*rig, args.seed, args.corrupt);
  for (std::size_t i = 0; i < kClients; ++i) loop->issue(i);
  const std::int64_t deadline = t0 + 10'000'000'000LL;
  while (rig->server_connections() < kClients) {
    if (now_ns() > deadline) return -1;
    rig->reactor().run_for(100);  // 100 µs turns: set-up is ~1 ms
  }
  return seconds_since(t0);
}

}  // namespace

RunResult run_echo_small(const RunArgs& args) {
  RunResult out;
  // Set-up time: the median over several fresh rigs; the last one runs.
  std::vector<double> setups;
  std::unique_ptr<LoopbackRig> rig;
  std::unique_ptr<EchoLoop> loop;
  for (int k = 0; k < kSetupRepeats; ++k) {
    const double s = set_up(rig, loop, args);
    if (s < 0) {
      out.check(false, "echo: set-up failed");
      return out;
    }
    setups.push_back(s);
  }
  // Warm-up: caches, forecasters and the kernel's socket buffers.
  rig->run_for(200 * ew::kMillisecond);

  LoopbackWindow w(kSliceSeconds, /*pooled_latency=*/false);
  loop->window_ = &w.slices;
  measure(*rig, w, args.seconds, [&] { return loop->completed_; });
  loop->drain();
  loop->check(out);
  out.attempted = loop->issued_;
  out.failed = loop->failed_;
  report(out, "echo_small", *rig, w, kCallsPerRound, setups, args);
  return out;
}

}  // namespace eb
