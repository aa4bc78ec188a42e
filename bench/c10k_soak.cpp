// c10k_soak — the real-network scale gate.
//
// Drives thousands of concurrent loopback TCP connections through the full
// stack (Reactor + TcpTransport + Node::call with the reliable-call layer)
// on ONE single-threaded reactor, the paper's server shape. Each client is
// its own Node + TcpTransport (so each holds a real kernel connection to the
// server) running a closed loop: call, await reply, call again.
//
// At 2000 connections the fd numbers blow past FD_SETSIZE, which select()
// cannot watch — the reason the Reactor waits on epoll. The harness verifies
// scale *and* correctness: every call must complete exactly once (zero lost,
// zero duplicated replies), which exercises the fd-generation dispatch
// guards under thousands of live watchers.
//
// Emits one machine-readable JSON line (see EXPERIMENTS.md):
//   {"bench":"c10k_soak","connections":2000,...}
// Exit status is non-zero on any lost/duplicated reply or failed call, so
// bench_smoke (and the EW_SANITIZE lane) gate on it.
//
// Flags: --quick (small run for CI), --conns N, --seconds S.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "net/node.hpp"
#include "net/reactor.hpp"
#include "net/tcp.hpp"
#include "net/tcp_transport.hpp"
#include "obs/registry.hpp"

namespace ew {
namespace {

constexpr MsgType kEcho = 0x77;

struct Client {
  std::unique_ptr<TcpTransport> transport;
  std::unique_ptr<Node> node;
  bool reply_pending = false;
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t duplicates = 0;
};

struct Harness {
  Reactor* reactor = nullptr;
  Endpoint server_ep;
  std::vector<Client> clients;
  std::vector<std::uint64_t> latencies_us;
  Bytes payload;
  bool running = true;

  void issue(std::size_t i) {
    Client& c = clients[i];
    c.reply_pending = true;
    ++c.issued;
    const TimePoint t0 = reactor->now();
    c.node->call(server_ep, kEcho, payload, CallOptions::fixed(30 * kSecond),
                 [this, i, t0](Result<Bytes> r) {
                   Client& cl = clients[i];
                   if (!cl.reply_pending) {
                     ++cl.duplicates;
                     return;
                   }
                   cl.reply_pending = false;
                   if (r.ok()) {
                     ++cl.completed;
                     latencies_us.push_back(
                         static_cast<std::uint64_t>(reactor->now() - t0));
                   } else {
                     ++cl.failed;
                   }
                   if (running) issue(i);
                 });
  }
};

std::uint64_t percentile(std::vector<std::uint64_t>& v, double p) {
  if (v.empty()) return 0;
  const std::size_t idx = static_cast<std::size_t>(
      p * static_cast<double>(v.size() - 1));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx),
                   v.end());
  return v[idx];
}

std::uint64_t max_rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::uint64_t>(ru.ru_maxrss);  // KB on Linux
}

int run(int argc, char** argv) {
  std::size_t conns = 2000;
  Duration measure = 3 * kSecond;
  bool conns_explicit = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      if (!conns_explicit) conns = 200;
      measure = 700 * kMillisecond;
    } else if (std::strcmp(argv[i], "--conns") == 0 && i + 1 < argc) {
      conns = static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
      conns_explicit = true;
    } else if (std::strcmp(argv[i], "--seconds") == 0 && i + 1 < argc) {
      measure = static_cast<Duration>(std::strtod(argv[++i], nullptr) *
                                      static_cast<double>(kSecond));
    } else {
      std::fprintf(stderr,
                   "usage: c10k_soak [--quick] [--conns N] [--seconds S]\n");
      return 2;
    }
  }

  // Scale to the fd budget: each client costs ~3 fds (listener, outbound
  // socket, server-side accepted socket) plus reactor overhead.
  rlimit rl{};
  getrlimit(RLIMIT_NOFILE, &rl);
  if (rl.rlim_cur < rl.rlim_max) {
    rl.rlim_cur = rl.rlim_max;
    setrlimit(RLIMIT_NOFILE, &rl);
    getrlimit(RLIMIT_NOFILE, &rl);
  }
  const std::size_t fd_budget =
      rl.rlim_cur > 64 ? static_cast<std::size_t>(rl.rlim_cur) - 64 : 0;
  if (conns * 3 > fd_budget) {
    conns = fd_budget / 3;
    std::fprintf(stderr, "c10k_soak: RLIMIT_NOFILE=%llu caps run at %zu conns\n",
                 static_cast<unsigned long long>(rl.rlim_cur), conns);
  }
  if (conns == 0) {
    std::fprintf(stderr, "c10k_soak: no fd budget\n");
    return 2;
  }

  // Reserve one distinct loopback port per endpoint by holding OS-assigned
  // listeners open simultaneously, then releasing them just before the real
  // binds (the same trick the reactor/TCP tests use).
  std::vector<std::uint16_t> ports(conns + 1);
  {
    std::vector<Fd> held;
    held.reserve(conns + 1);
    for (std::size_t i = 0; i <= conns; ++i) {
      auto l = tcp_listen(0);
      if (!l) {
        std::fprintf(stderr, "c10k_soak: listen: %s\n",
                     l.error().to_string().c_str());
        return 2;
      }
      ports[i] = *local_port(*l);
      held.push_back(std::move(*l));
    }
  }

  Reactor reactor;
  TcpTransport server_transport(reactor);
  Node server(reactor, server_transport, Endpoint{"127.0.0.1", ports[conns]});
  if (Status s = server.start(); !s.ok()) {
    std::fprintf(stderr, "c10k_soak: server start: %s\n", s.to_string().c_str());
    return 2;
  }
  server.handle(kEcho, [](const IncomingMessage& m, Responder r) {
    r.ok(m.packet.payload);
  });

  Harness h;
  h.reactor = &reactor;
  h.server_ep = server.self();
  h.payload.assign(64, 0xAB);
  h.clients.resize(conns);
  for (std::size_t i = 0; i < conns; ++i) {
    Client& c = h.clients[i];
    c.transport = std::make_unique<TcpTransport>(reactor);
    c.node = std::make_unique<Node>(reactor, *c.transport,
                                    Endpoint{"127.0.0.1", ports[i]});
    if (Status s = c.node->start(); !s.ok()) {
      std::fprintf(stderr, "c10k_soak: client %zu start: %s\n", i,
                   s.to_string().c_str());
      return 2;
    }
  }

  // Ignition: every client fires its first call, which also dials its
  // connection. Issued in waves with reactor turns between so the server's
  // accept loop keeps pace with the connection storm. From here each reply
  // triggers the next call.
  for (std::size_t i = 0; i < conns; ++i) {
    h.issue(i);
    if (i % 100 == 99) reactor.run_for(5 * kMillisecond);
  }
  // Warm-up: wait for the full connection count before opening the measure
  // window, so the reported rate and concurrency reflect steady state.
  const TimePoint warm_deadline = reactor.now() + 15 * kSecond;
  while (server_transport.open_connections() < conns &&
         reactor.now() < warm_deadline) {
    reactor.run_for(20 * kMillisecond);
  }

  std::uint64_t warm_completed = 0;
  for (const Client& c : h.clients) warm_completed += c.completed;
  h.latencies_us.clear();

  const TimePoint t_start = reactor.now();
  std::size_t max_server_conns = 0;
  while (reactor.now() - t_start < measure) {
    reactor.run_for(50 * kMillisecond);
    max_server_conns =
        std::max(max_server_conns, server_transport.open_connections());
  }
  h.running = false;
  const Duration elapsed = reactor.now() - t_start;
  std::uint64_t window_completed = 0;
  for (const Client& c : h.clients) window_completed += c.completed;
  window_completed -= warm_completed;

  // Drain: let every in-flight call resolve (30 s call time-out bounds it).
  for (int grace = 0; grace < 800; ++grace) {
    bool pending = false;
    for (const Client& c : h.clients) pending |= c.reply_pending;
    if (!pending) break;
    reactor.run_for(50 * kMillisecond);
  }

  std::uint64_t issued = 0, completed = 0, failed = 0, dups = 0, stuck = 0;
  for (const Client& c : h.clients) {
    issued += c.issued;
    completed += c.completed;
    failed += c.failed;
    dups += c.duplicates;
    stuck += c.reply_pending ? 1 : 0;
  }
  const std::uint64_t lost = issued - completed - failed;
  const double secs = static_cast<double>(elapsed) / kSecond;
  const double calls_per_s =
      secs > 0 ? static_cast<double>(window_completed) / secs : 0;

  bench::JsonWriter w;
  w.u64("connections", conns)
      .u64("max_server_conns", max_server_conns)
      .u64("calls", window_completed)
      .u64("lost", lost)
      .u64("duplicates", dups)
      .u64("failed", failed)
      .f("calls_per_s", calls_per_s, 1)
      .f("msgs_per_s", 2 * calls_per_s, 1)  // one request + one reply per call
      .u64("p50_us", percentile(h.latencies_us, 0.50))
      .u64("p99_us", percentile(h.latencies_us, 0.99))
      .u64("backpressure_rejects",
           obs::registry().counter(obs::names::kNetBackpressureRejects).value())
      .u64("max_rss_kb", max_rss_kb());
  bench::emit_json("c10k_soak", w);

  if (lost != 0 || dups != 0 || failed != 0 || stuck != 0) {
    std::fprintf(stderr,
                 "c10k_soak: FAILED: lost=%llu dups=%llu failed=%llu "
                 "stuck=%llu\n",
                 static_cast<unsigned long long>(lost),
                 static_cast<unsigned long long>(dups),
                 static_cast<unsigned long long>(failed),
                 static_cast<unsigned long long>(stuck));
    return 1;
  }
  // Scale assertion: every client actually held its connection concurrently.
  if (max_server_conns < conns) {
    std::fprintf(stderr, "c10k_soak: only %zu/%zu concurrent connections\n",
                 max_server_conns, conns);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace ew

int main(int argc, char** argv) { return ew::run(argc, argv); }
