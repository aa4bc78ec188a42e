// c100k_soak — the sharded real-network scale gate.
//
// The multi-core successor to c10k_soak: N reactor shards (ReactorShardPool,
// one OS thread each), every shard running a server Node whose transport
// binds the SAME port with SO_REUSEPORT so the kernel spreads inbound
// connections across shards with no accept lock. Clients (each its own
// Node + TcpTransport, a real kernel connection, closed-loop call/await/
// call) are distributed round-robin over the same shards. All traffic rides
// the PR-6 zero-copy wire path: single-allocation routed encode, iovec
// scatter-gather flush, recv-into-parser + view dispatch.
//
// The harness verifies scale *and* correctness: every call completes
// exactly once — zero lost, zero duplicated, zero failed replies, zero
// stuck clients — across shard boundaries (a client on shard 0 may be
// served by shard 3; the reply must come back over the same connection).
// Exit status is non-zero on any violation, so bench_smoke and the
// sanitizer/TSan lanes gate on it. Cross-shard metrics correctness rides
// along: every transport updates the shared net.* gauges by atomic delta
// from its own thread, with per-shard {shard=K} twins for attribution.
//
// Emits one machine-readable JSON line (see EXPERIMENTS.md):
//   {"bench":"c100k_soak","shards":4,"connections":...}
//
// Full scale (20k conns / 4+ shards / >=10x single-reactor throughput)
// needs a multi-core box and an fd budget of ~3 fds per client; the
// harness self-caps to RLIMIT_NOFILE and reports what it ran. The
// throughput gate is therefore opt-in: --min-rate R fails the run under R
// calls/s; correctness is always gated.
//
// Flags: --quick (CI smoke: 4 shards, 400 conns, 0.7 s), --shards N,
// --conns N, --seconds S, --min-rate R.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.hpp"
#include "net/node.hpp"
#include "net/shard_pool.hpp"
#include "net/tcp.hpp"
#include "net/tcp_transport.hpp"
#include "obs/registry.hpp"

namespace ew {
namespace {

constexpr MsgType kEcho = 0x77;

struct Client {
  std::size_t shard = 0;
  std::unique_ptr<TcpTransport> transport;
  std::unique_ptr<Node> node;
  // Touched only from the owning shard's thread; the main thread reads them
  // via ReactorShardPool::run_on, which synchronizes.
  bool reply_pending = false;
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t duplicates = 0;
};

struct Shard {
  std::unique_ptr<TcpTransport> server_transport;
  std::unique_ptr<Node> server;
  std::vector<std::size_t> clients;           // indices into Harness::clients
  std::vector<std::uint64_t> latencies_us;    // shard-thread only
};

struct Harness {
  ReactorShardPool* pool = nullptr;
  Endpoint server_ep;
  std::vector<Client> clients;
  std::vector<Shard> shards;
  Bytes payload;
  std::atomic<bool> running{true};

  // Shard-thread only (the callback chain keeps each client on its shard).
  void issue(std::size_t i) {
    Client& c = clients[i];
    Reactor& r = pool->reactor(c.shard);
    c.reply_pending = true;
    ++c.issued;
    const TimePoint t0 = r.now();
    c.node->call(server_ep, kEcho, payload, CallOptions::fixed(30 * kSecond),
                 [this, i, t0, &r](Result<Bytes> res) {
                   Client& cl = clients[i];
                   if (!cl.reply_pending) {
                     ++cl.duplicates;
                     return;
                   }
                   cl.reply_pending = false;
                   if (res.ok()) {
                     ++cl.completed;
                     shards[cl.shard].latencies_us.push_back(
                         static_cast<std::uint64_t>(r.now() - t0));
                   } else {
                     ++cl.failed;
                   }
                   if (running.load(std::memory_order_relaxed)) issue(i);
                 });
  }
};

struct Totals {
  std::uint64_t issued = 0, completed = 0, failed = 0, dups = 0, stuck = 0;
  std::size_t server_conns = 0;
};

/// Snapshot all per-client counters and server connection counts. Runs the
/// sum on each shard's own thread (run_on), so reading the shard-owned
/// fields is synchronized, never racy.
Totals sample(Harness& h) {
  Totals t;
  for (std::size_t s = 0; s < h.shards.size(); ++s) {
    h.pool->run_on(s, [&] {
      t.server_conns += h.shards[s].server_transport->open_connections();
      for (std::size_t i : h.shards[s].clients) {
        const Client& c = h.clients[i];
        t.issued += c.issued;
        t.completed += c.completed;
        t.failed += c.failed;
        t.dups += c.duplicates;
        t.stuck += c.reply_pending ? 1 : 0;
      }
    });
  }
  return t;
}

std::uint64_t percentile(std::vector<std::uint64_t>& v, double p) {
  if (v.empty()) return 0;
  const std::size_t idx =
      static_cast<std::size_t>(p * static_cast<double>(v.size() - 1));
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
  std::size_t nshards = 4;
  std::size_t conns = 20000;
  Duration measure = 10 * kSecond;
  double min_rate = 0;  // opt-in throughput gate
  bool conns_explicit = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      if (!conns_explicit) conns = 400;
      measure = 700 * kMillisecond;
    } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      nshards = static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--conns") == 0 && i + 1 < argc) {
      conns = static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
      conns_explicit = true;
    } else if (std::strcmp(argv[i], "--seconds") == 0 && i + 1 < argc) {
      measure = static_cast<Duration>(std::strtod(argv[++i], nullptr) *
                                      static_cast<double>(kSecond));
    } else if (std::strcmp(argv[i], "--min-rate") == 0 && i + 1 < argc) {
      min_rate = std::strtod(argv[++i], nullptr);
    } else {
      std::fprintf(stderr,
                   "usage: c100k_soak [--quick] [--shards N] [--conns N] "
                   "[--seconds S] [--min-rate R]\n");
      return 2;
    }
  }
  if (nshards == 0) nshards = 1;

  // Scale to the fd budget: each client costs ~3 fds (its listener, the
  // outbound socket, the server-side accepted socket).
  rlimit rl{};
  getrlimit(RLIMIT_NOFILE, &rl);
  if (rl.rlim_cur < rl.rlim_max) {
    rl.rlim_cur = rl.rlim_max;
    setrlimit(RLIMIT_NOFILE, &rl);
    getrlimit(RLIMIT_NOFILE, &rl);
  }
  const std::size_t fd_budget =
      rl.rlim_cur > 96 ? static_cast<std::size_t>(rl.rlim_cur) - 96 : 0;
  if (conns * 3 > fd_budget) {
    conns = fd_budget / 3;
    std::fprintf(stderr,
                 "c100k_soak: RLIMIT_NOFILE=%llu caps run at %zu conns\n",
                 static_cast<unsigned long long>(rl.rlim_cur), conns);
  }
  if (conns < nshards) conns = nshards;
  if (conns == 0) {
    std::fprintf(stderr, "c100k_soak: no fd budget\n");
    return 2;
  }

  // Reserve one distinct loopback port per client endpoint (plus one for
  // the shared server port) by holding OS-assigned listeners open, then
  // releasing them just before the real binds.
  std::vector<std::uint16_t> ports(conns + 1);
  {
    std::vector<Fd> held;
    held.reserve(conns + 1);
    for (std::size_t i = 0; i <= conns; ++i) {
      auto l = tcp_listen(0);
      if (!l) {
        std::fprintf(stderr, "c100k_soak: listen: %s\n",
                     l.error().to_string().c_str());
        return 2;
      }
      ports[i] = *local_port(*l);
      held.push_back(std::move(*l));
    }
  }
  const Endpoint server_ep{"127.0.0.1", ports[conns]};

  ReactorShardPool pool(nshards);

  Harness h;
  h.pool = &pool;
  h.server_ep = server_ep;
  h.payload.assign(64, 0xAB);
  h.shards.resize(nshards);
  h.clients.resize(conns);

  // Per-shard server: same endpoint, SO_REUSEPORT — the kernel distributes
  // inbound connections across the shards' listeners.
  for (std::size_t s = 0; s < nshards; ++s) {
    Shard& sh = h.shards[s];
    sh.server_transport = std::make_unique<TcpTransport>(
        pool.reactor(s), "shard=" + std::to_string(s));
    sh.server_transport->set_reuse_port(true);
    sh.server =
        std::make_unique<Node>(pool.reactor(s), *sh.server_transport, server_ep);
    if (Status st = sh.server->start(); !st.ok()) {
      std::fprintf(stderr, "c100k_soak: server shard %zu start: %s\n", s,
                   st.to_string().c_str());
      return 2;
    }
    sh.server->handle(kEcho, [](const IncomingMessage& m, Responder r) {
      r.ok(m.packet.payload);
    });
  }

  // Clients round-robin over the shards.
  for (std::size_t i = 0; i < conns; ++i) {
    const std::size_t s = i % nshards;
    Client& c = h.clients[i];
    c.shard = s;
    c.transport = std::make_unique<TcpTransport>(pool.reactor(s));
    c.node = std::make_unique<Node>(pool.reactor(s), *c.transport,
                                    Endpoint{"127.0.0.1", ports[i]});
    if (Status st = c.node->start(); !st.ok()) {
      std::fprintf(stderr, "c100k_soak: client %zu start: %s\n", i,
                   st.to_string().c_str());
      return 2;
    }
    h.shards[s].clients.push_back(i);
  }

  pool.start();

  // Ignition: each client fires its first call (dialling its connection)
  // from its own shard thread. Batched so the accept queues keep pace.
  for (std::size_t i = 0; i < conns; ++i) {
    pool.post(h.clients[i].shard, [&h, i] { h.issue(i); });
    if (i % 500 == 499) std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  // Warm-up: wait until every connection is up before opening the measure
  // window, so rate and concurrency reflect steady state.
  const auto warm_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (std::chrono::steady_clock::now() < warm_deadline) {
    if (sample(h).server_conns >= conns) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }

  const Totals warm = sample(h);
  for (std::size_t s = 0; s < nshards; ++s) {
    pool.run_on(s, [&h, s] { h.shards[s].latencies_us.clear(); });
  }

  const auto t_start = std::chrono::steady_clock::now();
  std::size_t max_server_conns = 0;
  std::vector<std::size_t> per_shard_conns(nshards, 0);
  for (;;) {
    const auto now = std::chrono::steady_clock::now();
    if (now - t_start >= std::chrono::microseconds(measure)) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    std::size_t total = 0;
    for (std::size_t s = 0; s < nshards; ++s) {
      pool.run_on(s, [&] {
        const std::size_t n = h.shards[s].server_transport->open_connections();
        per_shard_conns[s] = std::max(per_shard_conns[s], n);
        total += n;
      });
    }
    max_server_conns = std::max(max_server_conns, total);
  }
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t_start)
          .count();
  const Totals window = sample(h);
  h.running.store(false, std::memory_order_relaxed);

  // Drain: let every in-flight call resolve (30 s call time-out bounds it).
  const auto drain_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(35);
  Totals fin = sample(h);
  while (fin.stuck != 0 && std::chrono::steady_clock::now() < drain_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    fin = sample(h);
  }

  // Merge per-shard latencies (shards are parked now; run_on synchronizes).
  std::vector<std::uint64_t> latencies;
  for (std::size_t s = 0; s < nshards; ++s) {
    pool.run_on(s, [&] {
      latencies.insert(latencies.end(), h.shards[s].latencies_us.begin(),
                       h.shards[s].latencies_us.end());
    });
  }

  // Tear down every node/transport on its own shard thread, then stop.
  for (std::size_t s = 0; s < nshards; ++s) {
    pool.run_on(s, [&h, s] {
      for (std::size_t i : h.shards[s].clients) {
        h.clients[i].node.reset();
        h.clients[i].transport.reset();
      }
      h.shards[s].server.reset();
      h.shards[s].server_transport.reset();
    });
  }
  pool.stop();

  const std::uint64_t window_completed = window.completed - warm.completed;
  const std::uint64_t lost = fin.issued - fin.completed - fin.failed;
  const double calls_per_s =
      secs > 0 ? static_cast<double>(window_completed) / secs : 0;
  std::size_t shards_used = 0;
  for (std::size_t n : per_shard_conns) shards_used += n > 0 ? 1 : 0;

  bench::JsonWriter shard_conns;
  for (std::size_t s = 0; s < nshards; ++s) {
    shard_conns.u64(("shard" + std::to_string(s)).c_str(), per_shard_conns[s]);
  }
  bench::JsonWriter w;
  w.u64("shards", nshards)
      .u64("connections", conns)
      .u64("max_server_conns", max_server_conns)
      .u64("shards_used", shards_used)
      .raw("per_shard_conns", shard_conns.object())
      .u64("calls", window_completed)
      .u64("lost", lost)
      .u64("duplicates", fin.dups)
      .u64("failed", fin.failed)
      .f("calls_per_s", calls_per_s, 1)
      .f("msgs_per_s", 2 * calls_per_s, 1)  // one request + one reply per call
      .u64("p50_us", percentile(latencies, 0.50))
      .u64("p99_us", percentile(latencies, 0.99))
      .u64("backpressure_rejects",
           obs::registry().counter(obs::names::kNetBackpressureRejects).value())
      .u64("max_rss_kb", max_rss_kb());
  bench::emit_json("c100k_soak", w);

  if (lost != 0 || fin.dups != 0 || fin.failed != 0 || fin.stuck != 0) {
    std::fprintf(stderr,
                 "c100k_soak: FAILED: lost=%llu dups=%llu failed=%llu "
                 "stuck=%llu\n",
                 static_cast<unsigned long long>(lost),
                 static_cast<unsigned long long>(fin.dups),
                 static_cast<unsigned long long>(fin.failed),
                 static_cast<unsigned long long>(fin.stuck));
    return 1;
  }
  // Scale assertion: every client actually held its connection concurrently.
  if (max_server_conns < conns) {
    std::fprintf(stderr, "c100k_soak: only %zu/%zu concurrent connections\n",
                 max_server_conns, conns);
    return 1;
  }
  // Distribution assertion: SO_REUSEPORT actually spread the load. The
  // kernel hashes by 4-tuple, so with >=64 connections landing on one
  // shard out of several is (astronomically) improbable.
  if (nshards >= 2 && conns >= 64 && shards_used < 2) {
    std::fprintf(stderr,
                 "c100k_soak: all %zu connections landed on one of %zu "
                 "shards — SO_REUSEPORT distribution broken\n",
                 conns, nshards);
    return 1;
  }
  if (min_rate > 0 && calls_per_s < min_rate) {
    std::fprintf(stderr, "c100k_soak: %.1f calls/s under --min-rate %.1f\n",
                 calls_per_s, min_rate);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace ew

int main(int argc, char** argv) { return ew::run(argc, argv); }
