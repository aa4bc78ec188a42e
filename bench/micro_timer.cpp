// Microbenchmark for the shared timer core, TimerQueue (net/timer_queue.hpp),
// which both the Reactor and the sim EventQueue wrap.
//
// At each of two queue depths (1,000 and 100,000 pending timers) it times
// rounds of K operations: K adds with random deadlines, K cancels of those
// same timers, then K pops of the earliest timers (each popped callable is
// run), after which the queue is refilled to its depth untimed. Deadlines
// are drawn ahead of the last popped deadline, as an executor's would be.
// One untimed round first grows the queue to its peak depth. Allocations
// are counted by a replacement global operator new (the micro_obs pattern)
// over the timed add and pop legs and reported per event (one add plus one
// pop), for a small closure that captures one pointer.
//
// The sim_deliver leg drives the sim's packet path on top of the same core:
// SimTransport::send into an EventQueue over a quiet NetworkModel (no loss,
// no jitter), then delivery to a bound handler, in rounds of K packets. The
// handler hands each payload buffer back to the sender's pool, so the
// packets themselves allocate nothing; after one warm-up round every
// allocation counted is the transport's or the queue's own. The host names
// are short, as every sc98 name is: a sender name past std::string's inline
// buffer (15 characters in libstdc++) costs one allocation per packet,
// because the delivered message takes the name's buffer with it.
//
// The timings are a baseline, not a gate. Three checks exit 1: a round's
// pops leaving (deadline, id) order, any allocation in the timed timer legs,
// and any allocation in the timed sim_deliver rounds.
// Emits ONE machine-readable JSON line (see EXPERIMENTS.md, "Timer-queue
// microbenchmark"):
//
//   {"bench":"micro_timer","rounds":...,"batch":...,
//    "ns_add_1k":...,"ns_cancel_1k":...,"ns_pop_1k":...,
//    "ns_add_100k":...,"ns_cancel_100k":...,"ns_pop_100k":...,
//    "allocs_per_event":...,"ns_sim_deliver":...,
//    "sim_deliver_allocs_per_packet":...,"checksum":...}
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "common/rng.hpp"
#include "net/timer_queue.hpp"
#include "sim/event_queue.hpp"
#include "sim/network_model.hpp"
#include "sim/sim_transport.hpp"

// Program-wide allocation counter (replaces the global operator new) so the
// allocations per event are measured, not assumed.
namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) { return operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace ew {
namespace {

double now_ns() {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct DepthResult {
  double ns_add = 0;
  double ns_cancel = 0;
  double ns_pop = 0;
  std::uint64_t events = 0;  // timed adds that were later popped
  std::uint64_t allocs = 0;  // during the timed add and pop legs
  bool ordered = true;
};

constexpr Duration kSpan = 10 * kSecond;  // deadline spread ahead of "now"

DepthResult run_depth(std::size_t depth, std::size_t batch, std::size_t rounds,
                      Rng& rng, std::uint64_t& sink) {
  TimerQueue<> q;
  TimePoint now = 0;
  auto fn = [&sink] { ++sink; };
  auto fill = [&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      q.add(now, static_cast<Duration>(rng.below(kSpan)), fn);
    }
  };
  fill(depth);
  // Warm-up: reach the peak depth (depth + batch) once, so the timed legs
  // measure a queue whose storage has stopped growing.
  fill(batch);
  for (std::size_t i = 0; i < batch; ++i) q.pop();

  DepthResult r;
  std::vector<TimerId> ids(batch);
  std::vector<Duration> delays(batch);
  double add_ns = 0, cancel_ns = 0, pop_ns = 0;
  for (std::size_t round = 0; round < rounds; ++round) {
    for (auto& d : delays) d = static_cast<Duration>(rng.below(kSpan));

    std::uint64_t a0 = g_allocs.load(std::memory_order_relaxed);
    double t0 = now_ns();
    for (std::size_t i = 0; i < batch; ++i) ids[i] = q.add(now, delays[i], fn);
    double t1 = now_ns();
    r.allocs += g_allocs.load(std::memory_order_relaxed) - a0;
    add_ns += t1 - t0;

    t0 = now_ns();
    for (TimerId id : ids) q.cancel(id);
    t1 = now_ns();
    cancel_ns += t1 - t0;

    // Re-add the batch untimed so the pop leg pops as many as were added.
    fill(batch);
    a0 = g_allocs.load(std::memory_order_relaxed);
    TimePoint last_at = now;
    TimerId last_id = 0;
    t0 = now_ns();
    for (std::size_t i = 0; i < batch; ++i) {
      TimerQueue<>::Timer t = q.pop();
      if (t.at < last_at || (t.at == last_at && t.id < last_id)) r.ordered = false;
      last_at = t.at;
      last_id = t.id;
      t.fn();
    }
    t1 = now_ns();
    r.allocs += g_allocs.load(std::memory_order_relaxed) - a0;
    pop_ns += t1 - t0;
    now = last_at;
    r.events += batch;
  }
  const double ops = static_cast<double>(batch * rounds);
  r.ns_add = add_ns / ops;
  r.ns_cancel = cancel_ns / ops;
  r.ns_pop = pop_ns / ops;
  return r;
}

struct DeliverResult {
  double ns_per_packet = 0;
  std::uint64_t packets = 0;  // delivered in the timed rounds
  std::uint64_t allocs = 0;   // during the timed rounds
};

DeliverResult run_sim_deliver(std::size_t batch, std::size_t rounds,
                              std::uint64_t& sink) {
  constexpr std::size_t kPayload = 64;
  sim::EventQueue events;
  sim::NetworkModel network(Rng(7));
  network.set_loss_rate(0.0);
  network.set_jitter_sigma(0.0);
  sim::SimTransport transport(events, network);
  const Endpoint from{"src", 1};
  const Endpoint to{"sink", 2};
  std::vector<Bytes> pool;  // payload buffers, handed back on delivery
  std::uint64_t delivered = 0;
  transport.bind(to, [&](IncomingMessage m) {
    ++delivered;
    sink += m.packet.seq;
    pool.push_back(std::move(m.packet.payload));
  });
  auto round = [&] {
    for (std::size_t i = 0; i < batch; ++i) {
      Packet p;
      p.kind = PacketKind::kOneWay;
      p.type = 1;
      p.seq = i;
      if (pool.empty()) {
        p.payload.resize(kPayload);
      } else {
        p.payload = std::move(pool.back());
        pool.pop_back();
      }
      transport.send(from, to, std::move(p));
    }
    events.run_until_idle();
  };
  round();  // warm-up: grows the arena, the queue and the pool once

  DeliverResult r;
  const std::uint64_t d0 = delivered;
  const std::uint64_t a0 = g_allocs.load(std::memory_order_relaxed);
  const double t0 = now_ns();
  for (std::size_t i = 0; i < rounds; ++i) round();
  const double t1 = now_ns();
  r.allocs = g_allocs.load(std::memory_order_relaxed) - a0;
  r.packets = delivered - d0;
  r.ns_per_packet = r.packets ? (t1 - t0) / static_cast<double>(r.packets) : 0;
  return r;
}

}  // namespace
}  // namespace ew

int main(int argc, char** argv) {
  using namespace ew;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  const std::size_t kBatch = 500;
  const std::size_t kRounds = quick ? 20 : 2'000;

  Rng rng(42);
  std::uint64_t sink = 0;
  const DepthResult small = run_depth(1'000, kBatch, kRounds, rng, sink);
  const DepthResult large = run_depth(100'000, kBatch, kRounds, rng, sink);
  const DeliverResult deliver = run_sim_deliver(kBatch, kRounds, sink);

  const std::uint64_t allocs = small.allocs + large.allocs;
  const double allocs_per_event =
      static_cast<double>(allocs) /
      static_cast<double>(small.events + large.events);

  bench::JsonWriter line;
  line.u64("rounds", kRounds)
      .u64("batch", kBatch)
      .f("ns_add_1k", small.ns_add, 2)
      .f("ns_cancel_1k", small.ns_cancel, 2)
      .f("ns_pop_1k", small.ns_pop, 2)
      .f("ns_add_100k", large.ns_add, 2)
      .f("ns_cancel_100k", large.ns_cancel, 2)
      .f("ns_pop_100k", large.ns_pop, 2)
      .f("allocs_per_event", allocs_per_event, 2)
      .f("ns_sim_deliver", deliver.ns_per_packet, 2)
      .f("sim_deliver_allocs_per_packet",
         deliver.packets ? static_cast<double>(deliver.allocs) /
                               static_cast<double>(deliver.packets)
                         : 0.0,
         2)
      .u64("checksum", sink);
  bench::emit_json("micro_timer", line);

  if (!small.ordered || !large.ordered) {
    std::fprintf(stderr, "micro_timer: pops left (deadline, id) order\n");
    return 1;
  }
  if (allocs > 0) {
    std::fprintf(stderr, "micro_timer: %llu allocations in the add and pop legs (budget: 0)\n",
                 static_cast<unsigned long long>(allocs));
    return 1;
  }
  if (deliver.packets != kBatch * kRounds) {
    std::fprintf(stderr, "micro_timer: sim_deliver delivered %llu of %llu packets\n",
                 static_cast<unsigned long long>(deliver.packets),
                 static_cast<unsigned long long>(kBatch * kRounds));
    return 1;
  }
  if (deliver.allocs > 0) {
    std::fprintf(stderr,
                 "micro_timer: %llu allocations in the sim_deliver rounds (budget: 0)\n",
                 static_cast<unsigned long long>(deliver.allocs));
    return 1;
  }
  return 0;
}
