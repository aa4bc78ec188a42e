// ReactorShardPool: N independent single-threaded reactors, one OS thread
// each — multi-core scaling without giving up the paper's single-threaded
// server shape (Section 5.1).
//
// The sharding contract:
//   * Every reactor, and everything built on it (TcpTransport, Node,
//     handlers), is owned by exactly one shard and touched only from that
//     shard's thread. There is no cross-shard locking because there is no
//     cross-shard sharing — shards communicate the same way distinct
//     processes do, over the transport.
//   * Inbound load is spread kernel-side: each shard's transport binds the
//     same port with SO_REUSEPORT (TcpTransport::set_reuse_port), and the
//     kernel hashes incoming connections across the listeners. No accept
//     lock, no hand-off.
//   * Cross-thread entry points are exactly two: Reactor::post (self-pipe)
//     and run_on() below. Observability is shared — the obs registry's
//     instruments are atomic, and the net.* gauges aggregate by delta — so
//     shards update common metrics without coordination.
//
// The deterministic simulator and chaos replay stay single-shard by
// construction: determinism comes from one event queue with one logical
// clock, which is precisely what a shard is. Sharding multiplies that unit;
// it never threads the inside of one.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "net/reactor.hpp"

namespace ew {

class ReactorShardPool {
 public:
  /// Create `n` reactors (n >= 1, clamped). Reactors exist immediately;
  /// threads start with start().
  explicit ReactorShardPool(std::size_t n);
  ~ReactorShardPool();
  ReactorShardPool(const ReactorShardPool&) = delete;
  ReactorShardPool& operator=(const ReactorShardPool&) = delete;

  [[nodiscard]] std::size_t size() const { return shards_.size(); }
  /// The shard's reactor. Before start() the caller may use it directly
  /// (e.g. to construct transports/nodes that will live on that shard);
  /// after start() it must only be reached via post()/run_on().
  [[nodiscard]] Reactor& reactor(std::size_t shard) { return *shards_[shard]; }

  /// Launch one thread per shard, each running its reactor until stop().
  void start();
  /// Stop every reactor and join the threads. Idempotent.
  void stop();
  [[nodiscard]] bool running() const { return !threads_.empty(); }

  /// Run `fn` on the shard's thread and wait for it to finish. If the pool
  /// is not running, or the caller *is* that shard's thread, `fn` runs
  /// inline — so setup/teardown code works identically before start() and
  /// after, and a shard may run_on itself without deadlocking.
  void run_on(std::size_t shard, const std::function<void()>& fn);

  /// Fire-and-forget cross-thread post to a shard (thread-safe).
  void post(std::size_t shard, std::function<void()> fn) {
    shards_[shard]->post(std::move(fn));
  }

 private:
  std::vector<std::unique_ptr<Reactor>> shards_;
  std::vector<std::thread> threads_;
  std::vector<std::thread::id> thread_ids_;
};

}  // namespace ew
