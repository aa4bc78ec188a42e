#include "net/shard_pool.hpp"

#include <condition_variable>
#include <mutex>

namespace ew {

ReactorShardPool::ReactorShardPool(std::size_t n) {
  if (n == 0) n = 1;
  shards_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<Reactor>());
  }
}

ReactorShardPool::~ReactorShardPool() { stop(); }

void ReactorShardPool::start() {
  if (running()) return;
  threads_.reserve(shards_.size());
  thread_ids_.resize(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    threads_.emplace_back([this, i] {
      thread_ids_[i] = std::this_thread::get_id();
      shards_[i]->run();
    });
  }
  // Wait until every shard has recorded its thread id, so run_on()'s
  // same-thread check is reliable from the moment start() returns.
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    std::mutex m;
    std::condition_variable cv;
    bool entered = false;
    shards_[i]->post([&] {
      std::lock_guard<std::mutex> lk(m);
      entered = true;
      cv.notify_one();
    });
    std::unique_lock<std::mutex> lk(m);
    cv.wait(lk, [&] { return entered; });
  }
}

void ReactorShardPool::stop() {
  if (!running()) return;
  for (auto& shard : shards_) shard->stop();
  for (auto& t : threads_) t.join();
  threads_.clear();
  thread_ids_.clear();
}

void ReactorShardPool::run_on(std::size_t shard, const std::function<void()>& fn) {
  if (!running() || std::this_thread::get_id() == thread_ids_[shard]) {
    fn();
    return;
  }
  std::mutex m;
  std::condition_variable cv;
  bool done = false;
  shards_[shard]->post([&] {
    fn();
    std::lock_guard<std::mutex> lk(m);
    done = true;
    cv.notify_one();
  });
  std::unique_lock<std::mutex> lk(m);
  cv.wait(lk, [&] { return done; });
}

}  // namespace ew
