// Reactor: the real-time Executor.
//
// A single-threaded readiness loop with a timer heap (the shared
// TimerQueue, see net/timer_queue.hpp) — the shape of every EveryWare server
// process in the paper (single-threaded, select()-driven, no signals;
// Section 5.1). The TcpTransport registers its sockets here.
// post() is thread-safe via a self-pipe so examples can feed work from other
// threads; everything else must run on the reactor thread.
//
// Readiness comes from level-triggered epoll(7), so the real-socket path
// needs Linux; the simulated path (SimTransport + sim::EventQueue) does not
// use the Reactor and stays portable. Level-triggered readiness keeps the
// semantics of the paper's select() loop exactly, without select()'s
// FD_SETSIZE (1024) ceiling on watchable fd numbers.
//
// Watchers live in one table of per-fd records, indexed by fd number (the
// kernel hands out the lowest free number, so the table stays dense). A
// record holds the read watcher, the write watcher and the event mask
// registered with the kernel for that fd.
//
// Dispatch is fd-lifetime safe: ready callbacks are re-validated against the
// table (fd + registration generation) immediately before each invoke, so a
// callback that closes a connection — or accepts a new one reusing the same
// fd number — cannot cause a queued callback to fire against a dead or
// reused fd.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "common/clock.hpp"
#include "net/executor.hpp"
#include "net/tcp.hpp"
#include "net/timer_queue.hpp"

namespace ew {

/// The one readiness backend. Only kept so callers that name it still
/// compile; `Reactor(ReactorBackend::kEpoll)` is the same as `Reactor()`.
enum class ReactorBackend { kEpoll };

class Reactor final : public Executor {
 public:
  Reactor();
  explicit Reactor(ReactorBackend) : Reactor() {}
  ~Reactor() override;
  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  [[nodiscard]] const Clock& clock() const override { return clock_; }
  void post(std::function<void()> fn) override;
  TimerId schedule(Duration delay, std::function<void()> fn) override;
  void cancel(TimerId id) override;

  /// Watch a socket; `on_readable` runs on the reactor thread whenever the
  /// fd becomes readable. One watcher per fd; `fd` must be >= 0.
  void watch_readable(int fd, std::function<void()> on_readable);
  /// Watch for writability (used to flush blocked outboxes and to harvest
  /// asynchronous connect results). One per fd.
  void watch_writable(int fd, std::function<void()> on_writable);
  void unwatch_readable(int fd);
  void unwatch_writable(int fd);

  /// Process events until stop() is called.
  void run();
  /// Process events for (approximately) the given real-time duration.
  void run_for(Duration d);
  /// Make run()/run_for() return as soon as possible. Thread-safe.
  void stop();

 private:
  /// A registered callback plus the generation it was registered under
  /// (0 = no watcher). The shared_ptr lets dispatch hold the callable alive
  /// across an invoke that unwatches (and thus resets) its own watcher.
  struct Watcher {
    std::shared_ptr<std::function<void()>> cb;
    std::uint64_t gen = 0;
  };
  /// Everything the Reactor knows about one fd number.
  struct FdRecord {
    Watcher read;
    Watcher write;
    std::uint32_t interest = 0;  // EPOLL* mask registered with the kernel
  };
  /// One readiness fact from epoll, pinned to the registration it was
  /// observed for. Validated against the live table right before invoking.
  struct Ready {
    int fd = -1;
    std::uint64_t gen = 0;
    bool writable = false;
  };

  void loop_until(TimePoint deadline, bool use_deadline);
  /// Run posted fns and due timers; returns the next timer deadline (or -1).
  TimePoint drain_ready();
  /// Block up to `wait`, append readiness facts to `out`. Returns false on
  /// an unrecoverable poll error (loop should stop).
  bool poll(Duration wait, std::vector<Ready>& out);
  void drain_wake_pipe();
  /// `fd`'s record, growing the table to reach it.
  FdRecord& record(int fd);
  void set_watcher(Watcher& w, std::function<void()> cb);
  /// Reconcile the kernel interest set for `fd` with its record after a
  /// watch/unwatch.
  void update_epoll_interest(int fd);

  RealClock clock_;
  Fd wake_read_;
  Fd wake_write_;
  Fd epoll_fd_;
  std::mutex post_mutex_;
  std::deque<std::function<void()>> posted_;
  TimerQueue<> timers_;
  std::uint64_t next_watch_gen_ = 1;
  std::vector<FdRecord> fds_;  // indexed by fd number; never shrinks
  std::vector<Ready> ready_;  // reused across iterations
  bool stop_requested_ = false;
};

}  // namespace ew
