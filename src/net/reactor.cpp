#include "net/reactor.hpp"

#include <sys/epoll.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "common/log.hpp"

namespace ew {

Reactor::Reactor() {
  int pipefd[2];
  if (::pipe(pipefd) != 0) {
    throw std::runtime_error("Reactor: pipe() failed");
  }
  wake_read_ = Fd(pipefd[0]);
  wake_write_ = Fd(pipefd[1]);
  set_nonblocking(wake_read_);
  set_nonblocking(wake_write_);
  epoll_fd_ = Fd(::epoll_create1(0));
  if (!epoll_fd_.valid()) {
    throw std::runtime_error("Reactor: epoll_create1() failed");
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wake_read_.get();
  if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, wake_read_.get(), &ev) != 0) {
    throw std::runtime_error("Reactor: epoll_ctl(wake pipe) failed");
  }
}

Reactor::~Reactor() = default;

void Reactor::post(std::function<void()> fn) {
  {
    std::lock_guard lock(post_mutex_);
    posted_.push_back(std::move(fn));
  }
  const std::uint8_t byte = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_write_.get(), &byte, 1);
}

TimerId Reactor::schedule(Duration delay, std::function<void()> fn) {
  return timers_.add(clock_.now(), delay, std::move(fn));
}

void Reactor::cancel(TimerId id) { timers_.cancel(id); }

Reactor::FdRecord& Reactor::record(int fd) {
  if (fd < 0) throw std::invalid_argument("Reactor: negative fd");
  const auto i = static_cast<std::size_t>(fd);
  if (i >= fds_.size()) fds_.resize(i + 1);
  return fds_[i];
}

void Reactor::set_watcher(Watcher& w, std::function<void()> cb) {
  w.cb = std::make_shared<std::function<void()>>(std::move(cb));
  // A fresh generation per registration: readiness observed for a previous
  // tenant of this fd number can no longer reach the new callback.
  w.gen = next_watch_gen_++;
}

void Reactor::watch_readable(int fd, std::function<void()> on_readable) {
  set_watcher(record(fd).read, std::move(on_readable));
  update_epoll_interest(fd);
}

void Reactor::watch_writable(int fd, std::function<void()> on_writable) {
  set_watcher(record(fd).write, std::move(on_writable));
  update_epoll_interest(fd);
}

void Reactor::unwatch_readable(int fd) {
  record(fd).read = {};
  update_epoll_interest(fd);
}

void Reactor::unwatch_writable(int fd) {
  record(fd).write = {};
  update_epoll_interest(fd);
}

void Reactor::update_epoll_interest(int fd) {
  FdRecord& rec = record(fd);
  std::uint32_t want = 0;
  if (rec.read.cb) want |= EPOLLIN;
  if (rec.write.cb) want |= EPOLLOUT;
  if (want == rec.interest) return;

  epoll_event ev{};
  ev.events = want;
  ev.data.fd = fd;
  if (want == 0) {
    // The fd may already be closed (close() drops epoll membership); DEL
    // failing with ENOENT/EBADF is then the expected outcome.
    ::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_DEL, fd, nullptr);
    rec.interest = 0;
    return;
  }
  int op = rec.interest == 0 ? EPOLL_CTL_ADD : EPOLL_CTL_MOD;
  if (::epoll_ctl(epoll_fd_.get(), op, fd, &ev) != 0) {
    // Stale bookkeeping (fd closed and reused behind our back): retry with
    // the complementary op before giving up.
    op = op == EPOLL_CTL_ADD ? EPOLL_CTL_MOD : EPOLL_CTL_ADD;
    if (::epoll_ctl(epoll_fd_.get(), op, fd, &ev) != 0) {
      EW_ERROR << "Reactor: epoll_ctl failed for fd " << fd << ": "
               << std::strerror(errno);
      rec.interest = 0;
      return;
    }
  }
  rec.interest = want;
}

void Reactor::run() { loop_until(0, /*use_deadline=*/false); }

void Reactor::run_for(Duration d) { loop_until(clock_.now() + d, /*use_deadline=*/true); }

void Reactor::stop() {
  post([this] { stop_requested_ = true; });
}

TimePoint Reactor::drain_ready() {
  // Posted work first.
  for (;;) {
    std::deque<std::function<void()>> batch;
    {
      std::lock_guard lock(post_mutex_);
      batch.swap(posted_);
    }
    if (batch.empty()) break;
    for (auto& fn : batch) fn();
  }
  // Due timers.
  const TimePoint now = clock_.now();
  while (!timers_.empty() && timers_.next_at() <= now) timers_.pop().fn();
  return timers_.empty() ? -1 : timers_.next_at();
}

void Reactor::drain_wake_pipe() {
  std::uint8_t buf[64];
  while (::read(wake_read_.get(), buf, sizeof(buf)) > 0) {
  }
}

bool Reactor::poll(Duration wait, std::vector<Ready>& out) {
  // Whole-millisecond timeout, rounded up so a 0<wait<1ms timer does not
  // turn the loop into a busy spin.
  int timeout_ms = static_cast<int>((wait + kMillisecond - 1) / kMillisecond);
  epoll_event events[256];
  const int n = ::epoll_wait(epoll_fd_.get(), events,
                             static_cast<int>(std::size(events)), timeout_ms);
  if (n < 0) {
    if (errno == EINTR) return true;
    EW_ERROR << "Reactor: epoll_wait failed, stopping";
    return false;
  }
  for (int i = 0; i < n; ++i) {
    const int fd = events[i].data.fd;
    const std::uint32_t ev = events[i].events;
    if (fd == wake_read_.get()) {
      drain_wake_pipe();
      continue;
    }
    // Only fds with a record ever enter the interest set, and the table
    // never shrinks, so `fd` indexes it.
    const FdRecord& rec = fds_[static_cast<std::size_t>(fd)];
    // EPOLLERR/EPOLLHUP surface through whichever watchers exist so the
    // owner discovers the error via recv()/getsockopt(SO_ERROR) (a failed
    // connect reports writable, as it would under select()).
    if ((ev & (EPOLLIN | EPOLLERR | EPOLLHUP)) && rec.read.cb) {
      out.push_back(Ready{fd, rec.read.gen, /*writable=*/false});
    }
    if ((ev & (EPOLLOUT | EPOLLERR | EPOLLHUP)) && rec.write.cb) {
      out.push_back(Ready{fd, rec.write.gen, /*writable=*/true});
    }
  }
  return true;
}

void Reactor::loop_until(TimePoint deadline, bool use_deadline) {
  stop_requested_ = false;
  while (!stop_requested_) {
    const TimePoint next_timer = drain_ready();
    if (stop_requested_) break;
    const TimePoint now = clock_.now();
    if (use_deadline && now >= deadline) break;

    // Poll timeout: until the next timer / loop deadline, capped.
    Duration wait = 50 * kMillisecond;
    if (next_timer >= 0) wait = std::min(wait, std::max<Duration>(next_timer - now, 0));
    if (use_deadline) wait = std::min(wait, std::max<Duration>(deadline - now, 0));

    ready_.clear();
    if (!poll(wait, ready_)) break;

    // Invoke with re-validation: a callback may close fds, unwatch siblings,
    // or accept a connection that reuses a just-closed fd number. Each ready
    // fact is only honoured if the same registration (fd AND generation) is
    // still present at invoke time.
    for (const Ready& r : ready_) {
      const FdRecord& rec = fds_[static_cast<std::size_t>(r.fd)];
      const Watcher& w = r.writable ? rec.write : rec.read;
      if (!w.cb || w.gen != r.gen) continue;  // stale
      // Hold the callable across the invoke: it may unwatch (reset) itself,
      // or watch a higher fd and so move the table.
      const std::shared_ptr<std::function<void()>> cb = w.cb;
      (*cb)();
    }
  }
}

}  // namespace ew
