#include "net/reactor.hpp"

#include <sys/select.h>
#include <unistd.h>

#ifdef __linux__
#include <sys/epoll.h>
#endif

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "common/log.hpp"

namespace ew {

ReactorBackend Reactor::default_backend() {
#ifdef __linux__
  if (const char* env = std::getenv("EW_REACTOR_BACKEND")) {
    if (std::strcmp(env, "select") == 0) return ReactorBackend::kSelect;
  }
  return ReactorBackend::kEpoll;
#else
  return ReactorBackend::kSelect;
#endif
}

Reactor::Reactor(ReactorBackend backend) : backend_(backend) {
#ifndef __linux__
  backend_ = ReactorBackend::kSelect;  // epoll is Linux-only
#endif
  int pipefd[2];
  if (::pipe(pipefd) != 0) {
    throw std::runtime_error("Reactor: pipe() failed");
  }
  wake_read_ = Fd(pipefd[0]);
  wake_write_ = Fd(pipefd[1]);
  set_nonblocking(wake_read_);
  set_nonblocking(wake_write_);
#ifdef __linux__
  if (backend_ == ReactorBackend::kEpoll) {
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
#endif
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

void Reactor::add_watcher(std::unordered_map<int, Watcher>& map, int fd,
                          std::function<void()> cb) {
  Watcher& w = map[fd];
  w.cb = std::make_shared<std::function<void()>>(std::move(cb));
  // A fresh generation per registration: readiness observed for a previous
  // tenant of this fd number can no longer reach the new callback.
  w.gen = next_watch_gen_++;
}

void Reactor::watch_readable(int fd, std::function<void()> on_readable) {
  add_watcher(read_watchers_, fd, std::move(on_readable));
  update_epoll_interest(fd);
}

void Reactor::watch_writable(int fd, std::function<void()> on_writable) {
  add_watcher(write_watchers_, fd, std::move(on_writable));
  update_epoll_interest(fd);
}

void Reactor::unwatch_readable(int fd) {
  read_watchers_.erase(fd);
  update_epoll_interest(fd);
}

void Reactor::unwatch_writable(int fd) {
  write_watchers_.erase(fd);
  update_epoll_interest(fd);
}

void Reactor::update_epoll_interest(int fd) {
#ifdef __linux__
  if (backend_ != ReactorBackend::kEpoll) return;
  std::uint32_t want = 0;
  if (read_watchers_.contains(fd)) want |= EPOLLIN;
  if (write_watchers_.contains(fd)) want |= EPOLLOUT;
  auto it = epoll_interest_.find(fd);
  const std::uint32_t have = it == epoll_interest_.end() ? 0 : it->second;
  if (want == have) return;

  epoll_event ev{};
  ev.events = want;
  ev.data.fd = fd;
  if (want == 0) {
    // The fd may already be closed (close() drops epoll membership); DEL
    // failing with ENOENT/EBADF is then the expected outcome.
    ::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_DEL, fd, nullptr);
    epoll_interest_.erase(fd);
    return;
  }
  int op = have == 0 ? EPOLL_CTL_ADD : EPOLL_CTL_MOD;
  if (::epoll_ctl(epoll_fd_.get(), op, fd, &ev) != 0) {
    // Stale bookkeeping (fd closed and reused behind our back): retry with
    // the complementary op before giving up.
    op = op == EPOLL_CTL_ADD ? EPOLL_CTL_MOD : EPOLL_CTL_ADD;
    if (::epoll_ctl(epoll_fd_.get(), op, fd, &ev) != 0) {
      EW_ERROR << "Reactor: epoll_ctl failed for fd " << fd << ": "
               << std::strerror(errno);
      epoll_interest_.erase(fd);
      return;
    }
  }
  epoll_interest_[fd] = want;
#else
  (void)fd;
#endif
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

bool Reactor::poll_select(Duration wait, std::vector<Ready>& out) {
  fd_set rfds;
  fd_set wfds;
  FD_ZERO(&rfds);
  FD_ZERO(&wfds);
  int maxfd = wake_read_.get();
  FD_SET(wake_read_.get(), &rfds);
  for (const auto& [fd, w] : read_watchers_) {
    if (fd >= FD_SETSIZE) {
      // FD_SET past FD_SETSIZE is an out-of-bounds write, not a soft limit.
      EW_ERROR << "Reactor[select]: fd " << fd
               << " >= FD_SETSIZE, not watchable (use the epoll backend)";
      continue;
    }
    FD_SET(fd, &rfds);
    maxfd = std::max(maxfd, fd);
  }
  for (const auto& [fd, w] : write_watchers_) {
    if (fd >= FD_SETSIZE) {
      EW_ERROR << "Reactor[select]: fd " << fd
               << " >= FD_SETSIZE, not watchable (use the epoll backend)";
      continue;
    }
    FD_SET(fd, &wfds);
    maxfd = std::max(maxfd, fd);
  }
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(wait / kSecond);
  tv.tv_usec = static_cast<suseconds_t>(wait % kSecond);
  const int sel = ::select(maxfd + 1, &rfds, &wfds, nullptr, &tv);
  if (sel < 0) {
    if (errno == EINTR) return true;
    EW_ERROR << "Reactor: select failed, stopping";
    return false;
  }
  if (FD_ISSET(wake_read_.get(), &rfds)) drain_wake_pipe();
  for (const auto& [fd, w] : read_watchers_) {
    if (fd < FD_SETSIZE && FD_ISSET(fd, &rfds)) {
      out.push_back(Ready{fd, w.gen, /*writable=*/false});
    }
  }
  for (const auto& [fd, w] : write_watchers_) {
    if (fd < FD_SETSIZE && FD_ISSET(fd, &wfds)) {
      out.push_back(Ready{fd, w.gen, /*writable=*/true});
    }
  }
  return true;
}

bool Reactor::poll_epoll(Duration wait, std::vector<Ready>& out) {
#ifdef __linux__
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
    // EPOLLERR/EPOLLHUP surface through whichever watchers exist so the
    // owner discovers the error via recv()/getsockopt(SO_ERROR) — the same
    // behaviour select() gives (failed connects select writable).
    if (ev & (EPOLLIN | EPOLLERR | EPOLLHUP)) {
      if (auto it = read_watchers_.find(fd); it != read_watchers_.end()) {
        out.push_back(Ready{fd, it->second.gen, /*writable=*/false});
      }
    }
    if (ev & (EPOLLOUT | EPOLLERR | EPOLLHUP)) {
      if (auto it = write_watchers_.find(fd); it != write_watchers_.end()) {
        out.push_back(Ready{fd, it->second.gen, /*writable=*/true});
      }
    }
  }
  return true;
#else
  (void)wait;
  (void)out;
  return false;
#endif
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
    const bool ok = backend_ == ReactorBackend::kEpoll ? poll_epoll(wait, ready_)
                                                       : poll_select(wait, ready_);
    if (!ok) break;

    // Invoke with re-validation: a callback may close fds, unwatch siblings,
    // or accept a connection that reuses a just-closed fd number. Each ready
    // fact is only honoured if the same registration (fd AND generation) is
    // still present at invoke time.
    for (const Ready& r : ready_) {
      const auto& map = r.writable ? write_watchers_ : read_watchers_;
      auto it = map.find(r.fd);
      if (it == map.end() || it->second.gen != r.gen) continue;  // stale
      // Hold the callable across the invoke: it may unwatch (erase) itself.
      const std::shared_ptr<std::function<void()>> cb = it->second.cb;
      (*cb)();
    }
  }
}

}  // namespace ew
