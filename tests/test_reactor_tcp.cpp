// Tests for the real-time side of the lingua franca: the Reactor (epoll
// readiness, one per-fd watcher table) and TCP transport over localhost.
#include <gtest/gtest.h>
#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <chrono>
#include <thread>

#include "common/serialize.hpp"
#include "gossip/clique.hpp"
#include "net/node.hpp"
#include "net/reactor.hpp"
#include "net/tcp.hpp"
#include "net/tcp_transport.hpp"
#include "obs/registry.hpp"

namespace ew {
namespace {

std::uint16_t pick_port(const Fd& listener) { return *local_port(listener); }

/// Milliseconds of wall clock consumed by `fn`.
template <typename F>
long long wall_ms(F&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// Route a payload the way TcpTransport's wire format expects (src, dst
/// prefix) so raw-socket tests can speak the lingua franca.
Bytes routed_payload(const Endpoint& src, const Endpoint& dst,
                     const Bytes& body) {
  Writer w(body.size() + 64);
  w.str(src.host);
  w.u16(src.port);
  w.str(dst.host);
  w.u16(dst.port);
  w.raw(body);
  return w.take();
}

// --- Reactor ------------------------------------------------------------------

TEST(Reactor, TimersFireInOrder) {
  Reactor r;
  std::vector<int> order;
  r.schedule(30 * kMillisecond, [&] { order.push_back(3); });
  r.schedule(10 * kMillisecond, [&] { order.push_back(1); });
  r.schedule(20 * kMillisecond, [&] {
    order.push_back(2);
  });
  r.run_for(100 * kMillisecond);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Reactor, CancelPreventsFiring) {
  Reactor r;
  bool fired = false;
  const TimerId id = r.schedule(10 * kMillisecond, [&] { fired = true; });
  r.cancel(id);
  r.run_for(50 * kMillisecond);
  EXPECT_FALSE(fired);
}

TEST(Reactor, PostFromAnotherThread) {
  Reactor r;
  std::atomic<bool> ran{false};
  std::thread t([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    r.post([&] { ran = true; });
  });
  r.run_for(200 * kMillisecond);
  t.join();
  EXPECT_TRUE(ran.load());
}

TEST(Reactor, StopExitsRun) {
  Reactor r;
  r.schedule(10 * kMillisecond, [&] { r.stop(); });
  const auto t0 = std::chrono::steady_clock::now();
  r.run();  // would hang forever without stop()
  const auto dt = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(dt).count(), 2000);
}

TEST(Reactor, RunForReturnsNearDeadline) {
  Reactor r;
  const auto t0 = std::chrono::steady_clock::now();
  r.run_for(50 * kMillisecond);
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  EXPECT_GE(ms, 45);
  EXPECT_LT(ms, 500);
}

// --- Raw sockets ------------------------------------------------------------------

TEST(Tcp, ListenConnectRoundTrip) {
  auto listener = tcp_listen(0);
  ASSERT_TRUE(listener.ok()) << listener.error().to_string();
  const std::uint16_t port = pick_port(*listener);

  auto client = tcp_connect(Endpoint{"127.0.0.1", port}, kSecond);
  ASSERT_TRUE(client.ok()) << client.error().to_string();

  auto readable = wait_readable(*listener, kSecond);
  ASSERT_TRUE(readable.ok());
  ASSERT_TRUE(*readable);
  auto accepted = tcp_accept(*listener);
  ASSERT_TRUE(accepted.ok());

  const Bytes msg{'h', 'i'};
  auto sent = send_some(*client, msg);
  ASSERT_TRUE(sent.ok());
  EXPECT_EQ(*sent, 2u);

  ASSERT_TRUE(*wait_readable(*accepted, kSecond));
  Bytes got;
  auto n = recv_some(*accepted, got);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(got, msg);
}

TEST(Tcp, ConnectRefusedFailsFast) {
  // Port 1 on localhost is almost certainly closed.
  auto fd = tcp_connect(Endpoint{"127.0.0.1", 1}, kSecond);
  EXPECT_FALSE(fd.ok());
}

TEST(Tcp, UnresolvableHostRejected) {
  auto fd = tcp_connect(Endpoint{"no-such-host.invalid", 80}, kSecond);
  ASSERT_FALSE(fd.ok());
  EXPECT_EQ(fd.error().code, Err::kRefused);
}

TEST(Tcp, RecvOnClosedPeerReportsClosed) {
  auto listener = tcp_listen(0);
  ASSERT_TRUE(listener.ok());
  const std::uint16_t port = pick_port(*listener);
  auto client = tcp_connect(Endpoint{"127.0.0.1", port}, kSecond);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(*wait_readable(*listener, kSecond));
  auto accepted = tcp_accept(*listener);
  ASSERT_TRUE(accepted.ok());
  client->reset();  // close
  ASSERT_TRUE(*wait_readable(*accepted, kSecond));
  Bytes sink;
  EXPECT_EQ(recv_some(*accepted, sink).code(), Err::kClosed);
}

// --- TcpTransport + Node over localhost ----------------------------------------

TEST(TcpTransport, NodeRpcOverLocalhost) {
  Reactor reactor;
  TcpTransport transport(reactor);

  // Pick two free ports by briefly binding.
  std::uint16_t pa, pb;
  {
    auto l1 = tcp_listen(0);
    auto l2 = tcp_listen(0);
    pa = pick_port(*l1);
    pb = pick_port(*l2);
  }
  Node server(reactor, transport, Endpoint{"127.0.0.1", pa});
  Node client(reactor, transport, Endpoint{"127.0.0.1", pb});
  ASSERT_TRUE(server.start().ok());
  ASSERT_TRUE(client.start().ok());

  server.handle(0x42, [](const IncomingMessage& m, Responder r) {
    Bytes reply = m.packet.payload;
    reply.push_back(0xFF);
    r.ok(reply);
  });

  std::optional<Result<Bytes>> got;
  client.call(server.self(), 0x42, {1, 2}, CallOptions::fixed(2 * kSecond),
              [&](Result<Bytes> r) { got = std::move(r); });
  for (int i = 0; i < 100 && !got; ++i) reactor.run_for(20 * kMillisecond);
  ASSERT_TRUE(got.has_value());
  ASSERT_TRUE(got->ok()) << got->error().to_string();
  EXPECT_EQ(got->value(), (Bytes{1, 2, 0xFF}));
  // The reply reused the client's connection rather than dialling back.
  EXPECT_EQ(transport.open_connections(), 2u);  // one inbound + one outbound view
}

TEST(TcpTransport, LargePayloadRoundTrip) {
  Reactor reactor;
  TcpTransport transport(reactor);
  std::uint16_t pa, pb;
  {
    auto l1 = tcp_listen(0);
    auto l2 = tcp_listen(0);
    pa = pick_port(*l1);
    pb = pick_port(*l2);
  }
  Node server(reactor, transport, Endpoint{"127.0.0.1", pa});
  Node client(reactor, transport, Endpoint{"127.0.0.1", pb});
  ASSERT_TRUE(server.start().ok());
  ASSERT_TRUE(client.start().ok());
  server.handle(0x43, [](const IncomingMessage& m, Responder r) {
    r.ok(m.packet.payload);
  });
  // 4 MiB forces partial sends and the writable-watcher flush path.
  Bytes big(4 * 1024 * 1024);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::uint8_t>(i * 2654435761u >> 24);
  }
  std::optional<Result<Bytes>> got;
  client.call(server.self(), 0x43, big, CallOptions::fixed(10 * kSecond),
              [&](Result<Bytes> r) { got = std::move(r); });
  for (int i = 0; i < 500 && !got; ++i) reactor.run_for(20 * kMillisecond);
  ASSERT_TRUE(got.has_value());
  ASSERT_TRUE(got->ok()) << got->error().to_string();
  EXPECT_EQ(got->value(), big);
}

TEST(TcpTransport, CliqueFormsOverRealSockets) {
  // The whole-stack smoke test: two clique members, each with its own
  // Reactor + TcpTransport ("process"), assemble over localhost TCP.
  std::uint16_t pa, pb;
  {
    auto l1 = tcp_listen(0);
    auto l2 = tcp_listen(0);
    pa = pick_port(*l1);
    pb = pick_port(*l2);
  }
  const std::vector<Endpoint> well_known = {Endpoint{"127.0.0.1", pa},
                                            Endpoint{"127.0.0.1", pb}};
  gossip::CliqueMember::Options opts;
  opts.token_period = 100 * kMillisecond;
  opts.probe_period = 150 * kMillisecond;
  opts.hop_timeout = kSecond;

  struct Member {
    std::atomic<bool> stop{false};
    std::atomic<std::size_t> size{0};
    std::thread thread;
  };
  Member members[2];
  for (int i = 0; i < 2; ++i) {
    members[i].thread = std::thread([&, i] {
      Reactor reactor;
      TcpTransport transport(reactor);
      Node node(reactor, transport, well_known[static_cast<std::size_t>(i)]);
      if (!node.start().ok()) return;
      gossip::CliqueMember member(node, well_known, opts);
      member.start();
      while (!members[i].stop.load()) {
        reactor.run_for(50 * kMillisecond);
        members[i].size.store(member.view().members.size());
      }
      member.stop();
    });
  }
  bool converged = false;
  for (int tick = 0; tick < 200 && !converged; ++tick) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    converged = members[0].size.load() == 2 && members[1].size.load() == 2;
  }
  members[0].stop = true;
  members[1].stop = true;
  members[0].thread.join();
  members[1].thread.join();
  EXPECT_TRUE(converged) << "sizes: " << members[0].size.load() << ", "
                         << members[1].size.load();
}

TEST(TcpTransport, SendToDeadPortTearsDownWithoutBlocking) {
  // Dialling is asynchronous now: send() must return immediately whatever
  // the peer's state, and the failed dial tears the connection down once
  // the reactor runs (the old synchronous connect stalled the whole loop).
  Reactor reactor;
  TcpTransport transport(reactor);
  transport.set_connect_timeout(500 * kMillisecond);
  Packet p;
  Status s;
  const long long ms = wall_ms([&] {
    s = transport.send(Endpoint{"127.0.0.1", 19998}, Endpoint{"127.0.0.1", 1}, p);
  });
  EXPECT_LT(ms, 250);
  // Loopback refusal may surface synchronously (error) or via the writable
  // watcher (queued, then torn down); either way the conn must not linger.
  for (int i = 0; i < 100 && transport.open_connections() > 0; ++i) {
    reactor.run_for(20 * kMillisecond);
  }
  EXPECT_EQ(transport.open_connections(), 0u);
  EXPECT_EQ(transport.queued_bytes(), 0u);
}

// --- Reactor epoll readiness & fd-lifetime safety -----------------------------

TEST(Reactor, EpollBackendTimersAndWatchers) {
  Reactor r;
  std::vector<int> order;
  r.schedule(20 * kMillisecond, [&] { order.push_back(2); });
  r.schedule(10 * kMillisecond, [&] { order.push_back(1); });
  int pipefd[2];
  ASSERT_EQ(::pipe(pipefd), 0);
  int readable_hits = 0;
  r.watch_readable(pipefd[0], [&] {
    char buf[8];
    [[maybe_unused]] ssize_t n = ::read(pipefd[0], buf, sizeof(buf));
    ++readable_hits;
  });
  ASSERT_EQ(::write(pipefd[1], "x", 1), 1);
  r.run_for(60 * kMillisecond);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(readable_hits, 1);
  r.unwatch_readable(pipefd[0]);
  ::close(pipefd[0]);
  ::close(pipefd[1]);
}

TEST(Reactor, StaleReadyCallbackNotInvokedAfterUnwatch) {
  // Two fds become ready in the same poll; the first callback to run
  // unwatches and closes the other. The queued readiness fact for the
  // closed fd is stale and must be skipped — in the old code it fired
  // against a dead fd (and, after accept-reuse, against the WRONG fd).
  Reactor r;
  int p1[2], p2[2];
  ASSERT_EQ(::pipe(p1), 0);
  ASSERT_EQ(::pipe(p2), 0);
  ASSERT_EQ(::write(p1[1], "x", 1), 1);
  ASSERT_EQ(::write(p2[1], "x", 1), 1);
  int fired1 = 0, fired2 = 0;
  bool closed1 = false, closed2 = false;
  r.watch_readable(p1[0], [&] {
    ++fired1;
    r.unwatch_readable(p1[0]);
    if (!closed2) {
      r.unwatch_readable(p2[0]);
      ::close(p2[0]);
      closed2 = true;
    }
  });
  r.watch_readable(p2[0], [&] {
    ++fired2;
    r.unwatch_readable(p2[0]);
    if (!closed1) {
      r.unwatch_readable(p1[0]);
      ::close(p1[0]);
      closed1 = true;
    }
  });
  r.run_for(50 * kMillisecond);
  // Exactly one of the two fired; the other's queued callback was stale.
  EXPECT_EQ(fired1 + fired2, 1);
  if (!closed1) ::close(p1[0]);
  if (!closed2) ::close(p2[0]);
  ::close(p1[1]);
  ::close(p2[1]);
}

TEST(Reactor, ReadyFactForAReusedFdNumberIsSkipped) {
  // Two fds become ready in the same poll; the first callback to run
  // unwatches and closes the other, dup2()s a fresh, unreadable pipe onto
  // that same fd number and watches it. The queued readiness fact for the
  // number belongs to the closed pipe's registration: only the generation
  // check keeps it from reaching the new callback.
  Reactor r;
  int p1[2], p2[2], fresh[2];
  ASSERT_EQ(::pipe(p1), 0);
  ASSERT_EQ(::pipe(p2), 0);
  // Non-blocking, so a callback that wrongly runs on it does not hang.
  ASSERT_EQ(::pipe2(fresh, O_NONBLOCK), 0);
  ASSERT_EQ(::write(p1[1], "x", 1), 1);
  ASSERT_EQ(::write(p2[1], "x", 1), 1);
  int fired_old = 0, fired_new = 0;
  int reused = -1;  // the fd number now naming fresh's read end
  auto first = [&](int self, int other) {
    ++fired_old;
    r.unwatch_readable(self);
    if (reused >= 0) return;
    r.unwatch_readable(other);
    ::close(other);
    reused = ::dup2(fresh[0], other);
    ::close(fresh[0]);
    r.watch_readable(reused, [&] {
      ++fired_new;
      char buf[4];
      [[maybe_unused]] ssize_t n = ::read(reused, buf, sizeof(buf));
    });
  };
  r.watch_readable(p1[0], [&] { first(p1[0], p2[0]); });
  r.watch_readable(p2[0], [&] { first(p2[0], p1[0]); });
  r.run_for(50 * kMillisecond);
  ASSERT_TRUE(reused == p1[0] || reused == p2[0]);
  EXPECT_EQ(fired_old, 1);
  EXPECT_EQ(fired_new, 0);
  // The new registration reached the kernel: data on the fresh pipe
  // wakes its callback, exactly once.
  ASSERT_EQ(::write(fresh[1], "y", 1), 1);
  r.run_for(50 * kMillisecond);
  EXPECT_EQ(fired_new, 1);
  r.unwatch_readable(reused);
  ::close(p1[0] == reused ? p2[0] : p1[0]);
  ::close(reused);
  ::close(p1[1]);
  ::close(p2[1]);
  ::close(fresh[1]);
}

TEST(Reactor, EpollHandlesOver1024Fds) {
  rlimit rl{};
  ASSERT_EQ(getrlimit(RLIMIT_NOFILE, &rl), 0);
  if (rl.rlim_cur < rl.rlim_max) {
    rl.rlim_cur = rl.rlim_max;
    setrlimit(RLIMIT_NOFILE, &rl);
    getrlimit(RLIMIT_NOFILE, &rl);
  }
  if (rl.rlim_cur < 2500) {
    GTEST_SKIP() << "RLIMIT_NOFILE too low: " << rl.rlim_cur;
  }
  Reactor r;
  constexpr int kPipes = 1100;  // read ends alone blow past FD_SETSIZE
  std::vector<std::array<int, 2>> pipes(kPipes);
  int beyond_setsize = 0;
  for (auto& p : pipes) {
    ASSERT_EQ(::pipe(p.data()), 0);
    if (p[0] >= FD_SETSIZE) ++beyond_setsize;
  }
  ASSERT_GT(beyond_setsize, 0) << "test did not exceed FD_SETSIZE";
  int fired = 0;
  for (auto& p : pipes) {
    const int rfd = p[0];
    r.watch_readable(rfd, [&fired, &r, rfd] {
      char buf[4];
      [[maybe_unused]] ssize_t n = ::read(rfd, buf, sizeof(buf));
      ++fired;
      r.unwatch_readable(rfd);
    });
    ASSERT_EQ(::write(p[1], "x", 1), 1);
  }
  for (int i = 0; i < 100 && fired < kPipes; ++i) {
    r.run_for(20 * kMillisecond);
  }
  EXPECT_EQ(fired, kPipes);
  for (auto& p : pipes) {
    ::close(p[0]);
    ::close(p[1]);
  }
}

// --- TCP edge paths -----------------------------------------------------------

TEST(TcpTransport, PartialWriteFlushResumesUnderFullSocketBuffer) {
  // A 2 MiB one-way frame cannot fit the loopback socket buffers in one
  // send(): the outbox must park, wait for writability, and resume — the
  // raw reader on the other side eventually sees the complete frame.
  Reactor reactor;
  TcpTransport transport(reactor);
  auto listener = tcp_listen(0);
  ASSERT_TRUE(listener.ok());
  const std::uint16_t port = pick_port(*listener);
  const Endpoint from{"127.0.0.1", 45001};
  const Endpoint to{"127.0.0.1", port};

  Packet p;
  p.kind = PacketKind::kOneWay;
  p.type = 0x51;
  p.seq = 7;
  p.payload.resize(2 * 1024 * 1024);
  for (std::size_t i = 0; i < p.payload.size(); ++i) {
    p.payload[i] = static_cast<std::uint8_t>(i * 2654435761u >> 24);
  }
  ASSERT_TRUE(transport.send(from, to, p).ok());

  ASSERT_TRUE(*wait_readable(*listener, kSecond));
  auto accepted = tcp_accept(*listener);
  ASSERT_TRUE(accepted.ok());

  FrameParser parser;
  Result<Packet> got(Err::kUnavailable);
  for (int i = 0; i < 1000 && !got.ok(); ++i) {
    reactor.run_for(5 * kMillisecond);
    Bytes chunk;
    auto n = recv_some(*accepted, chunk);
    ASSERT_TRUE(n.ok()) << n.error().to_string();
    parser.feed(chunk);
    got = parser.next();
    ASSERT_NE(got.code(), Err::kProtocol);
  }
  ASSERT_TRUE(got.ok()) << "frame never completed";
  EXPECT_EQ(got->type, 0x51);
  EXPECT_EQ(got->seq, 7u);
  EXPECT_EQ(got->payload, routed_payload(from, to, p.payload));
  EXPECT_EQ(transport.queued_bytes(), 0u);
}

TEST(TcpTransport, PeerEofMidFrameDrainsWholeFramesAndCountsTruncation) {
  Reactor reactor;
  TcpTransport transport(reactor);
  std::uint16_t port;
  {
    auto l = tcp_listen(0);
    port = pick_port(*l);
  }
  const Endpoint self{"127.0.0.1", port};
  std::vector<Bytes> delivered;
  ASSERT_TRUE(transport.bind(self, [&](IncomingMessage m) {
    delivered.push_back(m.packet.payload);
  }).ok());

  auto client = tcp_connect(self, kSecond);
  ASSERT_TRUE(client.ok());

  // One complete frame followed by the first half of a second one.
  Packet whole;
  whole.kind = PacketKind::kOneWay;
  whole.type = 0x52;
  whole.payload = routed_payload(Endpoint{"127.0.0.1", 45002}, self, {1, 2, 3});
  Packet half = whole;
  half.payload = routed_payload(Endpoint{"127.0.0.1", 45002}, self,
                                Bytes(512, 0xEE));
  const Bytes frame1 = encode_packet(whole);
  const Bytes frame2 = encode_packet(half);
  Bytes stream = frame1;
  stream.insert(stream.end(), frame2.begin(),
                frame2.begin() + static_cast<std::ptrdiff_t>(frame2.size() / 2));

  const std::uint64_t truncated_before =
      obs::registry().counter(obs::names::kNetFramesTruncated).value();
  std::size_t off = 0;
  while (off < stream.size()) {
    auto n = send_some(*client, std::span(stream).subspan(off));
    ASSERT_TRUE(n.ok());
    off += *n;
    reactor.run_for(kMillisecond);
  }
  client->reset();  // half-close mid-frame

  for (int i = 0; i < 100 && transport.open_connections() > 0; ++i) {
    reactor.run_for(10 * kMillisecond);
  }
  // The complete frame was delivered (not dropped with the dead conn)…
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0], (Bytes{1, 2, 3}));
  // …the partial one was dropped loudly, and the conn is gone.
  EXPECT_EQ(obs::registry().counter(obs::names::kNetFramesTruncated).value(),
            truncated_before + 1);
  EXPECT_EQ(transport.open_connections(), 0u);
}

TEST(TcpTransport, PendingDialDoesNotBlockOtherTraffic) {
  // A peer that neither accepts nor refuses (saturated accept queue: SYNs
  // are silently dropped) leaves the dial pending. send() must return
  // immediately and other traffic on the same reactor must flow while the
  // dial waits out its budget.
  auto stalled = tcp_listen(0, /*backlog=*/1);
  ASSERT_TRUE(stalled.ok());
  const std::uint16_t stalled_port = pick_port(*stalled);
  // Saturate the accept queue with raw dials that are never accepted.
  std::vector<PendingConnect> hogs;
  for (int i = 0; i < 8; ++i) {
    auto pc = tcp_connect_start(Endpoint{"127.0.0.1", stalled_port});
    ASSERT_TRUE(pc.ok());
    hogs.push_back(std::move(*pc));
  }

  Reactor reactor;
  TcpTransport transport(reactor);
  transport.set_connect_timeout(5 * kSecond);
  Packet p;
  p.kind = PacketKind::kOneWay;
  p.type = 0x53;
  Status s;
  const long long ms = wall_ms([&] {
    s = transport.send(Endpoint{"127.0.0.1", 45003},
                       Endpoint{"127.0.0.1", stalled_port}, p);
  });
  EXPECT_TRUE(s.ok()) << s.to_string();  // queued behind the pending dial
  EXPECT_LT(ms, 250) << "dial blocked the caller";

  // Meanwhile a live RPC through the same reactor completes long before the
  // 5 s connect budget would expire.
  TcpTransport live_transport(reactor);
  std::uint16_t pa, pb;
  {
    auto l1 = tcp_listen(0);
    auto l2 = tcp_listen(0);
    pa = pick_port(*l1);
    pb = pick_port(*l2);
  }
  Node server(reactor, live_transport, Endpoint{"127.0.0.1", pa});
  Node client(reactor, live_transport, Endpoint{"127.0.0.1", pb});
  ASSERT_TRUE(server.start().ok());
  ASSERT_TRUE(client.start().ok());
  server.handle(0x42, [](const IncomingMessage& m, Responder r) {
    r.ok(m.packet.payload);
  });
  std::optional<Result<Bytes>> got;
  client.call(server.self(), 0x42, {9}, CallOptions::fixed(2 * kSecond),
              [&](Result<Bytes> r) { got = std::move(r); });
  const long long rpc_ms = wall_ms([&] {
    for (int i = 0; i < 100 && !got; ++i) reactor.run_for(20 * kMillisecond);
  });
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->ok()) << got->error().to_string();
  EXPECT_LT(rpc_ms, 2000);
}

TEST(TcpTransport, OutboxOverflowRejectsWithOverloaded) {
  // A peer that never reads can only absorb the kernel socket buffers; after
  // that the bounded outbox must push back with kOverloaded instead of
  // buffering without limit.
  Reactor reactor;
  TcpTransport transport(reactor);
  transport.set_max_outbox_bytes(64 * 1024);
  auto listener = tcp_listen(0);
  ASSERT_TRUE(listener.ok());
  const Endpoint to{"127.0.0.1", pick_port(*listener)};
  const Endpoint from{"127.0.0.1", 45004};

  const std::uint64_t rejects_before =
      obs::registry().counter(obs::names::kNetBackpressureRejects).value();
  Packet p;
  p.kind = PacketKind::kOneWay;
  p.type = 0x54;
  p.payload.assign(32 * 1024, 0xCD);
  Status last;
  int sent_ok = 0;
  for (int i = 0; i < 4000 && last.ok(); ++i) {
    last = transport.send(from, to, p);
    if (last.ok()) ++sent_ok;
  }
  ASSERT_FALSE(last.ok()) << "outbox never overflowed";
  EXPECT_EQ(last.code(), Err::kOverloaded);
  EXPECT_GT(sent_ok, 0);  // the socket buffers took the early frames
  EXPECT_GT(obs::registry().counter(obs::names::kNetBackpressureRejects).value(),
            rejects_before);
  EXPECT_LE(transport.queued_bytes(), 64 * 1024u);
}

}  // namespace
}  // namespace ew
