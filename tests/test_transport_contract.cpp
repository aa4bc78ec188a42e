// The Transport contract (net/transport.hpp), run through every transport.
//
// Each driver owns one transport and the executor that pumps it:
// SimTransport runs on a sim::EventQueue over a quiet NetworkModel (no
// loss, no jitter, zero latency), TcpTransport on a Reactor over loopback
// with ephemeral ports. The typed suite pins what every transport
// guarantees; the tests after it name where they differ.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "net/reactor.hpp"
#include "net/tcp.hpp"
#include "net/tcp_transport.hpp"
#include "sim/event_queue.hpp"
#include "sim/network_model.hpp"
#include "sim/sim_transport.hpp"

namespace ew {
namespace {

struct SimDriver {
  sim::EventQueue events;
  sim::NetworkModel net{Rng(1)};
  sim::SimTransport transport{events, net};

  SimDriver() {
    net.set_loss_rate(0.0);
    net.set_jitter_sigma(0.0);
    net.set_default_latencies(0, 0);
  }
  Endpoint endpoint(int i) { return Endpoint{"host" + std::to_string(i), 1}; }
  void pump_until(const std::function<bool()>&) { events.run_until_idle(); }
  void settle() { events.run_until_idle(); }
};

struct TcpDriver {
  Reactor reactor;
  TcpTransport transport{reactor};

  TcpDriver() { transport.set_connect_timeout(500 * kMillisecond); }
  /// A loopback endpoint on a port the kernel just handed out.
  Endpoint endpoint(int) {
    auto l = tcp_listen(0);
    return Endpoint{"127.0.0.1", *local_port(*l)};
  }
  void pump_until(const std::function<bool()>& done) {
    for (int i = 0; i < 100 && !done(); ++i) reactor.run_for(10 * kMillisecond);
  }
  void settle() { reactor.run_for(50 * kMillisecond); }
};

template <typename Driver>
class TransportContract : public ::testing::Test {
 protected:
  Driver d_;
  Transport& t() { return d_.transport; }

  /// Bind `self` with a handler that records every delivery into `into`.
  void bind_recording(const Endpoint& self, std::vector<IncomingMessage>& into) {
    ASSERT_TRUE(t().bind(self, [&into](IncomingMessage m) {
                     into.push_back(std::move(m));
                   }).ok());
  }
};

using Drivers = ::testing::Types<SimDriver, TcpDriver>;
TYPED_TEST_SUITE(TransportContract, Drivers);

Packet sample_packet() {
  Packet p;
  p.kind = PacketKind::kRequest;
  p.type = 0x4242;
  p.seq = 0x0102030405060708ull;
  p.payload = {0x00, 0xFF, 0x10, 0x7F, 0x80, 0x01};
  return p;
}

TYPED_TEST(TransportContract, BindingTwiceIsRejected) {
  const Endpoint a = this->d_.endpoint(1);
  ASSERT_TRUE(this->t().bind(a, [](IncomingMessage) {}).ok());
  EXPECT_EQ(this->t().bind(a, [](IncomingMessage) {}).code(), Err::kRejected);
}

TYPED_TEST(TransportContract, BindingAnInvalidEndpointIsRejected) {
  const Endpoint a = this->d_.endpoint(1);
  EXPECT_EQ(this->t().bind(Endpoint{"", a.port}, [](IncomingMessage) {}).code(),
            Err::kRejected);
  EXPECT_EQ(this->t().bind(Endpoint{a.host, 0}, [](IncomingMessage) {}).code(),
            Err::kRejected);
}

TYPED_TEST(TransportContract, SentPacketArrivesOnceIntactFromTheSender) {
  const Endpoint a = this->d_.endpoint(1);
  const Endpoint b = this->d_.endpoint(2);
  std::vector<IncomingMessage> at_a, at_b;
  this->bind_recording(a, at_a);
  this->bind_recording(b, at_b);
  const Packet sent = sample_packet();
  ASSERT_TRUE(this->t().send(a, b, sent).ok());
  this->d_.pump_until([&] { return !at_b.empty(); });
  this->d_.settle();
  ASSERT_EQ(at_b.size(), 1u);
  EXPECT_TRUE(at_a.empty());
  const IncomingMessage& got = at_b.front();
  EXPECT_EQ(got.from, a);
  EXPECT_EQ(got.packet.kind, sent.kind);
  EXPECT_EQ(got.packet.type, sent.type);
  EXPECT_EQ(got.packet.seq, sent.seq);
  EXPECT_EQ(got.packet.payload, sent.payload);
}

TYPED_TEST(TransportContract, HandlerNeverRunsInsideSend) {
  const Endpoint a = this->d_.endpoint(1);
  const Endpoint b = this->d_.endpoint(2);
  std::vector<IncomingMessage> at_a, at_b;
  this->bind_recording(a, at_a);
  this->bind_recording(b, at_b);
  ASSERT_TRUE(this->t().send(a, b, sample_packet()).ok());
  EXPECT_TRUE(at_b.empty()) << "delivered synchronously inside send()";
  this->d_.pump_until([&] { return !at_b.empty(); });
  EXPECT_EQ(at_b.size(), 1u);
}

TYPED_TEST(TransportContract, SendAfterUnbindIsNotDelivered) {
  const Endpoint a = this->d_.endpoint(1);
  const Endpoint b = this->d_.endpoint(2);
  std::vector<IncomingMessage> at_a, at_b;
  this->bind_recording(a, at_a);
  this->bind_recording(b, at_b);
  // One delivery first, so a transport that caches connections has one open
  // to `b` when it goes away.
  ASSERT_TRUE(this->t().send(a, b, sample_packet()).ok());
  this->d_.pump_until([&] { return !at_b.empty(); });
  ASSERT_EQ(at_b.size(), 1u);
  this->t().unbind(b);
  (void)this->t().send(a, b, sample_packet());  // may fail now or later
  this->d_.settle();
  EXPECT_EQ(at_b.size(), 1u);
}

// ---- Where the transports differ ----------------------------------------

// The simulated transport knows every binding, so a send to an endpoint
// nobody bound fails inside send() with kRefused (its model of a TCP RST
// from a live host).
TEST(TransportContractDifferences, SimRefusesAnUnboundPeerAtOnce) {
  SimDriver d;
  const Endpoint a = d.endpoint(1);
  ASSERT_TRUE(d.transport.bind(a, [](IncomingMessage) {}).ok());
  EXPECT_EQ(d.transport.send(a, d.endpoint(2), sample_packet()).code(),
            Err::kRefused);
}

// TcpTransport cannot know a remote port is closed until its dial fails:
// send() may queue the frame and succeed, and the refusal then tears the
// connection down later on the reactor. Nothing is delivered either way.
TEST(TransportContractDifferences, TcpUnboundPeerFailsLaterWithoutDelivery) {
  TcpDriver d;
  const Endpoint a = d.endpoint(1);
  const Endpoint closed = d.endpoint(2);
  int delivered = 0;
  ASSERT_TRUE(d.transport.bind(a, [&](IncomingMessage) { ++delivered; }).ok());
  const Status s = d.transport.send(a, closed, sample_packet());
  EXPECT_TRUE(s.ok() || s.code() == Err::kRefused) << s.to_string();
  d.pump_until([&] { return d.transport.open_connections() == 0; });
  EXPECT_EQ(d.transport.open_connections(), 0u);
  EXPECT_EQ(d.transport.queued_bytes(), 0u);
  EXPECT_EQ(delivered, 0);
}

}  // namespace
}  // namespace ew
