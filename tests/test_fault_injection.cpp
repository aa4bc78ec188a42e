// Failure-injection tests: the toolkit under sustained message loss, heavy
// congestion, and flapping partitions — the SC98 operating regime, turned up.
#include <gtest/gtest.h>

#include <memory>

#include "core/client.hpp"
#include "core/logging_service.hpp"
#include "core/scheduler.hpp"
#include "gossip/gossip_server.hpp"
#include "gossip/sync_client.hpp"
#include "sim/event_queue.hpp"
#include "sim/network_model.hpp"
#include "sim/sim_transport.hpp"

namespace ew {
namespace {

class FaultInjectionTest : public ::testing::Test {
 protected:
  FaultInjectionTest() : net_(Rng(321)), transport_(events_, net_) {}

  void build_scheduler_stack() {
    log_node_ = std::make_unique<Node>(events_, transport_, Endpoint{"log", 401});
    log_node_->start();
    logging_ = std::make_unique<core::LoggingServer>(*log_node_);
    logging_->start();
    sched_node_ = std::make_unique<Node>(events_, transport_, Endpoint{"sched", 601});
    sched_node_->start();
    core::SchedulerServer::Options o;
    o.logging = log_node_->self();
    o.pool.n = 42;
    o.pool.k = 5;
    sched_ = std::make_unique<core::SchedulerServer>(*sched_node_, o);
    sched_->start();
  }

  void add_client(const std::string& host, double rate) {
    auto node = std::make_unique<Node>(events_, transport_, Endpoint{host, 2000});
    node->start();
    core::RamseyClient::Options o;
    o.schedulers = {Endpoint{"sched", 601}};
    o.host_label = host;
    o.rate_source = [rate] { return rate; };
    o.report_interval = 30 * kSecond;
    o.initial_sleep_max = 5 * kSecond;
    o.retry_delay = 5 * kSecond;
    o.seed = fnv1a64(host);
    auto client = std::make_unique<core::RamseyClient>(
        *node, std::make_unique<core::ModeledWorkExecutor>(), o);
    client->start();
    client_nodes_.push_back(std::move(node));
    clients_.push_back(std::move(client));
  }

  sim::EventQueue events_;
  sim::NetworkModel net_;
  sim::SimTransport transport_;
  std::unique_ptr<Node> log_node_;
  std::unique_ptr<core::LoggingServer> logging_;
  std::unique_ptr<Node> sched_node_;
  std::unique_ptr<core::SchedulerServer> sched_;
  std::vector<std::unique_ptr<Node>> client_nodes_;
  std::vector<std::unique_ptr<core::RamseyClient>> clients_;
};

TEST_F(FaultInjectionTest, ProgressUnderTenPercentLoss) {
  net_.set_loss_rate(0.10);
  net_.set_jitter_sigma(0.4);
  build_scheduler_stack();
  for (int i = 0; i < 8; ++i) add_client('c' + std::to_string(i), 1e7);
  events_.run_for(2 * kHour);
  // Every client must still be delivering despite constant loss.
  for (const auto& c : clients_) {
    EXPECT_GT(c->ops_reported(), 0u);
    EXPECT_TRUE(c->has_work());
  }
  // Rough accounting: 8 clients * 1e7 ops/s * 2 h, allowing generous loss.
  EXPECT_GT(static_cast<double>(logging_->total_ops()), 0.5 * 8 * 1e7 * 7200);
}

TEST_F(FaultInjectionTest, ProgressUnderHeavyCongestion) {
  net_.set_congestion(5.0);
  net_.set_loss_rate(0.02);
  build_scheduler_stack();
  for (int i = 0; i < 4; ++i) add_client('c' + std::to_string(i), 1e7);
  events_.run_for(2 * kHour);
  EXPECT_GT(logging_->records_received(), 100u);
}

TEST_F(FaultInjectionTest, SchedulerOutageAndRecovery) {
  build_scheduler_stack();
  for (int i = 0; i < 4; ++i) add_client('c' + std::to_string(i), 1e7);
  events_.run_for(30 * kMinute);
  const auto before = logging_->records_received();
  ASSERT_GT(before, 0u);
  // The scheduler's host drops off the net for 20 minutes.
  transport_.set_host_up("sched", false);
  events_.run_for(20 * kMinute);
  transport_.set_host_up("sched", true);
  events_.run_for(40 * kMinute);
  // Clients re-registered and reports flow again.
  const auto after = logging_->records_received();
  EXPECT_GT(after, before + 20);
  EXPECT_EQ(sched_->active_clients(), 4u);
}

TEST_F(FaultInjectionTest, ClientsSurviveRepeatedSchedulerFlaps) {
  build_scheduler_stack();
  for (int i = 0; i < 4; ++i) add_client('c' + std::to_string(i), 1e7);
  for (int flap = 0; flap < 6; ++flap) {
    events_.run_for(10 * kMinute);
    transport_.set_host_up("sched", false);
    events_.run_for(3 * kMinute);
    transport_.set_host_up("sched", true);
  }
  events_.run_for(30 * kMinute);
  for (const auto& c : clients_) EXPECT_TRUE(c->has_work());
  EXPECT_EQ(sched_->active_clients(), 4u);
}

// --- Gossip under fire -----------------------------------------------------------

constexpr MsgType kCounter = 0x0551;

struct Component {
  Component(sim::EventQueue& events, Transport& transport, const std::string& host,
            const gossip::ComparatorRegistry& cmp, std::vector<Endpoint> gossips)
      : node(std::make_unique<Node>(events, transport, Endpoint{host, 2000})) {
    node->start();
    gossip::SyncClient::Options o;
    o.reregister_period = 30 * kSecond;
    o.retry_delay = 3 * kSecond;
    sync = std::make_unique<gossip::SyncClient>(*node, cmp, std::move(gossips), o);
    sync->expose(kCounter, gossip::SyncClient::StateHandlers{
                               [this] { return gossip::versioned_blob(version, {}); },
                               [this](const Bytes& b) {
                                 version = *gossip::blob_version(b);
                               },
                           });
    sync->start();
  }
  std::unique_ptr<Node> node;
  std::unique_ptr<gossip::SyncClient> sync;
  std::uint64_t version = 0;
};

TEST_F(FaultInjectionTest, GossipStateSyncUnderLossAndFlappingPartition) {
  net_.set_loss_rate(0.05);
  gossip::ComparatorRegistry comparators;
  const std::vector<Endpoint> gossip_eps = {Endpoint{"g0", 501},
                                            Endpoint{"g1", 501}};
  net_.set_site("g0", "west");
  net_.set_site("g1", "east");
  net_.set_site("comp-a", "west");
  net_.set_site("comp-b", "east");

  gossip::GossipServer::Options gopts;
  gopts.poll_period = 5 * kSecond;
  gopts.peer_sync_period = 8 * kSecond;
  gopts.clique.token_period = 2 * kSecond;
  gopts.clique.probe_period = 5 * kSecond;
  std::vector<std::unique_ptr<Node>> gnodes;
  std::vector<std::unique_ptr<gossip::GossipServer>> gossips;
  for (const auto& ep : gossip_eps) {
    gnodes.push_back(std::make_unique<Node>(events_, transport_, ep));
    ASSERT_TRUE(gnodes.back()->start().ok());
    gossips.push_back(std::make_unique<gossip::GossipServer>(
        *gnodes.back(), comparators, gossip_eps, gopts));
    gossips.back()->start();
  }
  Component a(events_, transport_, "comp-a", comparators, gossip_eps);
  Component b(events_, transport_, "comp-b", comparators, gossip_eps);
  events_.run_for(3 * kMinute);

  // Flap the east-west link while comp-a's state advances.
  for (int round = 0; round < 5; ++round) {
    a.version += 10;
    net_.set_partitioned("west", "east", true);
    events_.run_for(4 * kMinute);
    net_.set_partitioned("west", "east", false);
    events_.run_for(4 * kMinute);
  }
  // After the final heal, comp-b must hold comp-a's latest state.
  events_.run_for(5 * kMinute);
  EXPECT_EQ(b.version, a.version);
  // And the gossip clique must be whole again.
  EXPECT_EQ(gossips[0]->clique().view().members.size(), 2u);
  EXPECT_EQ(gossips[1]->clique().view().members.size(), 2u);
}

TEST_F(FaultInjectionTest, DirectiveResponsesLostAreSafe) {
  // Drop every scheduler RESPONSE (requests arrive): clients time out, the
  // scheduler keeps a consistent view, and once responses flow again the
  // system converges instead of duplicating work assignments.
  build_scheduler_stack();
  for (int i = 0; i < 3; ++i) add_client('c' + std::to_string(i), 1e7);
  events_.run_for(20 * kMinute);
  transport_.set_drop_fn([](const Endpoint& from, const Endpoint&, const Packet& p) {
    return from.host == "sched" && p.kind == PacketKind::kResponse;
  });
  events_.run_for(30 * kMinute);
  transport_.set_drop_fn(nullptr);
  events_.run_for(40 * kMinute);
  EXPECT_EQ(sched_->active_clients(), 3u);
  for (const auto& c : clients_) EXPECT_TRUE(c->has_work());
}

}  // namespace
}  // namespace ew
