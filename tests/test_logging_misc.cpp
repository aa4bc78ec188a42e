// Remaining service-behaviour tests: logging retention/accounting, client
// behaviour on saturated hosts, and scheduler failure-detection thresholds.
#include <gtest/gtest.h>

#include <memory>

#include "core/client.hpp"
#include "core/logging_service.hpp"
#include "core/scheduler.hpp"
#include "sim/event_queue.hpp"
#include "sim/network_model.hpp"
#include "sim/sim_transport.hpp"

namespace ew::core {
namespace {

// --- LoggingServer -------------------------------------------------------------

class LoggingTest : public ::testing::Test {
 protected:
  LoggingTest()
      : node_(events_, transport_, Endpoint{"log", 401}),
        sender_(events_, transport_, Endpoint{"sender", 1}) {
    net_.set_loss_rate(0.0);
    net_.set_jitter_sigma(0.0);
    net_.set_default_latencies(0, 0);
    EXPECT_TRUE(node_.start().ok());
    EXPECT_TRUE(sender_.start().ok());
  }

  void send_record(Infra infra, std::uint64_t ops) {
    LogRecord rec;
    rec.when = events_.clock().now();
    rec.client = sender_.self();
    rec.infra = infra;
    rec.host = 'h';
    rec.ops = ops;
    sender_.send_oneway(node_.self(), msgtype::kLogRecord, rec.serialize());
    events_.run_until_idle();
  }

  sim::EventQueue events_;
  sim::NetworkModel net_{Rng(1)};
  sim::SimTransport transport_{events_, net_};
  Node node_;
  Node sender_;
};

TEST_F(LoggingTest, AccumulatesPerInfraTotals) {
  LoggingServer logging(node_);
  logging.start();
  send_record(Infra::kCondor, 100);
  send_record(Infra::kCondor, 50);
  send_record(Infra::kJava, 7);
  EXPECT_EQ(logging.total_ops(Infra::kCondor), 150u);
  EXPECT_EQ(logging.total_ops(Infra::kJava), 7u);
  EXPECT_EQ(logging.total_ops(), 157u);
  EXPECT_EQ(logging.records_received(), 3u);
}

TEST_F(LoggingTest, RetentionIsBounded) {
  // "Having a separate service allows us to limit and control the storage
  // load generated by the application" (Section 3.1.3).
  LoggingServer::Options o;
  o.retain_records = 5;
  LoggingServer logging(node_, o);
  logging.start();
  for (int i = 0; i < 20; ++i) send_record(Infra::kUnix, 1);
  EXPECT_EQ(logging.recent().size(), 5u);
  EXPECT_EQ(logging.records_received(), 20u);  // totals still complete
}

TEST_F(LoggingTest, MalformedRecordsCountedNotFatal) {
  LoggingServer logging(node_);
  logging.start();
  sender_.send_oneway(node_.self(), msgtype::kLogRecord, Bytes{1, 2, 3});
  events_.run_until_idle();
  send_record(Infra::kUnix, 5);
  EXPECT_EQ(logging.malformed(), 1u);
  EXPECT_EQ(logging.records_received(), 1u);
}

TEST_F(LoggingTest, SinkInvokedPerRecord) {
  LoggingServer logging(node_);
  logging.start();
  int sunk = 0;
  logging.set_sink([&](const LogRecord&) { ++sunk; });
  send_record(Infra::kNT, 1);
  send_record(Infra::kNT, 1);
  EXPECT_EQ(sunk, 2);
}

TEST_F(LoggingTest, RetiredMetricsSnapshotIdIsUnhandled) {
  // 0x0221 no longer has a handler: a call at it is rejected and touches
  // neither the record counters nor the malformed count.
  LoggingServer logging(node_);
  logging.start();
  bool rejected = false;
  sender_.call(node_.self(), msgtype::kMetricsSnapshot, Bytes{1, 2, 3},
               CallOptions::fixed(kSecond),
               [&rejected](Result<Bytes> r) { rejected = !r.ok(); });
  events_.run_for(5 * kSecond);
  EXPECT_TRUE(rejected);
  EXPECT_EQ(logging.records_received(), 0u);
  EXPECT_EQ(logging.malformed(), 0u);
}

// --- Client behaviour on a saturated host -----------------------------------------

TEST_F(LoggingTest, ClientIdlesWhileHostSaturatedThenResumes) {
  Node sched_node(events_, transport_, Endpoint{"sched", 601});
  ASSERT_TRUE(sched_node.start().ok());
  SchedulerServer::Options so;
  so.pool.n = 42;
  so.pool.k = 5;
  SchedulerServer sched(sched_node, so);
  sched.start();

  Node client_node(events_, transport_, Endpoint{"c", 2000});
  ASSERT_TRUE(client_node.start().ok());
  auto rate = std::make_shared<double>(0.0);  // saturated: no cycles for guests
  RamseyClient::Options o;
  o.schedulers = {sched_node.self()};
  o.host_label = 'c';
  o.rate_source = [rate] { return *rate; };
  o.report_interval = 30 * kSecond;
  o.idle_recheck = 10 * kSecond;
  o.initial_sleep_max = kSecond;
  RamseyClient client(client_node, std::make_unique<ModeledWorkExecutor>(), o);
  client.start();

  events_.run_for(10 * kMinute);
  EXPECT_TRUE(client.has_work());
  EXPECT_EQ(client.quanta_completed(), 0u);  // no cycles, no quanta

  *rate = 1e7;  // the owner went home
  events_.run_for(10 * kMinute);
  EXPECT_GT(client.quanta_completed(), 5u);
  client.stop();
}

// --- Scheduler overdue thresholds ---------------------------------------------------

TEST_F(LoggingTest, OverdueFloorProtectsUnwarmedForecasts) {
  // A client that registered but never reported must not be declared dead
  // before the overdue floor elapses.
  Node sched_node(events_, transport_, Endpoint{"sched", 601});
  ASSERT_TRUE(sched_node.start().ok());
  SchedulerServer::Options so;
  so.pool.n = 42;
  so.pool.k = 5;
  so.overdue_floor = 5 * kMinute;
  so.sweep_period = 30 * kSecond;
  SchedulerServer sched(sched_node, so);
  sched.start();

  ClientHello hello;
  hello.client = Endpoint{"ghost", 2000};
  hello.host = "ghost";
  sender_.call(sched_node.self(), msgtype::kSchedRegister, hello.serialize(),
               CallOptions::fixed(kSecond), [](Result<Bytes>) {});
  events_.run_for(3 * kMinute);
  EXPECT_EQ(sched.active_clients(), 1u);  // within the floor: still trusted
  events_.run_for(5 * kMinute);
  EXPECT_EQ(sched.active_clients(), 0u);  // floor passed with no reports
  EXPECT_EQ(sched.clients_presumed_dead(), 1u);
}

}  // namespace
}  // namespace ew::core
