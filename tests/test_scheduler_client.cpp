// Integration tests for the scheduling servers and computational clients:
// registration, progress reporting, logging, failure detection, migration,
// and the counter-example path end to end.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <optional>

#include "common/hash.hpp"
#include "core/client.hpp"
#include "core/logging_service.hpp"
#include "core/persistent_state.hpp"
#include "core/scheduler.hpp"
#include "obs/trace.hpp"
#include "sim/event_queue.hpp"
#include "sim/network_model.hpp"
#include "sim/sim_transport.hpp"

namespace ew::core {
namespace {

class SchedulerClientTest : public ::testing::Test {
 protected:
  SchedulerClientTest() : net_(Rng(13)), transport_(events_, net_) {
    net_.set_loss_rate(0.0);
    net_.set_jitter_sigma(0.0);

    log_node_ = std::make_unique<Node>(events_, transport_, Endpoint{"log", 401});
    log_node_->start();
    logging_ = std::make_unique<LoggingServer>(*log_node_);
    logging_->start();

    state_node_ = std::make_unique<Node>(events_, transport_, Endpoint{"state", 402});
    state_node_->start();
    state_ = std::make_unique<PersistentStateManager>(*state_node_);
    state_->register_validator("ramsey/best/",
                               PersistentStateManager::ramsey_validator());
    state_->start();
  }

  SchedulerServer& add_scheduler(const std::string& host, int n, int k,
                                 std::uint32_t pool_shards = 1) {
    auto node = std::make_unique<Node>(events_, transport_, Endpoint{host, 601});
    node->start();
    SchedulerServer::Options o;
    o.logging = log_node_->self();
    o.state_manager = state_node_->self();
    o.pool.n = n;
    o.pool.k = k;
    o.pool_shards = pool_shards;
    o.sweep_period = 20 * kSecond;
    o.migration_period = 30 * kSecond;
    auto server = std::make_unique<SchedulerServer>(*node, o);
    server->start();
    sched_nodes_.push_back(std::move(node));
    schedulers_.push_back(std::move(server));
    return *schedulers_.back();
  }

  /// A modeled client on `host` delivering `rate` ops/sec.
  RamseyClient& add_client(const std::string& host, double rate,
                           std::vector<Endpoint> schedulers,
                           std::uint32_t units_per_client = 1) {
    auto node = std::make_unique<Node>(events_, transport_, Endpoint{host, 2000});
    node->start();
    RamseyClient::Options o;
    o.schedulers = std::move(schedulers);
    o.infra = Infra::kUnix;
    o.host_label = host;
    auto shared_rate = std::make_shared<double>(rate);
    rates_[host] = shared_rate;
    o.rate_source = [shared_rate] { return *shared_rate; };
    o.report_interval = 30 * kSecond;
    o.initial_sleep_max = 5 * kSecond;
    o.retry_delay = 5 * kSecond;
    o.seed = std::hash<std::string>{}(host);
    o.units_per_client = units_per_client;
    if (units_per_client > 1) {
      o.executor_factory = [] { return std::make_unique<ModeledWorkExecutor>(); };
    }
    auto client = std::make_unique<RamseyClient>(
        *node, std::make_unique<ModeledWorkExecutor>(), o);
    client->start();
    client_nodes_.push_back(std::move(node));
    clients_.push_back(std::move(client));
    return *clients_.back();
  }

  void set_rate(const std::string& host, double rate) { *rates_[host] = rate; }

  /// One call from `from` to `to` that must succeed: runs the sim for
  /// `settle` and returns the reply (empty if none came).
  Bytes call_ok(Node& from, const Endpoint& to, MsgType type,
                const Bytes& payload, Duration settle) {
    std::optional<Bytes> reply;
    from.call(to, type, payload, CallOptions::fixed(kSecond),
              [&reply](Result<Bytes> r) {
                ASSERT_TRUE(r.ok());
                reply = *r;
              });
    events_.run_for(settle);
    EXPECT_TRUE(reply.has_value());
    return reply.value_or(Bytes{});
  }

  sim::EventQueue events_;
  sim::NetworkModel net_;
  sim::SimTransport transport_;
  std::unique_ptr<Node> log_node_;
  std::unique_ptr<LoggingServer> logging_;
  std::unique_ptr<Node> state_node_;
  std::unique_ptr<PersistentStateManager> state_;
  std::vector<std::unique_ptr<Node>> sched_nodes_;
  std::vector<std::unique_ptr<SchedulerServer>> schedulers_;
  std::vector<std::unique_ptr<Node>> client_nodes_;
  std::vector<std::unique_ptr<RamseyClient>> clients_;
  std::map<std::string, std::shared_ptr<double>> rates_;
};

TEST_F(SchedulerClientTest, ClientRegistersAndReports) {
  auto& sched = add_scheduler("sched", 42, 5);
  auto& client = add_client("c1", 1e7, {Endpoint{"sched", 601}});
  events_.run_for(5 * kMinute);
  EXPECT_EQ(sched.active_clients(), 1u);
  EXPECT_GT(sched.reports_received(), 5u);
  EXPECT_GT(client.ops_reported(), 0u);
  EXPECT_TRUE(client.has_work());
}

TEST_F(SchedulerClientTest, LoggingServiceRecordsProgress) {
  add_scheduler("sched", 42, 5);
  add_client("c1", 1e7, {Endpoint{"sched", 601}});
  add_client("c2", 2e7, {Endpoint{"sched", 601}});
  events_.run_for(10 * kMinute);
  EXPECT_GT(logging_->records_received(), 10u);
  EXPECT_GT(logging_->total_ops(Infra::kUnix), 1e9);
  // Reported ops over 10 min at ~3e7/s total.
  EXPECT_NEAR(static_cast<double>(logging_->total_ops()), 3e7 * 600, 3e7 * 600 * 0.4);
}

TEST_F(SchedulerClientTest, DeadClientDetectedAndWorkReclaimed) {
  auto& sched = add_scheduler("sched", 42, 5);
  add_client("c1", 1e7, {Endpoint{"sched", 601}});
  events_.run_for(5 * kMinute);
  ASSERT_EQ(sched.active_clients(), 1u);
  // Kill the client silently (host reclaimed).
  clients_[0]->stop();
  transport_.set_host_up("c1", false);
  events_.run_for(15 * kMinute);
  EXPECT_EQ(sched.active_clients(), 0u);
  EXPECT_EQ(sched.clients_presumed_dead(), 1u);
  // The unit survived with its coloring.
  EXPECT_EQ(sched.pool().idle_frontier_size(), 1u);
}

TEST_F(SchedulerClientTest, ClientFailsOverBetweenSchedulers) {
  add_scheduler("sched-a", 42, 5);
  add_scheduler("sched-b", 42, 5);
  auto& client = add_client(
      "c1", 1e7, {Endpoint{"sched-a", 601}, Endpoint{"sched-b", 601}});
  events_.run_for(3 * kMinute);
  ASSERT_EQ(schedulers_[0]->active_clients(), 1u);
  // sched-a dies; the client must re-register with sched-b and keep working.
  transport_.set_host_up("sched-a", false);
  events_.run_for(15 * kMinute);
  EXPECT_EQ(schedulers_[1]->active_clients(), 1u);
  EXPECT_TRUE(client.has_work());
  EXPECT_GE(client.registrations(), 2u);
}

TEST_F(SchedulerClientTest, SchedulerRestartForcesReRegistration) {
  auto& sched = add_scheduler("sched", 42, 5);
  auto& client = add_client("c1", 1e7, {Endpoint{"sched", 601}});
  events_.run_for(3 * kMinute);
  ASSERT_EQ(sched.active_clients(), 1u);
  // Simulate a stateless scheduler restart: wipe by stop/start of a fresh
  // server on the same endpoint.
  schedulers_[0]->stop();
  sched_nodes_[0]->stop();
  sched_nodes_[0] = std::make_unique<Node>(events_, transport_, Endpoint{"sched", 601});
  sched_nodes_[0]->start();
  SchedulerServer::Options o;
  o.logging = log_node_->self();
  o.state_manager = state_node_->self();
  o.pool.n = 42;
  o.pool.k = 5;
  schedulers_[0] = std::make_unique<SchedulerServer>(*sched_nodes_[0], o);
  schedulers_[0]->start();
  events_.run_for(10 * kMinute);
  // The client hit "unregistered client", re-registered, and continued.
  EXPECT_EQ(schedulers_[0]->active_clients(), 1u);
  EXPECT_TRUE(client.has_work());
  EXPECT_GE(client.registrations(), 2u);
}

TEST_F(SchedulerClientTest, MigrationMovesPromisingWorkToFastClient) {
  auto& sched = add_scheduler("sched", 42, 5);
  add_client("slow", 5e5, {Endpoint{"sched", 601}});
  add_client("fast", 5e7, {Endpoint{"sched", 601}});
  add_client("mid", 2e7, {Endpoint{"sched", 601}});
  events_.run_for(30 * kMinute);
  EXPECT_GT(sched.migrations(), 0u);
}

TEST_F(SchedulerClientTest, NoMigrationWhenRatesAreComparable) {
  auto& sched = add_scheduler("sched", 42, 5);
  add_client("a", 1.0e7, {Endpoint{"sched", 601}});
  add_client("b", 1.1e7, {Endpoint{"sched", 601}});
  add_client("c", 0.9e7, {Endpoint{"sched", 601}});
  events_.run_for(30 * kMinute);
  EXPECT_EQ(sched.migrations(), 0u);
}

TEST_F(SchedulerClientTest, CounterExampleFlowsToPersistentState) {
  // Real executor on the easy R(3,3) instance: found quickly, then stored
  // (and sanity-checked) at the persistent state manager.
  add_scheduler("sched", 5, 3);
  auto node = std::make_unique<Node>(events_, transport_, Endpoint{"real", 2000});
  node->start();
  RamseyClient::Options o;
  o.schedulers = {Endpoint{"sched", 601}};
  o.host_label = "real";
  o.simulated_time = false;
  o.initial_sleep_max = kSecond;
  auto client = std::make_unique<RamseyClient>(
      *node, std::make_unique<RealWorkExecutor>(), o);
  client->start();
  for (int i = 0; i < 100 && !state_->fetch(best_graph_name(5, 3)); ++i) {
    events_.run_for(10 * kSecond);
  }
  client->stop();
  ASSERT_TRUE(state_->fetch(best_graph_name(5, 3)).has_value());
  EXPECT_GE(schedulers_[0]->counterexamples_stored(), 1u);
  EXPECT_EQ(state_->stores_rejected(), 0u);  // every claim was genuine
}

TEST_F(SchedulerClientTest, BestGraphStateSharedViaApply) {
  auto& a = add_scheduler("sched-a", 42, 5);
  auto& b = add_scheduler("sched-b", 42, 5);
  add_client("c1", 1e7, {Endpoint{"sched-a", 601}});
  events_.run_for(10 * kMinute);
  // Simulate a gossip delivering a's state to b.
  const Bytes state = a.best_graph_state();
  ASSERT_TRUE(gossip::blob_body(state).ok());
  b.apply_best_graph_state(state);
  EXPECT_EQ(b.best_graph_state(), state);
}

TEST_F(SchedulerClientTest, FrontierSurvivesSchedulerRestartViaCheckpoint) {
  // The scheduler checkpoints its work frontier to the persistent state
  // manager; a restarted scheduler resumes the search instead of starting
  // from fresh random colorings.
  add_scheduler("sched", 42, 5);
  add_client("c1", 1e7, {Endpoint{"sched", 601}});
  add_client("c2", 1e7, {Endpoint{"sched", 601}});
  events_.run_for(20 * kMinute);  // several reports + checkpoints
  ASSERT_TRUE(state_->fetch("sched/frontier/sched:601/shard-0").has_value());

  // Hard restart: a brand-new scheduler object on the same endpoint.
  schedulers_[0]->stop();
  sched_nodes_[0]->stop();
  sched_nodes_[0] = std::make_unique<Node>(events_, transport_, Endpoint{"sched", 601});
  sched_nodes_[0]->start();
  SchedulerServer::Options o;
  o.logging = log_node_->self();
  o.state_manager = state_node_->self();
  o.pool.n = 42;
  o.pool.k = 5;
  schedulers_[0] = std::make_unique<SchedulerServer>(*sched_nodes_[0], o);
  schedulers_[0]->start();
  events_.run_for(5 * kMinute);
  EXPECT_GE(schedulers_[0]->frontier_units_restored(), 2u);
  // Re-registering clients get resumed units, not fresh ones.
  events_.run_for(15 * kMinute);
  EXPECT_EQ(schedulers_[0]->active_clients(), 2u);
}

TEST_F(SchedulerClientTest, MultiUnitLeaseReportedInBatches) {
  // A client with units_per_client=8 holds a lease of eight units, reports
  // all of them in one kSchedReportBatch per quantum, and the sharded pool
  // spreads the mints across its range-shards.
  auto& sched = add_scheduler("sched", 42, 5, /*pool_shards=*/4);
  auto& client = add_client("c1", 1e7, {Endpoint{"sched", 601}}, /*units=*/8);
  events_.run_for(5 * kMinute);
  EXPECT_EQ(sched.active_clients(), 1u);
  EXPECT_EQ(client.units_held(), 8u);
  EXPECT_EQ(sched.pool().assigned_count(), 8u);
  EXPECT_GT(sched.report_batches_received(), 3u);
  // Every batch covers the whole lease.
  EXPECT_EQ(sched.reports_received(), sched.report_batches_received() * 8);
  // Round-robin minting touched every shard.
  ASSERT_EQ(sched.pool().shard_count(), 4u);
  for (std::uint32_t k = 0; k < 4; ++k) {
    EXPECT_EQ(sched.pool().shard(k).units_issued(), 2u) << "shard " << k;
  }
}

TEST_F(SchedulerClientTest, RetiredPerUnitReportWireIsRejected) {
  // Wire parity: the per-unit kSchedReport shim is gone. A frame sent at the
  // retired message id must be rejected as unhandled — not silently decoded,
  // not routed through the batch core — and must leave no trace on the pool.
  auto& sched = add_scheduler("sched", 20, 4);
  auto fake = std::make_unique<Node>(events_, transport_, Endpoint{"fake", 2100});
  fake->start();

  const Endpoint worker{"worker", 2000};
  ClientHello hello;
  hello.client = worker;
  hello.infra = Infra::kUnix;
  hello.host = "worker";
  hello.want_units = 1;
  std::optional<ramsey::WorkSpec> spec;
  fake->call(Endpoint{"sched", 601}, msgtype::kSchedRegister, hello.serialize(),
             CallOptions::fixed(kSecond), [&spec](Result<Bytes> r) {
               ASSERT_TRUE(r.ok());
               auto d = DirectiveBatch::deserialize(*r);
               ASSERT_TRUE(d.ok() && !d->assign.empty());
               spec = d->assign.front();
             });
  events_.run_for(5 * kSecond);
  ASSERT_TRUE(spec.has_value());

  // A well-formed v2 batch payload aimed at the retired id: the old shim
  // would have decoded its own envelope, but nothing listens there now.
  ReportBatch batch;
  batch.client = worker;
  batch.seq = 1;
  batch.want_units = 1;
  ramsey::WorkReport rep;
  rep.unit_id = spec->unit_id;
  rep.ops_done = 500'000'000;
  rep.best_energy = 88;
  batch.reports.push_back(rep);
  bool rejected = false;
  fake->call(Endpoint{"sched", 601}, msgtype::kSchedReport, batch.serialize(),
             CallOptions::fixed(kSecond), [&rejected](Result<Bytes> r) {
               rejected = !r.ok();
             });
  events_.run_for(5 * kSecond);
  EXPECT_TRUE(rejected);
  EXPECT_EQ(sched.reports_received(), 0u);  // nothing reached the batch core

  // The same payload at the batch id is accepted: only the id was retired.
  bool accepted = false;
  fake->call(Endpoint{"sched", 601}, msgtype::kSchedReportBatch,
             batch.serialize(), CallOptions::fixed(kSecond),
             [&accepted](Result<Bytes> r) { accepted = r.ok(); });
  events_.run_for(5 * kSecond);
  EXPECT_TRUE(accepted);
  EXPECT_EQ(sched.reports_received(), 1u);
}

TEST_F(SchedulerClientTest, ReplyCacheReplaysTopUpAndSeqZeroOptsOut) {
  // The reply cache that makes a hedged batch safe: a duplicate nonzero seq
  // gets the first reply back byte for byte — lease top-up included — and
  // the pool is not touched again. seq 0 opts out on the wire: the same
  // batch is absorbed twice and only the first reply carries the top-up.
  auto& sched = add_scheduler("sched", 20, 4);
  auto fake = std::make_unique<Node>(events_, transport_, Endpoint{"fake", 2100});
  fake->start();
  auto call = [&](MsgType type, const Bytes& payload) {
    return call_ok(*fake, Endpoint{"sched", 601}, type, payload, 5 * kSecond);
  };
  auto assigns = [](const Bytes& reply) {
    auto d = DirectiveBatch::deserialize(reply);
    EXPECT_TRUE(d.ok());
    return d.ok() ? d->assign.size() : 0u;
  };

  const Endpoint worker{"worker", 2000};
  ClientHello hello;
  hello.client = worker;
  hello.host = "worker";
  hello.want_units = 1;
  auto registered = DirectiveBatch::deserialize(
      call(msgtype::kSchedRegister, hello.serialize()));
  ASSERT_TRUE(registered.ok());
  ASSERT_EQ(registered->assign.size(), 1u);

  ReportBatch batch;
  batch.client = worker;
  batch.seq = 1;
  batch.want_units = 2;  // raise the lease: the reply must carry a top-up
  ramsey::WorkReport rep;
  rep.unit_id = registered->assign.front().unit_id;
  rep.ops_done = 1000;
  rep.best_energy = 40;
  batch.reports.push_back(rep);
  const Bytes first = call(msgtype::kSchedReportBatch, batch.serialize());
  EXPECT_EQ(assigns(first), 1u);
  EXPECT_EQ(sched.pool().units_issued(), 2u);
  EXPECT_EQ(sched.batch_replays(), 0u);

  const Bytes again = call(msgtype::kSchedReportBatch, batch.serialize());
  EXPECT_EQ(again, first);                      // byte-identical replay
  EXPECT_EQ(sched.batch_replays(), 1u);
  EXPECT_EQ(sched.pool().units_issued(), 2u);   // no second issue
  EXPECT_EQ(sched.pool().assigned_count(), 2u);
  EXPECT_EQ(sched.report_batches_received(), 1u);
  EXPECT_EQ(sched.reports_received(), 1u);

  batch.seq = 0;
  batch.want_units = 3;
  const Bytes absorbed = call(msgtype::kSchedReportBatch, batch.serialize());
  EXPECT_EQ(assigns(absorbed), 1u);
  const Bytes reabsorbed = call(msgtype::kSchedReportBatch, batch.serialize());
  EXPECT_EQ(assigns(reabsorbed), 0u);           // the top-up went out once
  EXPECT_EQ(sched.batch_replays(), 1u);         // no replay for seq 0
  EXPECT_EQ(sched.report_batches_received(), 3u);
  EXPECT_EQ(sched.reports_received(), 3u);
  EXPECT_EQ(sched.pool().units_issued(), 3u);
  EXPECT_EQ(sched.pool().assigned_count(), 3u);
}

TEST_F(SchedulerClientTest, DuplicateUnitInOneBatchIsPricedOnce) {
  // A unit reported twice in one batch ([u:30, u:10] after u:50) must leave
  // the same pool state and per-kind accounting as the three reports sent
  // one batch at a time: the second copy is priced against the running
  // prior (30), so the kind is credited 20 + 20, not 20 + 40.
  add_scheduler("one", 20, 4);
  add_scheduler("seq", 20, 4);
  auto fake = std::make_unique<Node>(events_, transport_, Endpoint{"fake", 2100});
  fake->start();
  auto call = [&](const Endpoint& to, MsgType type, const Bytes& payload) {
    return call_ok(*fake, to, type, payload, kSecond);
  };
  const Endpoint worker{"worker", 2000};
  Rng rng(3);
  const Bytes graph = ramsey::ColoredGraph::random(20, rng).serialize();
  auto rep = [&](std::uint64_t unit, std::uint64_t energy) {
    ramsey::WorkReport r;
    r.unit_id = unit;
    r.ops_done = 2'000'000'000;
    r.best_energy = energy;
    r.best_graph = graph;
    return r;
  };
  std::uint64_t unit = 0;
  auto drive = [&](const Endpoint& sched,
                   const std::vector<std::vector<std::uint64_t>>& batches) {
    ClientHello hello;
    hello.client = worker;
    hello.host = "worker";
    hello.want_units = 1;
    auto d = DirectiveBatch::deserialize(
        call(sched, msgtype::kSchedRegister, hello.serialize()));
    ASSERT_TRUE(d.ok());
    ASSERT_EQ(d->assign.size(), 1u);
    unit = d->assign.front().unit_id;
    std::uint64_t seq = 0;
    for (const auto& energies : batches) {
      ReportBatch batch;
      batch.client = worker;
      batch.seq = ++seq;
      batch.want_units = 1;
      for (auto e : energies) batch.reports.push_back(rep(unit, e));
      call(sched, msgtype::kSchedReportBatch, batch.serialize());
    }
  };
  drive(Endpoint{"one", 601}, {{50}, {30, 10}});
  drive(Endpoint{"seq", 601}, {{50}, {30}, {10}});
  const SchedulerServer& one = *schedulers_[0];
  const SchedulerServer& seq = *schedulers_[1];

  EXPECT_EQ(one.reports_received(), 3u);
  EXPECT_EQ(one.pool().best_energy(unit), std::optional<std::uint64_t>(10));
  EXPECT_EQ(one.pool().shard(0).export_frontier(),
            seq.pool().shard(0).export_frontier());
  EXPECT_EQ(one.pool().assigned_units(), seq.pool().assigned_units());
  double credited = 0;
  for (std::size_t k = 0; k < 3; ++k) {
    EXPECT_DOUBLE_EQ(one.kind_stats()[k].improvement,
                     seq.kind_stats()[k].improvement);
    EXPECT_DOUBLE_EQ(one.kind_stats()[k].gops, seq.kind_stats()[k].gops);
    credited += one.kind_stats()[k].improvement;
  }
  EXPECT_DOUBLE_EQ(credited, 40.0);
}

TEST_F(SchedulerClientTest, ReportForUnitZeroChangesNothing) {
  // Unit id 0 is never minted (it routes to shard 0, where it would name
  // an empty table slot). A batch that reports it, with a coloring, must
  // leave the pool, the per-kind accounting and the next top-up exactly as
  // the same batch without it.
  add_scheduler("zero", 20, 4, 2);
  add_scheduler("ref", 20, 4, 2);
  auto fake = std::make_unique<Node>(events_, transport_, Endpoint{"fake", 2100});
  fake->start();
  const Endpoint worker{"worker", 2000};
  Rng rng(5);
  const Bytes graph = ramsey::ColoredGraph::random(20, rng).serialize();
  auto rep = [&](std::uint64_t unit, std::uint64_t energy) {
    ramsey::WorkReport r;
    r.unit_id = unit;
    r.ops_done = 1'000'000'000;
    r.best_energy = energy;
    r.best_graph = graph;
    return r;
  };
  auto drive = [&](const Endpoint& sched, bool with_zero) {
    auto call = [&](MsgType type, const Bytes& payload) {
      return call_ok(*fake, sched, type, payload, kSecond);
    };
    ClientHello hello;
    hello.client = worker;
    hello.host = "worker";
    hello.want_units = 4;
    auto d = DirectiveBatch::deserialize(
        call(msgtype::kSchedRegister, hello.serialize()));
    EXPECT_TRUE(d.ok());
    std::vector<std::uint64_t> lease;
    if (d.ok()) {
      for (const auto& a : d->assign) lease.push_back(a.unit_id);
    }
    ReportBatch batch;
    batch.client = worker;
    batch.seq = 1;
    batch.want_units = 8;  // the reply tops the lease up from the pool
    for (auto id : lease) batch.reports.push_back(rep(id, 60 + id));
    if (with_zero) {
      batch.reports.insert(batch.reports.begin() + 1, rep(0, 1));
    }
    auto top_up = DirectiveBatch::deserialize(
        call(msgtype::kSchedReportBatch, batch.serialize()));
    EXPECT_TRUE(top_up.ok());
    if (top_up.ok()) {
      for (const auto& a : top_up->assign) lease.push_back(a.unit_id);
    }
    return lease;
  };
  const auto zero_lease = drive(Endpoint{"zero", 601}, true);
  const auto ref_lease = drive(Endpoint{"ref", 601}, false);
  const SchedulerServer& zero = *schedulers_[0];
  const SchedulerServer& ref = *schedulers_[1];

  EXPECT_EQ(zero_lease.size(), 8u);
  EXPECT_EQ(zero_lease, ref_lease);
  EXPECT_EQ(zero.reports_received(), ref.reports_received() + 1);
  EXPECT_EQ(zero.pool().assigned_units(), ref.pool().assigned_units());
  EXPECT_EQ(zero.pool().idle_frontier_size(), 0u);
  EXPECT_FALSE(zero.pool().best_energy(0).has_value());
  for (std::uint32_t s = 0; s < 2; ++s) {
    EXPECT_EQ(zero.pool().shard(s).export_frontier(),
              ref.pool().shard(s).export_frontier());
  }
  for (std::size_t k = 0; k < 3; ++k) {
    EXPECT_DOUBLE_EQ(zero.kind_stats()[k].improvement,
                     ref.kind_stats()[k].improvement);
    EXPECT_DOUBLE_EQ(zero.kind_stats()[k].gops, ref.kind_stats()[k].gops);
  }
}

TEST_F(SchedulerClientTest, LargeLeaseMigrationIsPinned) {
  // Two clients hold full 8,192-unit leases; the slow one's best half moves
  // to the fast one, which then sheds as many of its own units. The
  // directives both clients receive, the pool's state and the order of the
  // scheduler's unit spans are pinned. The moved units are handed over in
  // place, so the 2,000-unit idle cap per shard, which trims the fast
  // client's shed units, cannot strand one: every unit in every
  // server-side lease stays assigned in the pool.
  auto node = std::make_unique<Node>(events_, transport_, Endpoint{"sched", 601});
  node->start();
  SchedulerServer::Options o;
  o.pool.n = 10;
  o.pool.k = 4;
  o.pool.max_idle_frontier = 2000;
  o.pool_shards = 2;
  o.sweep_period = 20 * kSecond;
  o.migration_period = 30 * kSecond;
  o.migration_cooldown = 0;
  o.checkpoint_period = 0;
  SchedulerServer sched(*node, o);
  sched.start();
  auto fake = std::make_unique<Node>(events_, transport_, Endpoint{"fake", 2100});
  fake->start();
  auto call = [&](MsgType type, const Bytes& payload) {
    return call_ok(*fake, Endpoint{"sched", 601}, type, payload, kSecond);
  };

  const std::array<Endpoint, 2> eps = {Endpoint{"slow", 2000},
                                       Endpoint{"fast", 2000}};
  const std::array<std::uint64_t, 2> ops = {1'000, 1'000'000'000};
  std::array<std::vector<std::uint64_t>, 2> leases;
  for (std::size_t c = 0; c < 2; ++c) {
    ClientHello hello;
    hello.client = eps[c];
    hello.host = eps[c].host;
    hello.want_units = 8192;
    auto d = DirectiveBatch::deserialize(
        call(msgtype::kSchedRegister, hello.serialize()));
    ASSERT_TRUE(d.ok());
    for (const auto& spec : d->assign) leases[c].push_back(spec.unit_id);
    ASSERT_EQ(leases[c].size(), 8192u);
  }
  Rng rng(5);
  const Bytes graph = ramsey::ColoredGraph::random(10, rng).serialize();
  std::array<std::uint64_t, 2> seq = {0, 0};
  auto report = [&](std::size_t c) {
    ReportBatch batch;
    batch.client = eps[c];
    batch.seq = ++seq[c];
    batch.want_units = 8192;
    for (auto id : leases[c]) {
      ramsey::WorkReport rep;
      rep.unit_id = id;
      rep.ops_done = ops[c];
      rep.best_energy = 100 + (id * 7919) % 1000;
      rep.best_graph = graph;
      batch.reports.push_back(std::move(rep));
    }
    auto d = DirectiveBatch::deserialize(
        call(msgtype::kSchedReportBatch, batch.serialize()));
    EXPECT_TRUE(d.ok());
    return d.ok() ? *d : DirectiveBatch{};
  };
  // Three report rounds warm both rate forecasters (by t = 8 s).
  for (int round = 0; round < 3; ++round) {
    for (std::size_t c = 0; c < 2; ++c) EXPECT_TRUE(report(c).empty());
  }

  obs::trace().set_capacity(1 << 15);
  obs::trace().set_enabled(true);
  events_.run_for(23 * kSecond);  // the migration tick at t = 30 s
  const std::vector<obs::SpanEvent> spans = obs::trace().snapshot();
  obs::trace().set_enabled(false);
  obs::trace().set_capacity(4096);
  ASSERT_EQ(sched.migrations(), 1u);
  auto expect_leases_assigned = [&] {
    for (const Endpoint& ep : eps) {
      std::size_t unassigned = 0;
      for (auto id : sched.lease(ep)) unassigned += !sched.pool().assigned(id);
      EXPECT_EQ(unassigned, 0u) << ep.to_string() << " holds units the pool lost";
    }
  };
  expect_leases_assigned();

  std::uint64_t span_digest = kFnvBasis;
  std::size_t unit_spans = 0;
  for (const obs::SpanEvent& e : spans) {
    if (e.kind != obs::SpanKind::kSchedUnitIssued &&
        e.kind != obs::SpanKind::kSchedUnitReclaimed &&
        e.kind != obs::SpanKind::kSchedMigration) {
      continue;
    }
    ++unit_spans;
    span_digest = fnv_mix(span_digest, static_cast<std::uint64_t>(e.kind));
    span_digest = fnv_mix(span_digest, static_cast<std::uint64_t>(e.a));
    span_digest = fnv_mix(span_digest, static_cast<std::uint64_t>(e.b));
  }

  // The next report of each client carries the migration's directives.
  const DirectiveBatch slow_d = report(0);
  const DirectiveBatch fast_d = report(1);
  auto fold_ids = [](std::uint64_t h, const std::vector<std::uint64_t>& ids) {
    h = fnv_mix(h, static_cast<std::uint64_t>(ids.size()));
    for (auto id : ids) h = fnv_mix(h, id);
    return h;
  };
  auto assign_ids = [](const DirectiveBatch& d) {
    std::vector<std::uint64_t> ids;
    for (const auto& spec : d.assign) ids.push_back(spec.unit_id);
    return ids;
  };
  std::uint64_t directive_digest = kFnvBasis;
  for (const DirectiveBatch* d : {&slow_d, &fast_d}) {
    directive_digest = fold_ids(directive_digest, d->revoke);
    directive_digest = fold_ids(directive_digest, assign_ids(*d));
  }
  std::uint64_t pool_digest = fold_ids(kFnvBasis, sched.pool().assigned_units());
  for (std::uint32_t k = 0; k < 2; ++k) {
    const Bytes blob = sched.pool().shard(k).export_frontier();
    pool_digest = fnv_mix(pool_digest,
                          std::string_view(reinterpret_cast<const char*>(blob.data()),
                                           blob.size()));
  }

  expect_leases_assigned();
  // All 4,096 moves land; the fast client sheds as many of its own units.
  EXPECT_EQ(slow_d.revoke.size(), 4096u);
  EXPECT_EQ(slow_d.assign.size(), 4096u);  // top-up: the fast client's shed units
  EXPECT_EQ(fast_d.revoke.size(), 4096u);
  EXPECT_EQ(fast_d.assign.size(), 4096u);  // the moved units
  EXPECT_EQ(unit_spans, 4096u + 4096u + 4096u + 1u);
  EXPECT_EQ(sched.pool().assigned_count(), 16384u);
  EXPECT_EQ(sched.pool().idle_frontier_size(), 0u);
  EXPECT_EQ(span_digest, 12868634657659337593ULL);
  EXPECT_EQ(directive_digest, 3408981918227257910ULL);
  EXPECT_EQ(pool_digest, 9132987666883356384ULL);
  sched.stop();
}

TEST_F(SchedulerClientTest, ShardedRestartReplaysPerShardWithoutDoubleIssue) {
  // Per-shard checkpoints: a restarted 2-shard scheduler re-imports each
  // shard from its own record, every unit lands back in its residue class,
  // and re-registered clients never see the same unit twice.
  add_scheduler("sched", 42, 5, /*pool_shards=*/2);
  add_client("c1", 1e7, {Endpoint{"sched", 601}}, /*units=*/4);
  add_client("c2", 1e7, {Endpoint{"sched", 601}}, /*units=*/4);
  events_.run_for(20 * kMinute);
  ASSERT_TRUE(state_->fetch("sched/frontier/sched:601/shard-0").has_value());
  ASSERT_TRUE(state_->fetch("sched/frontier/sched:601/shard-1").has_value());

  schedulers_[0]->stop();
  sched_nodes_[0]->stop();
  sched_nodes_[0] = std::make_unique<Node>(events_, transport_, Endpoint{"sched", 601});
  sched_nodes_[0]->start();
  SchedulerServer::Options o;
  o.logging = log_node_->self();
  o.state_manager = state_node_->self();
  o.pool.n = 42;
  o.pool.k = 5;
  o.pool_shards = 2;
  schedulers_[0] = std::make_unique<SchedulerServer>(*sched_nodes_[0], o);
  schedulers_[0]->start();
  events_.run_for(5 * kMinute);
  EXPECT_GE(schedulers_[0]->frontier_units_restored(), 2u);

  // Clients fail their next report and re-register; both leases refill.
  events_.run_for(15 * kMinute);
  const auto& pool = schedulers_[0]->pool();
  EXPECT_EQ(schedulers_[0]->active_clients(), 2u);
  EXPECT_EQ(pool.assigned_count(), 8u);
  for (std::uint32_t k = 0; k < 2; ++k) {
    const auto ids = pool.shard(k).assigned_units();
    for (std::size_t i = 0; i < ids.size(); ++i) {
      EXPECT_EQ((ids[i] - 1) % 2, k) << "unit outside its shard's range";
      if (i > 0) {
        EXPECT_NE(ids[i], ids[i - 1]) << "double-issued unit";
      }
    }
  }
}

TEST_F(SchedulerClientTest, ThunderingHerdSpreadBySleep) {
  add_scheduler("sched", 42, 5);
  for (int i = 0; i < 20; ++i) {
    add_client('c' + std::to_string(i), 1e7, {Endpoint{"sched", 601}});
  }
  // Within the first sleep window, registrations trickle rather than slam.
  events_.run_for(2 * kSecond);
  const std::size_t early = schedulers_[0]->active_clients();
  events_.run_for(kMinute);
  EXPECT_LT(early, 20u);
  EXPECT_EQ(schedulers_[0]->active_clients(), 20u);
}

}  // namespace
}  // namespace ew::core
