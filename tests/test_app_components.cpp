// Tests for the app-layer building blocks: the metrics collector, the
// client-process factory, and the light switch's retry discipline.
#include <gtest/gtest.h>

#include "app/client_process.hpp"
#include "app/light_switch.hpp"
#include "app/metrics.hpp"
#include "core/logging_service.hpp"
#include "core/scheduler.hpp"
#include "infra/profiles.hpp"
#include "sim/event_queue.hpp"
#include "sim/network_model.hpp"
#include "sim/sim_transport.hpp"

namespace ew::app {
namespace {

// --- MetricsCollector --------------------------------------------------------

TEST(MetricsCollector, BinsOpsByInfraAndTime) {
  MetricsCollector m(0, kMinute, 3);
  core::LogRecord rec;
  rec.infra = core::Infra::kCondor;
  rec.ops = 6'000'000;
  rec.when = 30 * kSecond;
  m.on_log(rec);
  rec.when = 90 * kSecond;
  m.on_log(rec);
  rec.infra = core::Infra::kJava;
  rec.when = 30 * kSecond;
  rec.ops = 600'000;
  m.on_log(rec);

  EXPECT_DOUBLE_EQ(m.total_rate()[0], (6'000'000 + 600'000) / 60.0);
  EXPECT_DOUBLE_EQ(m.total_rate()[1], 6'000'000 / 60.0);
  EXPECT_DOUBLE_EQ(m.infra_rate(core::Infra::kCondor)[0], 100'000.0);
  EXPECT_DOUBLE_EQ(m.infra_rate(core::Infra::kJava)[0], 10'000.0);
  EXPECT_EQ(m.records(), 3u);
}

TEST(MetricsCollector, HostGaugeAveragesPerBin) {
  MetricsCollector m(0, kMinute, 2);
  m.sample_hosts(core::Infra::kNT, 10, 10 * kSecond);
  m.sample_hosts(core::Infra::kNT, 20, 40 * kSecond);
  m.sample_hosts(core::Infra::kNT, 30, 70 * kSecond);
  EXPECT_DOUBLE_EQ(m.infra_hosts(core::Infra::kNT)[0], 15.0);
  EXPECT_DOUBLE_EQ(m.infra_hosts(core::Infra::kNT)[1], 30.0);
}

TEST(MetricsCollector, IgnoresOutOfWindowRecords) {
  MetricsCollector m(kMinute, kMinute, 1);  // window [60s, 120s)
  core::LogRecord rec;
  rec.ops = 100;
  rec.when = 10 * kSecond;  // before
  m.on_log(rec);
  rec.when = 10 * kMinute;  // after
  m.on_log(rec);
  EXPECT_DOUBLE_EQ(m.total_rate()[0], 0.0);
}

// --- ClientProcess factory -----------------------------------------------------

class AppComponentTest : public ::testing::Test {
 protected:
  AppComponentTest() : net_(Rng(2)), transport_(events_, net_) {
    net_.set_loss_rate(0.0);
    net_.set_jitter_sigma(0.0);
  }
  sim::EventQueue events_;
  sim::NetworkModel net_;
  sim::SimTransport transport_;
};

TEST_F(AppComponentTest, FactoryBuildsWorkingClients) {
  // A scheduler + logging, then spin up clients through the factory exactly
  // as the infrastructure adapters do.
  Node log_node(events_, transport_, Endpoint{"log", 401});
  log_node.start();
  core::LoggingServer logging(log_node);
  logging.start();
  Node sched_node(events_, transport_, Endpoint{"sched", 601});
  sched_node.start();
  core::SchedulerServer::Options so;
  so.logging = log_node.self();
  so.pool.n = 42;
  so.pool.k = 5;
  core::SchedulerServer sched(sched_node, so);
  sched.start();

  ClientProcess::Config cfg;
  cfg.schedulers = {sched_node.self()};
  cfg.infra = core::Infra::kCondor;
  cfg.report_interval = 30 * kSecond;
  cfg.initial_sleep_max = 5 * kSecond;
  auto factory = make_client_factory(events_, transport_, cfg);

  infra::HostSpec spec;
  spec.name = "condor-9";
  spec.ops_per_sec = 1e7;
  infra::SimHost host(events_, transport_, spec, {}, {}, 5);
  host.start(true);
  events_.run_for(kMinute);  // let the host come up

  auto process = factory(host);
  ASSERT_NE(process, nullptr);
  events_.run_for(10 * kMinute);
  EXPECT_EQ(sched.active_clients(), 1u);
  EXPECT_GT(logging.total_ops(core::Infra::kCondor), 0u);

  // Killing the process (eviction) stops its traffic.
  const auto before = logging.records_received();
  process.reset();
  events_.run_for(10 * kMinute);
  EXPECT_LE(logging.records_received(), before + 1);
}

TEST_F(AppComponentTest, FactoryRotatesSchedulerListsPerHost) {
  // Different hosts must not all hammer the same first scheduler.
  ClientProcess::Config cfg;
  cfg.schedulers = {Endpoint{"s0", 601}, Endpoint{"s1", 601}, Endpoint{"s2", 601}};
  // The rotation is by stable host-name hash; over many hosts all three
  // rotations must appear. We can't see the rotated list directly, but we
  // can observe where registrations land.
  std::array<int, 3> registrations{};
  std::vector<std::unique_ptr<Node>> nodes;
  for (int i = 0; i < 3; ++i) {
    auto node = std::make_unique<Node>(events_, transport_,
                                       Endpoint{"s" + std::to_string(i), 601});
    node->start();
    node->handle(core::msgtype::kSchedRegister,
                 [&registrations, i](const IncomingMessage&, Responder r) {
                   ++registrations[static_cast<std::size_t>(i)];
                   r.fail(Err::kRejected, "full");  // keep them hopping
                 });
    nodes.push_back(std::move(node));
  }
  auto factory = make_client_factory(events_, transport_, cfg);
  std::vector<std::unique_ptr<infra::SimHost>> hosts;
  std::vector<std::unique_ptr<infra::Process>> procs;
  for (int i = 0; i < 12; ++i) {
    infra::HostSpec spec;
    spec.name = "host-" + std::to_string(i);
    infra::SimHost& host = *hosts.emplace_back(std::make_unique<infra::SimHost>(
        events_, transport_, spec, sim::Ar1Process::Params{},
        sim::DurationSampler::Params{}, static_cast<std::uint64_t>(i)));
    host.start(true);
    events_.run_for(35 * kSecond);
    procs.push_back(factory(host));
  }
  events_.run_for(2 * kMinute);
  EXPECT_GT(registrations[0], 0);
  EXPECT_GT(registrations[1], 0);
  EXPECT_GT(registrations[2], 0);
}

// --- LightSwitch -----------------------------------------------------------------

TEST_F(AppComponentTest, LightSwitchRetriesUntilMdsAppears) {
  Node control(events_, transport_, Endpoint{"control", 1});
  control.start();
  LightSwitch::Options o;
  o.mds = Endpoint{"globus-control", 701};
  o.retry_delay = 10 * kSecond;
  LightSwitch sw(control, o);
  sw.turn_on();
  events_.run_for(2 * kMinute);
  EXPECT_FALSE(sw.globus_on());  // MDS not there yet

  // The MDS (plus gram) appears late; the switch must still get there.
  Node mds(events_, transport_, Endpoint{"globus-control", 701});
  mds.start();
  Node gram(events_, transport_, Endpoint{"globus-control", 702});
  gram.start();
  mds.handle(core::msgtype::kMdsQuery, [&gram](const IncomingMessage&, Responder r) {
    Writer w;
    wire::write(w, gram.self());
    wire::write(w, Endpoint{"globus-control", 703});
    w.u32(4);
    r.ok(w.take());
  });
  gram.handle(core::msgtype::kGramAuth,
              [](const IncomingMessage&, Responder r) { r.ok(); });
  gram.handle(core::msgtype::kGramSubmit,
              [](const IncomingMessage&, Responder r) { r.ok(); });
  events_.run_for(3 * kMinute);
  EXPECT_TRUE(sw.globus_on());
}

}  // namespace
}  // namespace ew::app
