// Tests for the infrastructure adapters and their documented quirks:
// Condor eviction, the NT/LSF sleep-kill, Java's two execution tiers,
// Globus staging behind the light switch, NetSolve brokering, and the
// Legion translator. Unix, Java and Condor run as a plain InfraAdapter over
// their profile.
#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <memory>
#include <string>

#include "app/light_switch.hpp"
#include "common/hash.hpp"
#include "infra/globus.hpp"
#include "infra/legion.hpp"
#include "infra/netsolve.hpp"
#include "infra/nt.hpp"
#include "infra/profiles.hpp"
#include "sim/event_queue.hpp"
#include "sim/network_model.hpp"
#include "sim/sim_transport.hpp"

namespace ew::infra {
namespace {

/// A trivially observable "client process".
struct DummyProcess final : Process {
  explicit DummyProcess(int* live) : live_(live) { ++*live_; }
  ~DummyProcess() override { --*live_; }
  int* live_;
};

class InfraTest : public ::testing::Test {
 protected:
  InfraTest() : net_(Rng(31)), transport_(events_, net_) {
    net_.set_loss_rate(0.0);
    net_.set_jitter_sigma(0.0);
  }

  ClientFactory counting_factory() {
    return [this](SimHost&) { return std::make_unique<DummyProcess>(&live_); };
  }

  sim::EventQueue events_;
  sim::NetworkModel net_;
  sim::SimTransport transport_;
  int live_ = 0;
};

// --- SimHost -------------------------------------------------------------------

TEST_F(InfraTest, HostRateZeroWhenDown) {
  HostSpec spec;
  spec.name = "h0";
  spec.ops_per_sec = 1e7;
  SimHost host(events_, transport_, spec, {}, {}, 1);
  host.start(/*initially_up=*/false);
  EXPECT_FALSE(host.up());
  EXPECT_EQ(host.current_rate(), 0.0);
}

TEST_F(InfraTest, HostComesUpAndDeliversFractionOfPeak) {
  HostSpec spec;
  spec.name = "h1";
  spec.ops_per_sec = 1e7;
  SimHost host(events_, transport_, spec, {}, {}, 2);
  host.start(true);
  events_.run_for(kMinute);
  ASSERT_TRUE(host.up());
  EXPECT_GT(host.current_rate(), 0.0);
  EXPECT_LE(host.current_rate(), 1e7);
  EXPECT_TRUE(transport_.host_up("h1"));
}

TEST_F(InfraTest, HostChurnsOverLongRun) {
  HostSpec spec;
  spec.name = "h2";
  sim::DurationSampler::Params churn;
  churn.mean_up = 10 * kMinute;
  churn.mean_down = 5 * kMinute;
  SimHost host(events_, transport_, spec, {}, churn, 3);
  host.start(true);
  events_.run_for(6 * kHour);
  EXPECT_GT(host.up_transitions(), 5u);
}

TEST_F(InfraTest, ForceDownReclaimsHost) {
  HostSpec spec;
  spec.name = "h3";
  SimHost host(events_, transport_, spec, {}, {}, 4);
  host.start(true);
  events_.run_for(kMinute);
  ASSERT_TRUE(host.up());
  int downs = 0;
  host.set_on_down([&] { ++downs; });
  host.force_down(kHour);
  EXPECT_FALSE(host.up());
  EXPECT_EQ(downs, 1);
  EXPECT_FALSE(transport_.host_up("h3"));
  // Stays down at least the requested hour.
  events_.run_for(30 * kMinute);
  EXPECT_FALSE(host.up());
}

// --- HostPool ----------------------------------------------------------------------

TEST_F(InfraTest, PoolLaunchesClientsOnUpHosts) {
  PoolProfile p = default_profile(core::Infra::kUnix);
  p.host_count = 6;
  p.relaunch_delay = 10 * kSecond;
  HostPool pool(events_, transport_, net_, p, 5);
  pool.start(counting_factory());
  events_.run_for(10 * kMinute);
  EXPECT_EQ(pool.hosts_total(), 6);
  EXPECT_GT(pool.hosts_up(), 0);
  EXPECT_EQ(pool.hosts_active(), live_);
  EXPECT_GT(live_, 0);
}

TEST_F(InfraTest, PoolKillsClientsWhenHostsGoDown) {
  PoolProfile p = default_profile(core::Infra::kCondor);
  p.host_count = 20;
  HostPool pool(events_, transport_, net_, p, 6);
  pool.start(counting_factory());
  events_.run_for(4 * kHour);
  EXPECT_GT(pool.evictions(), 0u);
  EXPECT_EQ(pool.hosts_active(), live_);
}

TEST_F(InfraTest, ReclaimFractionTakesHostsDown) {
  PoolProfile p = default_profile(core::Infra::kUnix);
  p.host_count = 10;
  p.initially_up = 1.0;
  HostPool pool(events_, transport_, net_, p, 7);
  pool.start(counting_factory());
  events_.run_for(5 * kMinute);
  const int before = pool.hosts_up();
  ASSERT_GT(before, 5);
  pool.reclaim_fraction(0.5, kHour);
  EXPECT_LE(pool.hosts_up(), before - before / 2 + 1);
}

// --- HostPool golden ---------------------------------------------------------------

// Pins every host's load trajectory bit for bit: FNV-1a over each host's
// current_rate() bits at seeded read instants across 2 simulated hours of a
// 16-host pool whose load steps on a 30 s grid from t = 0. Two reads sit
// on grid instants on purpose: one scheduled at t = 0 (it runs before that
// instant's step) and one scheduled from inside an event 10 s earlier (it
// runs after). A pressure change scheduled at t = 0 lands exactly on the
// step instant at 90 min, the quick scenario's judging-spike tie. A failing
// run prints the current digest.
std::uint64_t pool_load_digest(std::uint64_t seed) {
  sim::EventQueue events;
  sim::NetworkModel net{Rng(seed)};
  sim::SimTransport transport(events, net);
  PoolProfile p = default_profile(core::Infra::kUnix);
  p.host_count = 16;
  p.churn = {.mean_up = 90 * kMinute, .mean_down = 10 * kMinute, .up_sigma = 0.8};
  HostPool pool(events, transport, net, p, seed);

  std::uint64_t h = kFnvBasis;
  auto read = [&] {
    h = fnv_mix(h, static_cast<std::uint64_t>(events.clock().now()));
    for (const auto& host : pool.hosts()) {
      h = fnv_mix(h, std::bit_cast<std::uint64_t>(host->current_rate()));
    }
  };
  events.schedule(90 * kMinute, [&] {
    read();
    pool.set_pressure(0.35);
    read();
  });
  pool.start({});
  constexpr TimePoint kGridRead = 45 * kMinute;
  events.schedule(kGridRead, read);
  events.schedule(kGridRead + 15 * kMinute - 10 * kSecond,
                  [&] { events.schedule(10 * kSecond, read); });
  Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  for (int i = 0; i < 240; ++i) {
    events.schedule(static_cast<Duration>(rng.below(2 * kHour)), read);
  }
  events.run_for(2 * kHour);
  read();
  pool.stop();
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

TEST(HostPoolGolden, Seed1) { EXPECT_EQ(hex(pool_load_digest(1)), "c493c16bc6ee642d"); }
TEST(HostPoolGolden, Seed2) { EXPECT_EQ(hex(pool_load_digest(2)), "cef8b24609cc0b90"); }

// --- Condor ------------------------------------------------------------------------

TEST_F(InfraTest, CondorCountsEvictions) {
  PoolProfile p = default_profile(core::Infra::kCondor);
  p.host_count = 30;
  InfraAdapter condor(events_, transport_, net_, 8, p);
  condor.start(counting_factory());
  events_.run_for(6 * kHour);
  EXPECT_GT(condor.pool().evictions(), 10u)
      << "owner reclamation must kill running guests";
  EXPECT_EQ(condor.kind(), core::Infra::kCondor);
}

// --- NT / LSF ------------------------------------------------------------------------

TEST_F(InfraTest, LsfKillsLongSleepers) {
  PoolProfile p = default_profile(core::Infra::kNT);
  p.host_count = 24;
  NTAdapter::Quirks q;
  q.lsf_kill_threshold = 30 * kSecond;
  q.client_sleep_max = 3 * kMinute;  // pre-fix configuration
  NTAdapter nt(events_, transport_, net_, 9, p, q);
  nt.start(counting_factory());
  events_.run_for(2 * kHour);
  EXPECT_GT(nt.lsf_kills(), 5u);
}

TEST_F(InfraTest, ReducedSleepAvoidsLsfKills) {
  PoolProfile p = default_profile(core::Infra::kNT);
  p.host_count = 24;
  NTAdapter::Quirks q;
  q.lsf_kill_threshold = 30 * kSecond;
  q.client_sleep_max = 10 * kSecond;  // the paper's fix
  NTAdapter nt(events_, transport_, net_, 9, p, q);
  nt.start(counting_factory());
  events_.run_for(2 * kHour);
  EXPECT_EQ(nt.lsf_kills(), 0u);
}

// --- Java ---------------------------------------------------------------------------

TEST_F(InfraTest, JavaHostsHaveTwoTiers) {
  PoolProfile p = default_profile(core::Infra::kJava);
  p.host_count = 12;
  InfraAdapter java(events_, transport_, net_, 10, p);
  java.start(counting_factory());
  int jit = 0, interp = 0;
  for (auto& h : java.pool().hosts()) {
    if (h->spec().ops_per_sec > 1e6) {
      ++jit;
      EXPECT_NEAR(h->spec().ops_per_sec, kJavaJitOpsPerSec,
                  kJavaJitOpsPerSec * 0.11);
    } else {
      ++interp;
      EXPECT_NEAR(h->spec().ops_per_sec, kJavaInterpretedOpsPerSec,
                  kJavaInterpretedOpsPerSec * 0.11);
    }
  }
  EXPECT_EQ(jit, 8);
  EXPECT_EQ(interp, 4);
}

// --- Globus ----------------------------------------------------------------------------

TEST_F(InfraTest, GlobusIdleUntilSwitchedOn) {
  PoolProfile p = default_profile(core::Infra::kGlobus);
  p.host_count = 8;
  p.initially_up = 1.0;
  GlobusAdapter globus(events_, transport_, net_, 11, p, {});
  globus.start(counting_factory());
  events_.run_for(10 * kMinute);
  EXPECT_EQ(live_, 0) << "no jobs before a GRAM submission";
  EXPECT_FALSE(globus.switched_on());
}

TEST_F(InfraTest, LightSwitchActivatesGlobusViaMdsAuthSubmit) {
  PoolProfile p = default_profile(core::Infra::kGlobus);
  p.host_count = 8;
  p.initially_up = 1.0;
  GlobusAdapter globus(events_, transport_, net_, 12, p, {});
  globus.start(counting_factory());

  Node control(events_, transport_, Endpoint{"control", 1});
  ASSERT_TRUE(control.start().ok());
  app::LightSwitch::Options o;
  o.mds = globus.mds_endpoint();
  app::LightSwitch sw(control, o);
  events_.run_for(kMinute);
  sw.turn_on();
  events_.run_for(10 * kMinute);
  EXPECT_TRUE(sw.globus_on());
  EXPECT_TRUE(globus.switched_on());
  EXPECT_GT(live_, 0);
  // The binary was staged from GASS exactly once, then cached.
  EXPECT_EQ(globus.gass_fetches(), 1u);
}

// --- NetSolve -----------------------------------------------------------------------------

TEST_F(InfraTest, NetSolveLaunchesOnlyAfterRequest) {
  PoolProfile p = default_profile(core::Infra::kNetSolve);
  p.host_count = 3;
  p.initially_up = 1.0;
  NetSolveAdapter ns(events_, transport_, net_, 13, p, {});
  ns.start(counting_factory());
  events_.run_for(5 * kMinute);
  EXPECT_EQ(live_, 0);
  EXPECT_GT(ns.advertised_servers(), 0u);

  Node control(events_, transport_, Endpoint{"control", 1});
  ASSERT_TRUE(control.start().ok());
  std::optional<Result<Bytes>> got;
  control.call(ns.agent_endpoint(), core::msgtype::kNetSolveRequest, {}, CallOptions::fixed(5 * kSecond),
               [&](Result<Bytes> r) { got = std::move(r); });
  events_.run_for(5 * kMinute);
  ASSERT_TRUE(got && got->ok());
  EXPECT_TRUE(ns.requested());
  EXPECT_GT(live_, 0);
}

// --- Legion translator ------------------------------------------------------------------------

TEST_F(InfraTest, TranslatorForwardsAndRelays) {
  // A backend service the translator fronts.
  Node backend(events_, transport_, Endpoint{"backend", 601});
  ASSERT_TRUE(backend.start().ok());
  backend.handle(0x0201, [](const IncomingMessage& m, Responder r) {
    Bytes out = m.packet.payload;
    out.push_back(0xAA);
    r.ok(out);
  });

  PoolProfile p = default_profile(core::Infra::kLegion);
  p.host_count = 2;
  LegionAdapter legion(events_, transport_, net_, 14, p, {});
  legion.translator().forward(0x0201, {Endpoint{"backend", 601}});
  legion.start(counting_factory());

  Node client(events_, transport_, Endpoint{"legion-client", 1});
  ASSERT_TRUE(client.start().ok());
  std::optional<Result<Bytes>> got;
  client.call(legion.translator_endpoint(), 0x0201, {5}, CallOptions::fixed(10 * kSecond),
              [&](Result<Bytes> r) { got = std::move(r); });
  events_.run_for(kMinute);
  ASSERT_TRUE(got.has_value());
  ASSERT_TRUE(got->ok()) << got->error().to_string();
  EXPECT_EQ(got->value(), (Bytes{5, 0xAA}));
  EXPECT_EQ(legion.translator().translated(), 1u);
}

TEST_F(InfraTest, TranslatorFailsOverBetweenTargets) {
  Node backend(events_, transport_, Endpoint{"backend-b", 601});
  ASSERT_TRUE(backend.start().ok());
  backend.handle(0x0201, [](const IncomingMessage&, Responder r) { r.ok({1}); });

  PoolProfile p = default_profile(core::Infra::kLegion);
  p.host_count = 1;
  LegionAdapter legion(events_, transport_, net_, 15, p, {});
  // First target does not exist; second works.
  legion.translator().forward(0x0201, {Endpoint{"backend-a", 601},
                                       Endpoint{"backend-b", 601}});
  legion.start(counting_factory());

  Node client(events_, transport_, Endpoint{"legion-client", 1});
  ASSERT_TRUE(client.start().ok());
  std::optional<Result<Bytes>> got;
  client.call(legion.translator_endpoint(), 0x0201, {}, CallOptions::fixed(30 * kSecond),
              [&](Result<Bytes> r) { got = std::move(r); });
  events_.run_for(2 * kMinute);
  ASSERT_TRUE(got && got->ok());
  EXPECT_EQ(got->value(), Bytes{1});
}

TEST_F(InfraTest, TranslatorPropagatesRejection) {
  Node backend(events_, transport_, Endpoint{"backend-c", 601});
  ASSERT_TRUE(backend.start().ok());
  backend.handle(0x0202, [](const IncomingMessage&, Responder r) {
    r.fail(Err::kRejected, "unregistered client");
  });
  PoolProfile p = default_profile(core::Infra::kLegion);
  p.host_count = 1;
  LegionAdapter legion(events_, transport_, net_, 16, p, {});
  legion.translator().forward(0x0202, {Endpoint{"backend-c", 601}});
  legion.start(counting_factory());

  Node client(events_, transport_, Endpoint{"legion-client", 1});
  ASSERT_TRUE(client.start().ok());
  std::optional<Result<Bytes>> got;
  client.call(legion.translator_endpoint(), 0x0202, {}, CallOptions::fixed(10 * kSecond),
              [&](Result<Bytes> r) { got = std::move(r); });
  events_.run_for(kMinute);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->code(), Err::kRejected);
  EXPECT_EQ(got->error().message, "unregistered client");
}

// --- Profiles -----------------------------------------------------------------------------------

TEST(Profiles, AllInfrasHaveProfiles) {
  for (int i = 0; i < core::kInfraCount; ++i) {
    const PoolProfile p = default_profile(static_cast<core::Infra>(i));
    EXPECT_EQ(p.infra, static_cast<core::Infra>(i));
    EXPECT_GT(p.host_count, 0);
    EXPECT_FALSE(p.host_prefix.empty());
  }
}

TEST(Profiles, CalibratedFleetMatchesFigure3b) {
  // Host counts follow the paper's Figure 3b ordering:
  // Condor > NT > Legion > Globus > Unix > Java > NetSolve.
  const int condor = default_profile(core::Infra::kCondor).host_count;
  const int nt = default_profile(core::Infra::kNT).host_count;
  const int legion = default_profile(core::Infra::kLegion).host_count;
  const int globus = default_profile(core::Infra::kGlobus).host_count;
  const int unix_n = default_profile(core::Infra::kUnix).host_count;
  const int java = default_profile(core::Infra::kJava).host_count;
  const int ns = default_profile(core::Infra::kNetSolve).host_count;
  EXPECT_GT(condor, nt);
  EXPECT_GT(nt, legion);
  EXPECT_GE(legion, globus);
  EXPECT_GT(globus, unix_n);
  EXPECT_GT(unix_n, java);
  EXPECT_GT(java, ns);
}

}  // namespace
}  // namespace ew::infra
