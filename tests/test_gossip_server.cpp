// Integration tests for the distributed state exchange service: component
// registration, polling, freshness-driven updates, anti-entropy, and
// responsibility partitioning.
#include <gtest/gtest.h>

#include <memory>

#include "gossip/gossip_server.hpp"
#include "gossip/sync_client.hpp"
#include "sim/event_queue.hpp"
#include "sim/network_model.hpp"
#include "sim/sim_transport.hpp"

namespace ew::gossip {
namespace {

constexpr MsgType kCounterState = 0x0441;

/// A component whose synchronized state is a versioned counter.
struct CounterComponent {
  CounterComponent(sim::EventQueue& events, Transport& transport,
                   const std::string& host, const ComparatorRegistry& comparators,
                   std::vector<Endpoint> gossips)
      : node(std::make_unique<Node>(events, transport, Endpoint{host, 2000})) {
    EXPECT_TRUE(node->start().ok());
    SyncClient::Options o;
    o.reregister_period = 30 * kSecond;
    o.retry_delay = 2 * kSecond;
    sync = std::make_unique<SyncClient>(*node, comparators, std::move(gossips), o);
    sync->expose(kCounterState,
                 SyncClient::StateHandlers{
                     [this] { return versioned_blob(version, {}); },
                     [this](const Bytes& fresh) { version = *blob_version(fresh); },
                 });
    sync->start();
  }

  std::unique_ptr<Node> node;
  std::unique_ptr<SyncClient> sync;
  std::uint64_t version = 0;
};

class GossipServerTest : public ::testing::Test {
 protected:
  GossipServerTest() : net_(Rng(7)), transport_(events_, net_) {
    net_.set_loss_rate(0.0);
    net_.set_jitter_sigma(0.0);
  }

  void build(int num_gossips, std::uint32_t num_cliques = 1) {
    for (int i = 0; i < num_gossips; ++i) {
      well_known_.push_back(Endpoint{'g' + std::to_string(i), 501});
    }
    GossipServer::Options opts;
    opts.poll_period = 5 * kSecond;
    opts.peer_sync_period = 8 * kSecond;
    opts.parent_sync_period = 8 * kSecond;
    opts.lease = 5 * kMinute;
    opts.num_cliques = num_cliques;
    opts.clique.token_period = 2 * kSecond;
    opts.clique.probe_period = 4 * kSecond;
    for (int i = 0; i < num_gossips; ++i) {
      auto node = std::make_unique<Node>(events_, transport_,
                                         well_known_[static_cast<std::size_t>(i)]);
      EXPECT_TRUE(node->start().ok());
      auto server = std::make_unique<GossipServer>(*node, comparators_, well_known_, opts);
      server->start();
      nodes_.push_back(std::move(node));
      servers_.push_back(std::move(server));
    }
  }

  CounterComponent* add_component(const std::string& host) {
    components_.push_back(std::make_unique<CounterComponent>(
        events_, transport_, host, comparators_, well_known_));
    return components_.back().get();
  }

  sim::EventQueue events_;
  sim::NetworkModel net_;
  sim::SimTransport transport_;
  ComparatorRegistry comparators_;
  std::vector<Endpoint> well_known_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<GossipServer>> servers_;
  std::vector<std::unique_ptr<CounterComponent>> components_;
};

TEST_F(GossipServerTest, ComponentRegistersAndIsPolled) {
  build(1);
  auto* c = add_component("comp-a");
  c->version = 3;
  events_.run_for(2 * kMinute);
  EXPECT_TRUE(c->sync->registered());
  EXPECT_GT(servers_[0]->polls_sent(), 0u);
  auto stored = servers_[0]->store().get(kCounterState);
  ASSERT_TRUE(stored.has_value());
  EXPECT_EQ(*blob_version(stored->content), 3u);
}

TEST_F(GossipServerTest, UnchangedComponentAnswersPollsFromTheDigestCache) {
  build(1);
  auto* c = add_component("comp-a");
  c->version = 3;
  events_.run_for(2 * kMinute);
  // The first poll shipped the blob; every later one matched the gossip's
  // digest and was answered "fresh" with no content.
  ASSERT_GT(servers_[0]->polls_sent(), 2u);
  EXPECT_GE(c->sync->poll_cache_hits(), servers_[0]->polls_sent() - 2);
  auto stored = servers_[0]->store().get(kCounterState);
  ASSERT_TRUE(stored.has_value());
  EXPECT_EQ(*blob_version(stored->content), 3u);

  // The moment the component's state changes, the cache misses and the
  // fresh content flows again.
  const std::uint64_t hits_before = c->sync->poll_cache_hits();
  c->version = 9;
  events_.run_for(30 * kSecond);
  stored = servers_[0]->store().get(kCounterState);
  ASSERT_TRUE(stored.has_value());
  EXPECT_EQ(*blob_version(stored->content), 9u);
  // And once absorbed, polls go back to cache hits.
  events_.run_for(1 * kMinute);
  EXPECT_GT(c->sync->poll_cache_hits(), hits_before);
}

TEST_F(GossipServerTest, StaleComponentReceivesUpdate) {
  build(1);
  auto* fresh = add_component("comp-a");
  auto* stale = add_component("comp-b");
  fresh->version = 10;
  stale->version = 2;
  events_.run_for(3 * kMinute);
  EXPECT_EQ(stale->version, 10u);
  EXPECT_GT(servers_[0]->updates_pushed(), 0u);
  EXPECT_GT(stale->sync->updates_applied(), 0u);
}

TEST_F(GossipServerTest, FreshnessNeverRollsBack) {
  build(1);
  auto* a = add_component("comp-a");
  auto* b = add_component("comp-b");
  a->version = 10;
  b->version = 2;
  events_.run_for(2 * kMinute);
  // Now b improves beyond a; the gossip must propagate forward only.
  b->version = 50;
  events_.run_for(3 * kMinute);
  EXPECT_EQ(a->version, 50u);
  EXPECT_EQ(b->version, 50u);
}

TEST_F(GossipServerTest, StatePropagatesAcrossGossipPool) {
  build(3);
  auto* a = add_component("comp-a");
  a->version = 7;
  events_.run_for(5 * kMinute);
  // Anti-entropy spreads the state to every gossip, not just the poller.
  int holders = 0;
  for (auto& s : servers_) {
    auto stored = s->store().get(kCounterState);
    if (stored && *blob_version(stored->content) == 7u) ++holders;
  }
  EXPECT_EQ(holders, 3);
}

TEST_F(GossipServerTest, RegistrationForwardedToPeers) {
  build(3);
  add_component("comp-a");
  events_.run_for(2 * kMinute);
  int knowing = 0;
  for (auto& s : servers_) knowing += s->registered_components() > 0 ? 1 : 0;
  EXPECT_EQ(knowing, 3);
}

TEST_F(GossipServerTest, ExactlyOneGossipResponsiblePerComponent) {
  build(4);
  events_.run_for(3 * kMinute);  // clique forms
  for (const char* comp : {"x", "y", "z", "w", "v"}) {
    int responsible = 0;
    for (auto& s : servers_) {
      responsible += s->responsible_for(Endpoint{comp, 2000}) ? 1 : 0;
    }
    EXPECT_EQ(responsible, 1) << comp;
  }
}

TEST_F(GossipServerTest, ResponsibilityRebalancesOnGossipFailure) {
  build(3);
  auto* c = add_component("comp-a");
  c->version = 4;
  events_.run_for(3 * kMinute);
  // Kill whichever gossip is responsible; another must take over polling.
  std::size_t victim = 99;
  for (std::size_t i = 0; i < servers_.size(); ++i) {
    if (servers_[i]->responsible_for(c->node->self())) victim = i;
  }
  ASSERT_NE(victim, 99u);
  transport_.set_host_up('g' + std::to_string(victim), false);
  events_.run_for(5 * kMinute);
  c->version = 20;
  events_.run_for(5 * kMinute);
  int holders = 0;
  for (std::size_t i = 0; i < servers_.size(); ++i) {
    if (i == victim) continue;
    auto stored = servers_[i]->store().get(kCounterState);
    if (stored && *blob_version(stored->content) == 20u) ++holders;
  }
  EXPECT_EQ(holders, 2);
}

TEST_F(GossipServerTest, DeadComponentPurgedAfterMisses) {
  build(1);
  auto* c = add_component("comp-a");
  events_.run_for(kMinute);
  ASSERT_EQ(servers_[0]->registered_components(), 1u);
  // Kill the component's host; polls now time out.
  c->sync->stop();
  transport_.set_host_up("comp-a", false);
  events_.run_for(10 * kMinute);
  EXPECT_EQ(servers_[0]->registered_components(), 0u);
}

TEST_F(GossipServerTest, ComponentFailsOverToAnotherGossip) {
  build(2);
  auto* c = add_component("comp-a");
  events_.run_for(kMinute);
  const Endpoint first = c->sync->current_gossip();
  // Take the registered gossip down; renewal must land on the other one.
  transport_.set_host_up(first.host, false);
  events_.run_for(3 * kMinute);
  EXPECT_TRUE(c->sync->registered());
  EXPECT_NE(c->sync->current_gossip(), first);
}

TEST_F(GossipServerTest, MergeOutcomesAndDigestBytesCounted) {
  build(2);
  auto* a = add_component("comp-a");
  a->version = 3;
  events_.run_for(2 * kMinute);
  a->version = 5;
  events_.run_for(3 * kMinute);
  std::uint64_t news = 0, freshers = 0, equals = 0;
  for (auto& s : servers_) {
    news += s->merges(MergeOutcome::kNew);
    freshers += s->merges(MergeOutcome::kFresher);
    equals += s->merges(MergeOutcome::kEqual);
  }
  EXPECT_GE(news, 2u);      // each server learned the type once
  EXPECT_GE(freshers, 1u);  // the version bump propagated
  EXPECT_GE(equals, 1u);    // steady-state polls re-deliver equal copies
  EXPECT_GT(servers_[0]->digest_bytes_max(), 0u);
}

TEST_F(GossipServerTest, ConvergenceRoundsRecordedOnCleanExchange) {
  build(2);
  auto* a = add_component("comp-a");
  a->version = 3;
  events_.run_for(5 * kMinute);
  std::uint64_t recorded = 0;
  for (auto& s : servers_) recorded += s->last_convergence_rounds();
  EXPECT_GT(recorded, 0u);
}

TEST_F(GossipServerTest, HierarchyShardsPoolAndTypes) {
  build(4, 2);
  // Pool position i mod K decides the child clique.
  EXPECT_EQ(servers_[0]->clique_id(), 0u);
  EXPECT_EQ(servers_[1]->clique_id(), 1u);
  EXPECT_EQ(servers_[2]->clique_id(), 0u);
  EXPECT_EQ(servers_[3]->clique_id(), 1u);
  // Every type is homed in exactly one clique, and all servers agree.
  for (MsgType t : {kCounterState, static_cast<MsgType>(0x0500),
                    static_cast<MsgType>(0x0501)}) {
    int owners = 0;
    for (auto& s : servers_) owners += s->owns_type(t) ? 1 : 0;
    EXPECT_EQ(owners, 2) << t;  // the two members of the home clique
  }
}

TEST_F(GossipServerTest, StateLandsInHomeCliqueOnly) {
  build(4, 2);
  auto* c = add_component("comp-a");
  c->version = 6;
  events_.run_for(6 * kMinute);
  // Whichever gossip took the registration, the type's home clique polls the
  // component and holds its state; the other clique stays clean.
  for (auto& s : servers_) {
    EXPECT_EQ(s->store().contains(kCounterState), s->owns_type(kCounterState));
    EXPECT_EQ(s->has_registration(c->node->self()), s->owns_type(kCounterState));
  }
}

TEST_F(GossipServerTest, ParentTierRollupsPropagateBetweenLeaders) {
  build(4, 2);
  auto* c = add_component("comp-a");
  c->version = 9;
  events_.run_for(8 * kMinute);
  // Each child-clique leader runs the parent tier and learns the other
  // clique's rollup through leader-to-leader anti-entropy.
  int leaders_knowing_both = 0;
  for (auto& s : servers_) {
    if (!s->clique().is_leader()) continue;
    ASSERT_NE(s->parent(), nullptr);
    if (s->rollups().size() == 2) ++leaders_knowing_both;
  }
  EXPECT_EQ(leaders_knowing_both, 2);
  // The home clique's rollup reflects the absorbed component state.
  std::uint32_t home = 99;
  for (auto& s : servers_) {
    if (s->owns_type(kCounterState)) home = s->clique_id();
  }
  ASSERT_NE(home, 99u);
  for (auto& s : servers_) {
    if (!s->clique().is_leader()) continue;
    const auto it = s->rollups().find(home);
    ASSERT_NE(it, s->rollups().end());
    EXPECT_GE(it->second.states, 1u);
    EXPECT_GE(it->second.components, 1u);
  }
}

/// The registry rollup by its definition: XOR over the registrations of
/// fnv1a64 of each one's wire bytes.
std::uint64_t rollup_of(const std::vector<Registration>& regs) {
  std::uint64_t acc = 0;
  for (const auto& r : regs) {
    const Bytes wire = r.serialize();
    acc ^= fnv1a64(std::string_view(reinterpret_cast<const char*>(wire.data()),
                                    wire.size()));
  }
  return acc;
}

TEST_F(GossipServerTest, RegistryRollupMatchesSerializeAndHashDefinition) {
  constexpr MsgType kSecondState = 0x0442;
  build(1);
  EXPECT_EQ(servers_[0]->reg_rollup_checksum(), 0u);
  auto* a = add_component("comp-a");
  auto* b = add_component("comp-b");
  events_.run_for(kMinute);
  ASSERT_EQ(servers_[0]->registered_components(), 2u);
  const Registration b_reg{b->node->self(), {kCounterState}};
  EXPECT_EQ(servers_[0]->reg_rollup_checksum(),
            rollup_of({{a->node->self(), {kCounterState}}, b_reg}));

  // Re-type: a exposes a second type and its next renewal carries both.
  a->sync->expose(kSecondState, SyncClient::StateHandlers{
                                    [] { return versioned_blob(1, {}); },
                                    [](const Bytes&) {},
                                });
  events_.run_for(kMinute);
  const Registration a_retyped{a->node->self(), {kCounterState, kSecondState}};
  EXPECT_EQ(servers_[0]->reg_rollup_checksum(), rollup_of({a_retyped, b_reg}));

  // Drop: b's host dies and the gossip purges it after its missed polls.
  b->sync->stop();
  transport_.set_host_up("comp-b", false);
  events_.run_for(10 * kMinute);
  ASSERT_EQ(servers_[0]->registered_components(), 1u);
  EXPECT_EQ(servers_[0]->reg_rollup_checksum(), rollup_of({a_retyped}));
}

TEST_F(GossipServerTest, UnexposedTypeRejected) {
  build(1);
  add_component("comp-a");
  events_.run_for(30 * kSecond);
  // Ask the component for a type it does not expose.
  Node probe(events_, transport_, Endpoint{"probe", 1});
  ASSERT_TRUE(probe.start().ok());
  Writer w;
  w.u16(0x0999);
  std::optional<Result<Bytes>> got;
  probe.call(Endpoint{"comp-a", 2000}, msgtype::kGetState, w.take(), CallOptions::fixed(5 * kSecond),
             [&](Result<Bytes> r) { got = std::move(r); });
  events_.run_for(10 * kSecond);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->code(), Err::kRejected);
}

}  // namespace
}  // namespace ew::gossip
