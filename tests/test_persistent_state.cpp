// Tests for the persistent state manager, in particular the run-time sanity
// check of Section 3.1.2: "If a process attempts to store a counter example,
// the persistent state manager first checks to make sure the stored object
// is, indeed, a Ramsey counter example for the given problem size."
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>

#include "core/persistent_state.hpp"
#include "ramsey/clique.hpp"
#include "sim/event_queue.hpp"
#include "sim/network_model.hpp"
#include "sim/sim_transport.hpp"

namespace ew::core {
namespace {

class PersistentStateTest : public ::testing::Test {
 protected:
  PersistentStateTest()
      : node(events, transport, Endpoint{"state", 402}),
        mgr(node) {
    net.set_loss_rate(0.0);
    net.set_jitter_sigma(0.0);
    net.set_default_latencies(0, 0);
    EXPECT_TRUE(node.start().ok());
    mgr.register_validator("ramsey/best/", PersistentStateManager::ramsey_validator());
    mgr.start();
  }

  Bytes ramsey_object(const ramsey::ColoredGraph& g, bool claim, std::uint64_t v) {
    return gossip::versioned_blob(v, make_best_graph_body(g.serialize(), claim));
  }

  sim::EventQueue events;
  sim::NetworkModel net{Rng(1)};
  sim::SimTransport transport{events, net};
  Node node;
  PersistentStateManager mgr;
};

TEST_F(PersistentStateTest, AcceptsGenuineCounterExample) {
  auto paley = ramsey::ColoredGraph::paley(17);
  const Status s = mgr.store(best_graph_name(17, 4), ramsey_object(*paley, true, 1));
  EXPECT_TRUE(s.ok()) << s.to_string();
  EXPECT_EQ(mgr.stores_accepted(), 1u);
  EXPECT_TRUE(mgr.fetch(best_graph_name(17, 4)).has_value());
}

TEST_F(PersistentStateTest, RejectsFalseCounterExampleClaim) {
  Rng rng(1);
  const auto junk = ramsey::ColoredGraph::random(17, rng);
  ASSERT_FALSE(ramsey::is_counterexample(junk, 4));
  const Status s = mgr.store(best_graph_name(17, 4), ramsey_object(junk, true, 1));
  EXPECT_EQ(s.code(), Err::kRejected);
  EXPECT_EQ(mgr.stores_rejected(), 1u);
  EXPECT_FALSE(mgr.fetch(best_graph_name(17, 4)).has_value());
}

TEST_F(PersistentStateTest, AcceptsNonClaimingIntermediateState) {
  Rng rng(2);
  const auto wip = ramsey::ColoredGraph::random(17, rng);
  const Status s = mgr.store(best_graph_name(17, 4), ramsey_object(wip, false, 1));
  EXPECT_TRUE(s.ok());
}

TEST_F(PersistentStateTest, RejectsOrderMismatch) {
  auto paley = ramsey::ColoredGraph::paley(13);
  const Status s = mgr.store(best_graph_name(17, 4), ramsey_object(*paley, false, 1));
  EXPECT_EQ(s.code(), Err::kRejected);
}

TEST_F(PersistentStateTest, RejectsMalformedObjectName) {
  auto paley = ramsey::ColoredGraph::paley(17);
  const Status s = mgr.store("ramsey/best/oops", ramsey_object(*paley, true, 1));
  EXPECT_EQ(s.code(), Err::kRejected);
}

TEST_F(PersistentStateTest, StaleVersionIsIdempotentNoOp) {
  auto paley = ramsey::ColoredGraph::paley(17);
  EXPECT_TRUE(mgr.store(best_graph_name(17, 4), ramsey_object(*paley, true, 5)).ok());
  // Re-storing staler state succeeds but changes nothing.
  EXPECT_TRUE(mgr.store(best_graph_name(17, 4), ramsey_object(*paley, true, 3)).ok());
  EXPECT_EQ(mgr.stores_stale(), 1u);
  EXPECT_EQ(*gossip::blob_version(*mgr.fetch(best_graph_name(17, 4))), 5u);
  EXPECT_TRUE(mgr.store(best_graph_name(17, 4), ramsey_object(*paley, true, 9)).ok());
  EXPECT_EQ(*gossip::blob_version(*mgr.fetch(best_graph_name(17, 4))), 9u);
}

TEST_F(PersistentStateTest, UnvalidatedPrefixStoresFreely) {
  EXPECT_TRUE(mgr.store("notes/anything", gossip::versioned_blob(1, {1, 2})).ok());
}

TEST_F(PersistentStateTest, RejectsUnversionedBlob) {
  EXPECT_EQ(mgr.store("notes/x", Bytes{1, 2}).code(), Err::kProtocol);
}

TEST_F(PersistentStateTest, NetworkStoreAndFetch) {
  Node client(events, transport, Endpoint{"client", 1});
  ASSERT_TRUE(client.start().ok());
  auto paley = ramsey::ColoredGraph::paley(17);
  StoreRequest req;
  req.name = best_graph_name(17, 4);
  req.blob = ramsey_object(*paley, true, 1);
  std::optional<Result<Bytes>> store_result;
  client.call(node.self(), msgtype::kStateStore, req.serialize(), CallOptions::fixed(kSecond),
              [&](Result<Bytes> r) { store_result = std::move(r); });
  events.run_until_idle();
  ASSERT_TRUE(store_result && store_result->ok());

  Writer w;
  w.str(req.name);
  std::optional<Result<Bytes>> fetch_result;
  client.call(node.self(), msgtype::kStateFetch, w.take(), CallOptions::fixed(kSecond),
              [&](Result<Bytes> r) { fetch_result = std::move(r); });
  events.run_until_idle();
  ASSERT_TRUE(fetch_result && fetch_result->ok());
  EXPECT_EQ(fetch_result->value(), req.blob);
}

TEST_F(PersistentStateTest, NetworkRejectionCarriesMessage) {
  Node client(events, transport, Endpoint{"client", 1});
  ASSERT_TRUE(client.start().ok());
  Rng rng(5);
  StoreRequest req;
  req.name = best_graph_name(17, 4);
  req.blob = ramsey_object(ramsey::ColoredGraph::random(17, rng), true, 1);
  std::optional<Result<Bytes>> got;
  client.call(node.self(), msgtype::kStateStore, req.serialize(), CallOptions::fixed(kSecond),
              [&](Result<Bytes> r) { got = std::move(r); });
  events.run_until_idle();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->code(), Err::kRejected);
  EXPECT_NE(got->error().message.find("mono K4"), std::string::npos);
}

TEST_F(PersistentStateTest, FetchMissingObjectRejected) {
  Node client(events, transport, Endpoint{"client", 1});
  ASSERT_TRUE(client.start().ok());
  Writer w;
  w.str("no/such/object");
  std::optional<Result<Bytes>> got;
  client.call(node.self(), msgtype::kStateFetch, w.take(), CallOptions::fixed(kSecond),
              [&](Result<Bytes> r) { got = std::move(r); });
  events.run_until_idle();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->code(), Err::kRejected);
}

TEST_F(PersistentStateTest, ObjectCapEnforced) {
  PersistentStateManager::Options o;
  o.max_objects = 2;
  Node n2(events, transport, Endpoint{"state2", 1});
  ASSERT_TRUE(n2.start().ok());
  PersistentStateManager small(n2, o);
  small.start();
  EXPECT_TRUE(small.store("a", gossip::versioned_blob(1, {})).ok());
  EXPECT_TRUE(small.store("b", gossip::versioned_blob(1, {})).ok());
  EXPECT_EQ(small.store("c", gossip::versioned_blob(1, {})).code(), Err::kRejected);
  // Updating an existing object is still allowed at the cap.
  EXPECT_TRUE(small.store("a", gossip::versioned_blob(2, {})).ok());
}

// --- File-backed durability -------------------------------------------------

class FileBackedStateTest : public ::testing::Test {
 protected:
  FileBackedStateTest() {
    net.set_loss_rate(0.0);
    net.set_jitter_sigma(0.0);
    net.set_default_latencies(0, 0);
    char tmpl[] = "/tmp/ew_state_XXXXXX";
    dir = mkdtemp(tmpl);
    EXPECT_FALSE(dir.empty());
  }
  ~FileBackedStateTest() override {
    std::filesystem::remove_all(dir);
  }

  std::unique_ptr<PersistentStateManager> make_manager(Node& node) {
    PersistentStateManager::Options o;
    o.storage_dir = dir;
    auto mgr = std::make_unique<PersistentStateManager>(node, o);
    mgr->register_validator("ramsey/best/",
                            PersistentStateManager::ramsey_validator());
    mgr->start();
    return mgr;
  }

  sim::EventQueue events;
  sim::NetworkModel net{Rng(1)};
  sim::SimTransport transport{events, net};
  std::string dir;
};

TEST_F(FileBackedStateTest, ObjectsSurviveProcessRestart) {
  auto paley = ramsey::ColoredGraph::paley(17);
  const Bytes obj = gossip::versioned_blob(
      7, make_best_graph_body(paley->serialize(), true));
  {
    Node node(events, transport, Endpoint{"state", 402});
    node.start();
    auto mgr = make_manager(node);
    ASSERT_TRUE(mgr->store(best_graph_name(17, 4), obj).ok());
    ASSERT_TRUE(mgr->store("notes/run", gossip::versioned_blob(1, {1, 2})).ok());
    node.stop();
  }
  // A brand-new manager on the same directory recovers everything.
  Node node2(events, transport, Endpoint{"state2", 402});
  node2.start();
  auto mgr2 = make_manager(node2);
  EXPECT_EQ(mgr2->objects_recovered(), 2u);
  auto fetched = mgr2->fetch(best_graph_name(17, 4));
  ASSERT_TRUE(fetched.has_value());
  EXPECT_EQ(*fetched, obj);
  EXPECT_TRUE(mgr2->fetch("notes/run").has_value());
}

TEST_F(FileBackedStateTest, CorruptedFileRefusedOnRecovery) {
  auto paley = ramsey::ColoredGraph::paley(17);
  {
    Node node(events, transport, Endpoint{"state", 402});
    node.start();
    auto mgr = make_manager(node);
    ASSERT_TRUE(mgr->store(best_graph_name(17, 4),
                           gossip::versioned_blob(
                               7, make_best_graph_body(paley->serialize(), true)))
                    .ok());
    node.stop();
  }
  // Tamper with the stored file: flip graph bytes so the counter-example
  // claim becomes false.
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::fstream f(entry.path(),
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(-4, std::ios::end);
    const char junk[4] = {1, 2, 3, 4};
    f.write(junk, 4);
  }
  Node node2(events, transport, Endpoint{"state2", 402});
  node2.start();
  auto mgr2 = make_manager(node2);
  EXPECT_EQ(mgr2->objects_recovered(), 0u);
  EXPECT_FALSE(mgr2->fetch(best_graph_name(17, 4)).has_value());
}

// --- Torn-write recovery ----------------------------------------------------
//
// A crash can interrupt write_through at any point: mid-write (truncated
// .obj.tmp), after write but before rename (intact orphan tmp), or it can
// leave a damaged final image next to a healthy tmp. start() must recover
// the newest intact version in every case and consume the orphan.

TEST_F(FileBackedStateTest, TruncatedTmpIsRefusedAndCleaned) {
  const Bytes v2 = gossip::versioned_blob(2, {1, 2, 3});
  std::filesystem::path final_path;
  {
    Node node(events, transport, Endpoint{"state", 402});
    node.start();
    auto mgr = make_manager(node);
    ASSERT_TRUE(mgr->store("notes/run", v2).ok());
    node.stop();
  }
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    if (e.path().extension() == ".obj") final_path = e.path();
  }
  ASSERT_FALSE(final_path.empty());
  // A torn write of v3: only the first bytes of the blob made it to disk.
  const Bytes v3 = gossip::versioned_blob(3, {4, 5, 6});
  {
    std::ofstream out(final_path.string() + ".tmp", std::ios::binary);
    out.write(reinterpret_cast<const char*>(v3.data()), 3);
  }
  Node node2(events, transport, Endpoint{"state2", 402});
  node2.start();
  auto mgr2 = make_manager(node2);
  EXPECT_EQ(mgr2->objects_recovered(), 1u);
  auto fetched = mgr2->fetch("notes/run");
  ASSERT_TRUE(fetched.has_value());
  EXPECT_EQ(*fetched, v2);  // the intact final image won
  EXPECT_FALSE(std::filesystem::exists(final_path.string() + ".tmp"));
}

TEST_F(FileBackedStateTest, IntactOrphanTmpRecoversAndPromotes) {
  const Bytes v1 = gossip::versioned_blob(1, {1});
  const Bytes v2 = gossip::versioned_blob(2, {2});
  std::filesystem::path final_path;
  {
    Node node(events, transport, Endpoint{"state", 402});
    node.start();
    auto mgr = make_manager(node);
    ASSERT_TRUE(mgr->store("notes/run", v1).ok());
    node.stop();
  }
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    if (e.path().extension() == ".obj") final_path = e.path();
  }
  ASSERT_FALSE(final_path.empty());
  // Crash landed after writing v2's tmp but before the rename.
  {
    std::ofstream out(final_path.string() + ".tmp", std::ios::binary);
    out.write(reinterpret_cast<const char*>(v2.data()),
              static_cast<std::streamsize>(v2.size()));
  }
  {
    Node node2(events, transport, Endpoint{"state2", 402});
    node2.start();
    auto mgr2 = make_manager(node2);
    EXPECT_EQ(mgr2->objects_recovered(), 1u);
    auto fetched = mgr2->fetch("notes/run");
    ASSERT_TRUE(fetched.has_value());
    EXPECT_EQ(*fetched, v2);  // newest intact version, from the tmp
    node2.stop();
  }
  // The orphan was consumed and v2 promoted to the final image, so a third
  // incarnation no longer depends on the tmp.
  EXPECT_FALSE(std::filesystem::exists(final_path.string() + ".tmp"));
  Node node3(events, transport, Endpoint{"state3", 402});
  node3.start();
  auto mgr3 = make_manager(node3);
  auto fetched = mgr3->fetch("notes/run");
  ASSERT_TRUE(fetched.has_value());
  EXPECT_EQ(*fetched, v2);
}

TEST_F(FileBackedStateTest, GarbledFinalRecoversFromIntactTmp) {
  const Bytes v1 = gossip::versioned_blob(1, {1});
  const Bytes v2 = gossip::versioned_blob(2, {2});
  std::filesystem::path final_path;
  {
    Node node(events, transport, Endpoint{"state", 402});
    node.start();
    auto mgr = make_manager(node);
    ASSERT_TRUE(mgr->store("notes/run", v1).ok());
    node.stop();
  }
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    if (e.path().extension() == ".obj") final_path = e.path();
  }
  ASSERT_FALSE(final_path.empty());
  // The final image is torn (truncated to two bytes) but the next version's
  // tmp survived intact.
  {
    std::ofstream out(final_path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(v1.data()), 2);
  }
  {
    std::ofstream out(final_path.string() + ".tmp", std::ios::binary);
    out.write(reinterpret_cast<const char*>(v2.data()),
              static_cast<std::streamsize>(v2.size()));
  }
  Node node2(events, transport, Endpoint{"state2", 402});
  node2.start();
  auto mgr2 = make_manager(node2);
  EXPECT_EQ(mgr2->objects_recovered(), 1u);
  auto fetched = mgr2->fetch("notes/run");
  ASSERT_TRUE(fetched.has_value());
  EXPECT_EQ(*fetched, v2);
}

TEST_F(FileBackedStateTest, SlashAndUnicodeNamesAreFileSafe) {
  Node node(events, transport, Endpoint{"state", 402});
  node.start();
  auto mgr = make_manager(node);
  const std::string weird = "a/b/../c:*?\"<>|\xE2\x98\x83";
  ASSERT_TRUE(mgr->store(weird, gossip::versioned_blob(1, {9})).ok());
  Node node2(events, transport, Endpoint{"state2", 402});
  node2.start();
  auto mgr2 = make_manager(node2);
  ASSERT_TRUE(mgr2->fetch(weird).has_value());
}

TEST(BestGraphName, ParseRoundTrip) {
  const auto parsed = parse_best_graph_name(best_graph_name(42, 5));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->n, 42);
  EXPECT_EQ(parsed->k, 5);
  EXPECT_FALSE(parse_best_graph_name("other/name").has_value());
  EXPECT_FALSE(parse_best_graph_name("ramsey/best/42").has_value());
  EXPECT_FALSE(parse_best_graph_name("ramsey/best/x/y").has_value());
}

}  // namespace
}  // namespace ew::core
