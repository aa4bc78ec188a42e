// Tests for gossip state records, freshness comparison, and protocol codecs.
#include <gtest/gtest.h>

#include <algorithm>

#include "gossip/protocol.hpp"
#include "gossip/state.hpp"

namespace ew::gossip {
namespace {

// --- Versioned blobs ----------------------------------------------------------

TEST(VersionedBlob, RoundTrip) {
  const Bytes blob = versioned_blob(42, Bytes{1, 2, 3});
  EXPECT_EQ(*blob_version(blob), 42u);
  EXPECT_EQ(*blob_body(blob), (Bytes{1, 2, 3}));
}

TEST(VersionedBlob, TruncatedFails) {
  const Bytes junk{1, 2};
  EXPECT_FALSE(blob_version(junk).ok());
  EXPECT_FALSE(blob_body(junk).ok());
}

TEST(CompareByVersionPrefix, OrdersByVersion) {
  const Bytes v1 = versioned_blob(1, {});
  const Bytes v2 = versioned_blob(2, {});
  EXPECT_LT(compare_by_version_prefix(v1, v2), 0);
  EXPECT_GT(compare_by_version_prefix(v2, v1), 0);
  EXPECT_EQ(compare_by_version_prefix(v1, v1), 0);
}

TEST(CompareByVersionPrefix, UnparseableIsStalest) {
  const Bytes good = versioned_blob(5, {});
  const Bytes junk{1};
  EXPECT_LT(compare_by_version_prefix(junk, good), 0);
}

// --- ComparatorRegistry ---------------------------------------------------------

TEST(ComparatorRegistry, FallbackIsVersionPrefix) {
  ComparatorRegistry reg;
  const auto& cmp = reg.comparator(999);
  EXPECT_GT(cmp(versioned_blob(2, {}), versioned_blob(1, {})), 0);
}

TEST(ComparatorRegistry, CustomComparatorWins) {
  ComparatorRegistry reg;
  // Freshness by blob size, ignoring versions.
  reg.register_comparator(7, [](const Bytes& a, const Bytes& b) {
    return static_cast<int>(a.size()) - static_cast<int>(b.size());
  });
  EXPECT_GT(reg.comparator(7)(Bytes(3, 0), Bytes(1, 0)), 0);
  // Other types still use the fallback.
  EXPECT_GT(reg.comparator(8)(versioned_blob(2, {}), versioned_blob(1, {})), 0);
}

// --- StateStore -------------------------------------------------------------------

TEST(StateStore, MergeReportsOutcomeAndKeepsFreshest) {
  ComparatorRegistry reg;
  StateStore store(reg);
  EXPECT_EQ(store.merge(StateBlob{1, versioned_blob(1, {Bytes{9}})}),
            MergeOutcome::kNew);
  EXPECT_EQ(store.merge(StateBlob{1, versioned_blob(5, {Bytes{7}})}),
            MergeOutcome::kFresher);
  EXPECT_EQ(store.merge(StateBlob{1, versioned_blob(3, {Bytes{6}})}),
            MergeOutcome::kStale);
  EXPECT_EQ(store.merge(StateBlob{1, versioned_blob(5, {Bytes{7}})}),
            MergeOutcome::kEqual);
  EXPECT_EQ(*blob_version(store.get(1)->content), 5u);
  EXPECT_TRUE(merge_accepted(MergeOutcome::kNew));
  EXPECT_TRUE(merge_accepted(MergeOutcome::kFresher));
  EXPECT_FALSE(merge_accepted(MergeOutcome::kStale));
  EXPECT_FALSE(merge_accepted(MergeOutcome::kEqual));
}

TEST(StateStore, ComparatorTieBreaksDeterministically) {
  // Same version, different bytes: whichever copy has the larger checksum
  // must win on BOTH replicas, whatever the merge order.
  ComparatorRegistry reg;
  const StateBlob a{1, versioned_blob(4, {Bytes{1}})};
  const StateBlob b{1, versioned_blob(4, {Bytes{2}})};
  StateStore s1(reg), s2(reg);
  s1.merge(a);
  s1.merge(b);
  s2.merge(b);
  s2.merge(a);
  EXPECT_EQ(s1.get(1)->content, s2.get(1)->content);
  // Exactly one of the two cross-merges was accepted.
  EXPECT_EQ(s1.rollup_checksum(), s2.rollup_checksum());
}

// A toy union-mergeable type: content is a sorted set of bytes, merge is set
// union. Mirrors the server directory's per-server fact-union shape.
Bytes byte_set_union(const Bytes& a, const Bytes& b) {
  Bytes out = a;
  for (auto x : b) {
    if (std::find(out.begin(), out.end(), x) == out.end()) out.push_back(x);
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(StateStore, UnionMergerReUnionsInsteadOfReplacing) {
  ComparatorRegistry reg;
  reg.register_merger(9, &byte_set_union);
  StateStore store(reg);
  EXPECT_EQ(store.merge(StateBlob{9, Bytes{1, 2}}), MergeOutcome::kNew);
  // Both sides contribute: the store must keep the union, not a winner.
  EXPECT_EQ(store.merge(StateBlob{9, Bytes{2, 3}}), MergeOutcome::kMerged);
  EXPECT_EQ(store.get(9)->content, (Bytes{1, 2, 3}));
  // A subset adds nothing — but its sender is provably stale: push-back.
  EXPECT_EQ(store.merge(StateBlob{9, Bytes{2}}), MergeOutcome::kStale);
  EXPECT_EQ(store.get(9)->content, (Bytes{1, 2, 3}));
  // Byte-identical copy is a clean no-op.
  EXPECT_EQ(store.merge(StateBlob{9, Bytes{1, 2, 3}}), MergeOutcome::kEqual);
  // A strict superset replaces outright.
  EXPECT_EQ(store.merge(StateBlob{9, Bytes{1, 2, 3, 4}}), MergeOutcome::kFresher);
  EXPECT_EQ(store.get(9)->content, (Bytes{1, 2, 3, 4}));
  // kMerged dirties the store (it changed) AND marks the sender stale (it
  // is missing facts) — both halves of the anti-entropy contract.
  EXPECT_TRUE(merge_accepted(MergeOutcome::kMerged));
  EXPECT_TRUE(merge_sender_stale(MergeOutcome::kMerged));
  EXPECT_TRUE(merge_sender_stale(MergeOutcome::kStale));
  EXPECT_FALSE(merge_sender_stale(MergeOutcome::kFresher));
}

TEST(StateStore, UnionMergerTypesDigestByChecksumAlone) {
  // Union types have no version prefix; their summary version is pinned to
  // 0 so digest staleness is decided purely by checksum, and the disputed
  // blob keeps flowing until the unions agree.
  ComparatorRegistry reg;
  reg.register_merger(9, &byte_set_union);
  StateStore s1(reg), s2(reg);
  s1.merge(StateBlob{9, Bytes{1, 2, 3, 4, 5, 6, 7, 8, 9}});
  EXPECT_EQ(s1.summary_of(9).version, 0u);

  // Two diverged stores converge through the digest/delta planner in ONE
  // symmetric exchange without ever losing a fact — checksum difference
  // (not order) ships the disputed blob in both directions.
  s2.merge(StateBlob{9, Bytes{1, 2, 3, 4, 5, 6, 7, 8, 42}});
  EXPECT_EQ(s1.blobs_fresher_than(s2.summary()).size(), 1u);
  EXPECT_EQ(s2.blobs_fresher_than(s1.summary()).size(), 1u);
  EXPECT_EQ(s1.types_stale_against(s2.summary()), std::vector<MsgType>{9});
  for (const auto& b : s1.blobs_fresher_than(s2.summary())) s2.merge(b);
  for (const auto& b : s2.blobs_fresher_than(s1.summary())) s1.merge(b);
  // Converged: the planners go quiet.
  EXPECT_TRUE(s1.blobs_fresher_than(s2.summary()).empty());
  EXPECT_TRUE(s1.types_stale_against(s2.summary()).empty());
  EXPECT_EQ(s1.get(9)->content, (Bytes{1, 2, 3, 4, 5, 6, 7, 8, 9, 42}));
  EXPECT_EQ(s1.get(9)->content, s2.get(9)->content);
}

TEST(StateStore, TypesIndependent) {
  ComparatorRegistry reg;
  StateStore store(reg);
  store.merge(StateBlob{1, versioned_blob(10, {})});
  store.merge(StateBlob{2, versioned_blob(3, {})});
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(*blob_version(store.get(2)->content), 3u);
  EXPECT_FALSE(store.get(3).has_value());
}

TEST(StateStore, AllReturnsEverything) {
  ComparatorRegistry reg;
  StateStore store(reg);
  for (MsgType t = 1; t <= 5; ++t) store.merge(StateBlob{t, versioned_blob(t, {})});
  EXPECT_EQ(store.all().size(), 5u);
}

TEST(StateStore, SummaryTracksVersionsNatively) {
  ComparatorRegistry reg;
  StateStore store(reg);
  store.merge(StateBlob{3, versioned_blob(7, {Bytes{1}})});
  store.merge(StateBlob{1, versioned_blob(2, {Bytes{2}})});
  const auto sum = store.summary();
  ASSERT_EQ(sum.size(), 2u);
  EXPECT_EQ(sum[0].type, 1);  // sorted by type
  EXPECT_EQ(sum[0].version, 2u);
  EXPECT_EQ(sum[1].type, 3);
  EXPECT_EQ(sum[1].version, 7u);
  EXPECT_EQ(store.version_of(3), 7u);
  EXPECT_EQ(store.version_of(99), 0u);
}

TEST(StateStore, StoreVersionBumpsOnlyOnAcceptedMerges) {
  ComparatorRegistry reg;
  StateStore store(reg);
  const auto v0 = store.store_version();
  store.merge(StateBlob{1, versioned_blob(1, {})});  // kNew
  const auto v1 = store.store_version();
  EXPECT_GT(v1, v0);
  store.merge(StateBlob{1, versioned_blob(1, {})});  // kEqual
  EXPECT_EQ(store.store_version(), v1);
  store.merge(StateBlob{1, versioned_blob(2, {})});  // kFresher
  EXPECT_GT(store.store_version(), v1);
}

TEST(StateStore, CrashRestartGhostShadowsLowVersionRepublish) {
  // Pin of the crash-restart incarnation hazard the WISH env-var layer must
  // design around. The store itself is *correct* to keep the higher-version
  // copy: it has no notion of writer identity, so a daemon that crashes,
  // restarts with a fresh version counter, and re-publishes at version 1 is
  // shadowed by its own pre-crash ghost — and a kStale poll outcome actively
  // pushes the ghost back at the restarted writer. Convergence on the ghost
  // is the store's contract; any layer that re-publishes after a restart
  // must therefore re-mint ABOVE the ghost's version (read the merged copy,
  // floor its own counter past it), as wish::EnvStore does. If this test
  // ever changes, that contract moved — update DESIGN.md §15 and EnvStore.
  ComparatorRegistry reg;
  StateStore store(reg);
  // Pre-crash incarnation published up to version 10.
  EXPECT_TRUE(merge_accepted(
      store.merge(StateBlob{7, versioned_blob(10, {Bytes{1}})})));
  // Restarted incarnation, counter reset, re-publishes at version 1: the
  // ghost wins, forever, no matter how often the new copy is offered.
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(store.merge(StateBlob{7, versioned_blob(1, {Bytes{2}})}),
              MergeOutcome::kStale);
  }
  EXPECT_EQ(*blob_version(store.get(7)->content), 10u);
  EXPECT_EQ(*blob_body(store.get(7)->content), Bytes{1});
  // The escape hatch layers above must use: re-mint past the ghost.
  EXPECT_EQ(store.merge(StateBlob{7, versioned_blob(11, {Bytes{2}})}),
            MergeOutcome::kFresher);
  EXPECT_EQ(*blob_body(store.get(7)->content), Bytes{2});
}

TEST(StateStore, DeltaPlannerFindsExactlyTheStaleTypes) {
  ComparatorRegistry reg;
  StateStore a(reg), b(reg);
  a.merge(StateBlob{1, versioned_blob(5, {Bytes{1}})});  // a ahead
  b.merge(StateBlob{1, versioned_blob(3, {Bytes{2}})});
  a.merge(StateBlob{2, versioned_blob(4, {Bytes{3}})});  // equal copies
  b.merge(StateBlob{2, versioned_blob(4, {Bytes{3}})});
  b.merge(StateBlob{3, versioned_blob(9, {Bytes{4}})});  // only b has it
  // a's view of b's digest: a should send type 1 and want type 3.
  const auto send = a.blobs_fresher_than(b.summary());
  ASSERT_EQ(send.size(), 1u);
  EXPECT_EQ(send[0].type, 1);
  const auto want = a.types_stale_against(b.summary());
  ASSERT_EQ(want.size(), 1u);
  EXPECT_EQ(want[0], 3);
  // And symmetrically for b.
  EXPECT_EQ(b.blobs_fresher_than(a.summary()).size(), 1u);
  EXPECT_EQ(b.types_stale_against(a.summary()).size(), 1u);
}

// --- Protocol codecs -----------------------------------------------------------------

TEST(ProtocolCodec, EndpointRoundTrip) {
  const auto e = wire::decode<Endpoint>(wire::encode(Endpoint{"host.example", 8080}));
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e->host, "host.example");
  EXPECT_EQ(e->port, 8080);
}

TEST(ProtocolCodec, RegistrationRoundTrip) {
  Registration reg;
  reg.component = Endpoint{"comp", 2000};
  reg.types = {0x0301, 0x0302};
  const auto out = Registration::deserialize(reg.serialize());
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->component, reg.component);
  EXPECT_EQ(out->types, reg.types);
}

TEST(ProtocolCodec, RegistrationRejectsHugeTypeList) {
  Writer w;
  wire::write(w, Endpoint{"c", 1});
  w.u32(1'000'000);
  EXPECT_FALSE(Registration::deserialize(w.bytes()).ok());
}

TEST(ProtocolCodec, DigestRoundTrip) {
  Digest d;
  d.clique = 3;
  d.summaries.push_back(TypeSummary{7, 11, 0xdeadbeefu});
  d.summaries.push_back(TypeSummary{9, 2, 42});
  d.reg_count = 5;
  d.reg_checksum = 0xabcdef0123456789ull;
  const auto out = Digest::deserialize(d.serialize());
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->clique, 3u);
  ASSERT_EQ(out->summaries.size(), 2u);
  EXPECT_EQ(out->summaries[0].type, 7);
  EXPECT_EQ(out->summaries[0].version, 11u);
  EXPECT_EQ(out->summaries[0].checksum, 0xdeadbeefu);
  EXPECT_EQ(out->reg_count, 5u);
  EXPECT_EQ(out->reg_checksum, 0xabcdef0123456789ull);
}

TEST(ProtocolCodec, DigestRejectsTruncatedAndOversized) {
  Digest d;
  d.clique = 1;
  d.summaries.push_back(TypeSummary{7, 11, 13});
  const Bytes wire = d.serialize();
  // Truncation anywhere must fail cleanly, never read past the buffer.
  for (std::size_t n = 0; n < wire.size(); ++n) {
    const Bytes cut(wire.begin(), wire.begin() + static_cast<long>(n));
    EXPECT_FALSE(Digest::deserialize(cut).ok()) << "prefix length " << n;
  }
  // A count field promising more elements than the payload can hold must be
  // rejected before any allocation is sized from it.
  Writer w;
  w.u32(1);            // clique
  w.u32(0x7fffffff);   // summary count: absurd
  EXPECT_FALSE(Digest::deserialize(w.bytes()).ok());
}

TEST(ProtocolCodec, DeltaRoundTrip) {
  Delta d;
  d.clique = 2;
  d.blobs.push_back(StateBlob{7, versioned_blob(3, {Bytes{1}})});
  d.want = {9, 11};
  Registration reg;
  reg.component = Endpoint{"c", 1};
  reg.types = {7};
  d.registrations.push_back(reg);
  const auto out = Delta::deserialize(d.serialize());
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->clique, 2u);
  ASSERT_EQ(out->blobs.size(), 1u);
  EXPECT_EQ(out->blobs[0].type, 7);
  EXPECT_EQ(out->want, (std::vector<MsgType>{9, 11}));
  ASSERT_EQ(out->registrations.size(), 1u);
  EXPECT_EQ(out->registrations[0].component, (Endpoint{"c", 1}));
}

TEST(ProtocolCodec, DeltaRejectsTruncatedAndOversized) {
  Delta d;
  d.clique = 1;
  d.blobs.push_back(StateBlob{7, versioned_blob(3, {Bytes{1, 2}})});
  d.want = {9};
  const Bytes wire = d.serialize();
  for (std::size_t n = 0; n < wire.size(); ++n) {
    const Bytes cut(wire.begin(), wire.begin() + static_cast<long>(n));
    EXPECT_FALSE(Delta::deserialize(cut).ok()) << "prefix length " << n;
  }
  Writer w;
  w.u32(1);           // clique
  w.u32(2'000'000);   // blob count far beyond the payload
  EXPECT_FALSE(Delta::deserialize(w.bytes()).ok());
}

TEST(ProtocolCodec, ParentDigestRoundTrip) {
  ParentDigest pd;
  pd.cliques.push_back(CliqueSummary{0, 4, 0x11, 10, 3});
  pd.cliques.push_back(CliqueSummary{1, 9, 0x22, 20, 7});
  const auto out = ParentDigest::deserialize(pd.serialize());
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->cliques.size(), 2u);
  EXPECT_EQ(out->cliques[1].clique, 1u);
  EXPECT_EQ(out->cliques[1].version, 9u);
  EXPECT_EQ(out->cliques[1].components, 7u);
  // Oversized clique count is rejected up front.
  Writer w;
  w.u32(50'000'000);
  EXPECT_FALSE(ParentDigest::deserialize(w.bytes()).ok());
}

TEST(ProtocolCodec, TypeAndBlobListRoundTrip) {
  const std::vector<MsgType> types{3, 1, 9};
  const auto tl = deserialize_type_list(serialize_type_list(types));
  ASSERT_TRUE(tl.ok());
  EXPECT_EQ(*tl, types);
  std::vector<StateBlob> blobs;
  blobs.push_back(StateBlob{5, Bytes{1, 2, 3}});
  const auto bl = deserialize_blob_list(serialize_blob_list(blobs));
  ASSERT_TRUE(bl.ok());
  ASSERT_EQ(bl->size(), 1u);
  EXPECT_EQ((*bl)[0].type, 5);
  EXPECT_EQ((*bl)[0].content, (Bytes{1, 2, 3}));
  // Count guard on both list codecs.
  Writer w;
  w.u32(3'000'000);
  EXPECT_FALSE(deserialize_type_list(w.bytes()).ok());
  EXPECT_FALSE(deserialize_blob_list(w.bytes()).ok());
}

TEST(ProtocolCodec, PollRequestAndReplyRoundTrip) {
  PollRequest req;
  req.held.push_back(TypeSummary{7, 3, 0xabcdef});
  req.held.push_back(TypeSummary{9, 0, 0});  // gossip holds nothing yet
  const auto rq = PollRequest::deserialize(req.serialize());
  ASSERT_TRUE(rq.ok());
  ASSERT_EQ(rq->held.size(), 2u);
  EXPECT_EQ(rq->held[0].type, 7);
  EXPECT_EQ(rq->held[0].checksum, 0xabcdefu);
  EXPECT_EQ(rq->held[1].version, 0u);

  PollReply fresh;
  fresh.fresh = true;
  const auto fr = PollReply::deserialize(fresh.serialize());
  ASSERT_TRUE(fr.ok());
  EXPECT_TRUE(fr->fresh);
  EXPECT_TRUE(fr->blobs.empty());

  PollReply stale;
  stale.blobs.push_back(StateBlob{5, Bytes{1, 2, 3}});
  const auto sr = PollReply::deserialize(stale.serialize());
  ASSERT_TRUE(sr.ok());
  EXPECT_FALSE(sr->fresh);
  ASSERT_EQ(sr->blobs.size(), 1u);
  EXPECT_EQ(sr->blobs[0].content, (Bytes{1, 2, 3}));

  // Count guards.
  Writer w;
  w.u32(50'000'000);
  EXPECT_FALSE(PollRequest::deserialize(w.bytes()).ok());
  Writer w2;
  w2.u8(0);
  w2.u32(50'000'000);
  EXPECT_FALSE(PollReply::deserialize(w2.bytes()).ok());
}

TEST(StateStore, SummaryOfSingleType) {
  ComparatorRegistry reg;
  StateStore store(reg);
  EXPECT_EQ(store.summary_of(7).type, 7);
  EXPECT_EQ(store.summary_of(7).version, 0u);
  EXPECT_EQ(store.summary_of(7).checksum, 0u);
  const StateBlob blob{7, versioned_blob(3, Bytes{1})};
  store.merge(blob);
  const TypeSummary s = store.summary_of(7);
  EXPECT_EQ(s.version, 3u);
  EXPECT_EQ(s.checksum, content_checksum(blob.content));
}

TEST(ProtocolCodec, ViewRoundTripSortsMembers) {
  View v;
  v.generation = 9;
  v.leader = Endpoint{"a", 1};
  v.members = {Endpoint{"c", 1}, Endpoint{"a", 1}, Endpoint{"b", 1}};
  const auto out = View::deserialize(v.serialize());
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->generation, 9u);
  EXPECT_TRUE(std::is_sorted(out->members.begin(), out->members.end()));
  EXPECT_TRUE(out->contains(Endpoint{"b", 1}));
  EXPECT_FALSE(out->contains(Endpoint{"z", 1}));
}

TEST(ProtocolCodec, ViewNewerThanOrdering) {
  View a;
  a.generation = 2;
  a.leader = Endpoint{"x", 1};
  View b;
  b.generation = 3;
  b.leader = Endpoint{"z", 1};
  EXPECT_TRUE(b.newer_than(a));
  EXPECT_FALSE(a.newer_than(b));
  // Tie on generation: smaller leader wins.
  b.generation = 2;
  EXPECT_TRUE(a.newer_than(b));
}

TEST(ProtocolCodec, TokenRoundTrip) {
  Token t;
  t.round = 4;
  t.view.generation = 2;
  t.view.leader = Endpoint{"l", 1};
  t.view.members = {Endpoint{"l", 1}, Endpoint{"m", 1}};
  t.visited = {Endpoint{"l", 1}};
  t.suspects = {Endpoint{"m", 1}};
  const auto out = Token::deserialize(t.serialize());
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->round, 4u);
  EXPECT_EQ(out->visited.size(), 1u);
  EXPECT_EQ(out->suspects.size(), 1u);
}

TEST(ProtocolCodec, TokenFromGarbageFails) {
  EXPECT_FALSE(Token::deserialize(Bytes{1, 2, 3}).ok());
  EXPECT_FALSE(View::deserialize(Bytes{}).ok());
}

}  // namespace
}  // namespace ew::gossip
