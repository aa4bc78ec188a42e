// One fixed, fully populated instance of every wire message, shared by the
// golden byte pins (test_wire_golden) and the codec property suite
// (test_fuzz). Every list holds at least one element so nested lists are
// reached, and every enum and optional takes a non-default value.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "core/protocol.hpp"
#include "core/server_directory.hpp"
#include "gossip/protocol.hpp"
#include "nws/nws.hpp"
#include "ramsey/graph.hpp"
#include "ramsey/workunit.hpp"
#include "wish/env_store.hpp"
#include "wish/protocol.hpp"

namespace ew::wire_samples {

/// The raw gossip type list, with the message-shaped serialize/deserialize
/// face the samples share.
struct TypeList {
  std::vector<MsgType> types;

  [[nodiscard]] Bytes serialize() const { return gossip::serialize_type_list(types); }
  static Result<TypeList> deserialize(const Bytes& data) {
    auto t = gossip::deserialize_type_list(data);
    if (!t) return t.error();
    return TypeList{std::move(*t)};
  }
};

/// The raw gossip state-blob list.
struct BlobList {
  std::vector<gossip::StateBlob> blobs;

  [[nodiscard]] Bytes serialize() const { return gossip::serialize_blob_list(blobs); }
  static Result<BlobList> deserialize(const Bytes& data) {
    auto b = gossip::deserialize_blob_list(data);
    if (!b) return b.error();
    return BlobList{std::move(*b)};
  }
};

/// A WISH environment snapshot: decoding applies it to a fresh replica, and
/// re-encoding takes that replica's snapshot.
struct EnvBlob {
  static constexpr std::uint64_t kReaderWriterId = 0x5eed;
  Bytes blob;

  [[nodiscard]] Bytes serialize() const { return blob; }
  static Result<EnvBlob> deserialize(const Bytes& data) {
    wish::EnvStore store(kReaderWriterId);
    if (Status s = store.apply(data); !s.ok()) return s.error();
    return EnvBlob{store.snapshot()};
  }
};

/// Calls f(name, sample) once for every message, in a fixed order.
template <class F>
void for_each_sample(F&& f) {
  Rng rng(0x90DE);
  const Endpoint a{"node-a", 7001};
  const Endpoint b{"node-b", 7002};
  const Endpoint c{"node-c", 7003};

  // --- gossip -------------------------------------------------------------
  const gossip::Registration reg{a, {0x0301, 0x0302, 0x0303}};
  f("gossip.Registration", reg);
  gossip::Digest digest;
  digest.clique = 3;
  digest.summaries = {{0x0301, 5, 0xdeadbeefcafef00dULL}, {0x0302, 0, 1}};
  digest.reg_count = 4;
  digest.reg_checksum = 0x1234;
  f("gossip.Digest", digest);
  gossip::Delta delta;
  delta.clique = 2;
  delta.blobs = {{0x0301, Bytes{1, 2, 3}}, {0x0302, Bytes{}}};
  delta.want = {0x0303};
  delta.registrations = {reg, gossip::Registration{b, {0x0304}}};
  f("gossip.Delta", delta);
  gossip::ParentDigest parent;
  parent.cliques = {{1, 2, 3, 4, 5}, {6, 7, 8, 9, 10}};
  f("gossip.ParentDigest", parent);
  f("gossip.TypeList", TypeList{{0x0101, 0x0302}});
  f("gossip.BlobList", BlobList{{{7, Bytes{9, 8}}, {8, Bytes{}}}});
  gossip::PollRequest poll_req;
  poll_req.held = {{0x0301, 3, 9}, {0x0302, 0, 0}};
  f("gossip.PollRequest", poll_req);
  gossip::PollReply poll_rep;
  poll_rep.fresh = true;
  poll_rep.blobs = {{0x0301, Bytes{4, 5}}};
  f("gossip.PollReply", poll_rep);
  gossip::View view;
  view.generation = 9;
  view.leader = b;
  view.members = {a, b};
  f("gossip.View", view);
  gossip::Token token;
  token.round = 11;
  token.view = view;
  token.visited = {a};
  token.suspects = {c};
  f("gossip.Token", token);

  // --- scheduler and application services ---------------------------------
  const Bytes graph5 = ramsey::ColoredGraph::random(5, rng).serialize();
  ramsey::WorkSpec spec;
  spec.unit_id = 5;
  spec.n = 17;
  spec.k = 4;
  spec.kind = ramsey::HeuristicKind::kAnneal;
  spec.seed = 77;
  spec.report_ops = 1000;
  spec.resume = ramsey::ColoredGraph::random(6, rng);
  f("ramsey.WorkSpec", spec);
  ramsey::WorkReport report;
  report.unit_id = 6;
  report.ops_done = 2000;
  report.best_energy = 33;
  report.found = true;
  report.best_graph = graph5;
  f("ramsey.WorkReport", report);
  core::ClientHello hello;
  hello.client = a;
  hello.infra = core::Infra::kCondor;
  hello.host = "host-1";
  hello.want_units = 8;
  f("core.ClientHello", hello);
  core::ReportBatch batch;
  batch.client = a;
  batch.seq = 7;
  batch.want_units = 3;
  batch.reports = {report, ramsey::WorkReport{9, 10, 11, false, Bytes{}}};
  f("core.ReportBatch", batch);
  core::DirectiveBatch directives;
  directives.revoke = {9, 11};
  ramsey::WorkSpec plain;
  plain.unit_id = 12;
  plain.kind = ramsey::HeuristicKind::kTabu;
  directives.assign = {spec, plain};
  f("core.DirectiveBatch", directives);
  core::LogRecord log;
  log.when = 123456;
  log.client = b;
  log.infra = core::Infra::kNetSolve;
  log.host = "host-2";
  log.ops = 1000;
  log.best_energy = 40;
  log.found = true;
  f("core.LogRecord", log);
  f("core.StoreRequest", core::StoreRequest{"ramsey/best/17/4", Bytes{1, 2, 3}});
  core::ServerList servers;
  servers.merge(core::ServerEntry{a, 5});
  servers.merge(core::ServerEntry{c, 2});
  f("core.ServerList", servers);

  // --- NWS ----------------------------------------------------------------
  f("nws.NwsMeasurement", nws::NwsMeasurement{"cpu:host-1", 0.75});
  f("nws.NwsForecastReply", nws::NwsForecastReply{0.5, 0.01, 12, "median"});

  // --- WISH ---------------------------------------------------------------
  wish::SpawnRequest spawn;
  spawn.owner = a;
  spawn.jobs = {{"sort /tmp/in", 3 * kSecond}, {"", 0}};
  f("wish.SpawnRequest", spawn);
  f("wish.SpawnReply", wish::SpawnReply{7, {(7ULL << 32) | 1, (7ULL << 32) | 2}});
  f("wish.PollRequest", wish::PollRequest{{1, 2, 99}});
  wish::PollReply wpoll;
  wpoll.incarnation = 2;
  wpoll.jobs = {{1, wish::JobState::kExited, -3}, {99, wish::JobState::kLost, 0}};
  f("wish.PollReply", wpoll);
  f("wish.SignalRequest", wish::SignalRequest{42, 9});
  f("wish.SignalReply", wish::SignalReply{wish::JobState::kKilled});
  f("wish.ReapRequest", wish::ReapRequest{{1, 5}});
  f("wish.ReapReply", wish::ReapReply{2});
  wish::BarrierEnter enter;
  enter.name = "bar0";
  enter.epoch = 3;
  enter.expected = 8;
  enter.participant = b;
  enter.released_seen = true;
  f("wish.BarrierEnter", enter);
  f("wish.BarrierEnterReply", wish::BarrierEnterReply{true, 4});
  f("wish.BarrierRelease", wish::BarrierRelease{"bar0", 3});
  f("wish.LeaderClaim", wish::LeaderClaim{"lead0", 1, "wish-2"});
  f("wish.LeaderReply", wish::LeaderReply{"wish-2", 9});
  wish::ScatterRequest scatter;
  scatter.name = "sc0";
  scatter.epoch = 2;
  scatter.payload = {0xde, 0xad, 0xbe, 0xef};
  scatter.subtree = {b, c};
  f("wish.ScatterRequest", scatter);
  f("wish.ScatterReply", wish::ScatterReply{5, 0x1234567890abcdefULL});
  wish::EnvStore env(0xA11CE);
  env.set("PATH", "/bin");
  env.set("PATH", "/usr/bin");
  env.set("HOME", "/grid");
  f("wish.EnvStore", EnvBlob{env.snapshot()});
}

}  // namespace ew::wire_samples
