// Gossip scale gate: versioned-digest/delta anti-entropy at 1k -> 10k ->
// 100k registered components (DESIGN.md §12, EXPERIMENTS.md "Gossip scale").
//
// The point of the digest redesign is that the wire cost of an anti-entropy
// round is a function of the TYPE universe, not the component population:
// a digest carries one (version, checksum) summary per state type, and a
// delta carries only the blobs the summary proved stale. This harness grows
// the component population by 100x over a fixed 64-type universe and gates:
//
//   * digest_bytes_max at the largest scale stays within 4x of the smallest
//     (bounded — O(types), not O(components));
//   * convergence rounds stay under a constant bound at every scale
//     (sub-linear by construction: the population grew 100x);
//   * zero divergence after a chaos leg (link loss + a gossip host flap +
//     concurrent version bumps): every clique's stores are bit-identical,
//     every owned type is at the reference version, and every component got
//     pulled up to the freshest copy of everything it exposes.
//
// Emits ONE machine-readable JSON line:
//
//   {"bench":"gossip_scale","cliques":2,"types":64,
//    "scales":[{"components":...,"digest_bytes_max":...,
//               "convergence_rounds":...,"delta_blobs":...,"polls":...,
//               "updates_pushed":...,"sim_events":...,"wall_s":...,
//               "sim_events_per_s":...},...],
//    "digest_growth":...,"rounds_max":...,"diverged":0}
//
// wall_s is the host time of one whole scale (building the population
// through the chaos leg and the checks) and sim_events_per_s is sim_events
// over it; every other field is deterministic.
//
// --quick shrinks the population ladder (500 -> 2000) for the CI smoke run
// but keeps every correctness gate.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "common/rng.hpp"
#include "gossip/gossip_server.hpp"
#include "gossip/sync_client.hpp"
#include "sim/event_queue.hpp"
#include "sim/network_model.hpp"
#include "sim/sim_transport.hpp"

namespace ew::gossip {
namespace {

constexpr int kNumGossips = 4;
constexpr std::uint32_t kNumCliques = 2;
constexpr int kNumTypes = 64;

/// One registered application component exposing two versioned-counter
/// types from the shared universe. Registration renewal is pushed out past
/// the run so the event load scales with polling, not lease churn.
struct BenchComponent {
  BenchComponent(sim::EventQueue& events, Transport& transport,
                 const std::string& host, const ComparatorRegistry& comparators,
                 std::vector<Endpoint> gossips, MsgType a, MsgType b)
      : node(std::make_unique<Node>(events, transport, Endpoint{host, 2000})) {
    if (!node->start().ok()) std::abort();
    SyncClient::Options o;
    o.reregister_period = 4 * kHour;
    o.retry_delay = 5 * kSecond;
    sync = std::make_unique<SyncClient>(*node, comparators, std::move(gossips), o);
    for (MsgType t : {a, b}) {
      versions[t] = 0;
      sync->expose(t, SyncClient::StateHandlers{
                          [this, t] { return versioned_blob(versions.at(t), {}); },
                          [this, t](const Bytes& fresh) {
                            versions.at(t) = *blob_version(fresh);
                          },
                      });
    }
    sync->start();
  }

  std::unique_ptr<Node> node;
  std::unique_ptr<SyncClient> sync;
  std::map<MsgType, std::uint64_t> versions;
};

struct ScaleResult {
  std::size_t components = 0;
  std::uint64_t digest_bytes_max = 0;
  std::uint64_t convergence_rounds = 0;
  std::uint64_t delta_blobs = 0;
  std::uint64_t polls = 0;
  std::uint64_t updates_pushed = 0;
  std::uint64_t sim_events = 0;
  double wall_s = 0;  // host seconds for the whole scale
  int diverged = 0;  // count of failed correctness checks at this scale
};

ScaleResult run_scale(std::size_t num_components, std::uint64_t seed) {
  const auto wall_start = std::chrono::steady_clock::now();
  ScaleResult r;
  r.components = num_components;
  sim::EventQueue events;
  sim::NetworkModel net{Rng(seed)};
  net.set_loss_rate(0.0);
  net.set_jitter_sigma(0.0);
  sim::SimTransport transport(events, net);
  ComparatorRegistry comparators;
  Rng rng(seed * 6364136223846793005ull + 1442695040888963407ull);

  std::vector<Endpoint> well_known;
  for (int i = 0; i < kNumGossips; ++i) {
    well_known.push_back(Endpoint{"g" + std::to_string(i), 501});
  }
  GossipServer::Options opts;
  opts.poll_period = 30 * kSecond;
  opts.peer_sync_period = 10 * kSecond;
  opts.parent_sync_period = 10 * kSecond;
  opts.lease = 2 * kHour;
  opts.num_cliques = kNumCliques;
  opts.clique.token_period = 5 * kSecond;
  opts.clique.probe_period = 10 * kSecond;
  std::vector<std::unique_ptr<Node>> nodes;
  std::vector<std::unique_ptr<GossipServer>> servers;
  for (int i = 0; i < kNumGossips; ++i) {
    auto node = std::make_unique<Node>(events, transport,
                                       well_known[static_cast<std::size_t>(i)]);
    if (!node->start().ok()) std::abort();
    auto server =
        std::make_unique<GossipServer>(*node, comparators, well_known, opts);
    server->start();
    nodes.push_back(std::move(node));
    servers.push_back(std::move(server));
  }

  // The fixed type universe the population shares: digests summarize THIS,
  // so their size must not move when num_components grows 100x.
  std::vector<MsgType> all_types;
  for (int i = 0; i < kNumTypes; ++i) {
    all_types.push_back(static_cast<MsgType>(0x0500 + i));
  }
  std::vector<std::unique_ptr<BenchComponent>> comps;
  comps.reserve(num_components);
  for (std::size_t i = 0; i < num_components; ++i) {
    const MsgType a = all_types[rng.below(all_types.size())];
    MsgType b = a;
    while (b == a) b = all_types[rng.below(all_types.size())];
    comps.push_back(std::make_unique<BenchComponent>(
        events, transport, "comp-" + std::to_string(i), comparators,
        well_known, a, b));
    // Stagger the registration storm across the first poll period so the
    // sim queue holds O(batch) call timers, not O(population).
    if (i % 500 == 499) events.run_for(kSecond);
  }
  events.run_for(2 * kMinute);  // registration + clique formation + first polls

  // Reference model: the freshest version ever written per type — exactly
  // what a full-state exchange would converge everyone to.
  std::map<MsgType, std::uint64_t> reference;
  for (const auto& c : comps) {
    for (const auto& [t, v] : c->versions) {
      if (!reference.count(t)) reference[t] = v;
    }
  }
  auto bump_some = [&](std::size_t how_many) {
    for (std::size_t i = 0; i < how_many; ++i) {
      auto& c = *comps[rng.below(comps.size())];
      for (auto& [t, v] : c.versions) {
        if (rng.below(2) == 0) continue;
        v += 1 + rng.below(5);
        if (v > reference[t]) reference[t] = v;
      }
    }
  };

  // Quiet churn: seeded version bumps, clean network.
  for (int round = 0; round < 3; ++round) {
    bump_some(std::min<std::size_t>(200, comps.size() / 4 + 1));
    events.run_for(kMinute);
  }

  // Chaos leg: link loss, one gossip host flap, concurrent bumps.
  net.set_loss_rate(0.25);
  bump_some(std::min<std::size_t>(200, comps.size() / 4 + 1));
  const auto victim = rng.below(kNumGossips);
  transport.set_host_up("g" + std::to_string(victim), false);
  events.run_for(20 * kSecond);
  transport.set_host_up("g" + std::to_string(victim), true);
  events.run_for(40 * kSecond);

  // Heal and let anti-entropy and the poll/push cycle finish.
  net.set_loss_rate(0.0);
  for (int i = 0; i < kNumGossips; ++i) {
    transport.set_host_up("g" + std::to_string(i), true);
  }
  events.run_for(6 * kMinute);

  // Correctness gates (the "zero divergence" acceptance criterion).
  for (const auto& [t, want] : reference) {
    for (const auto& s : servers) {
      if (!s->owns_type(t)) continue;
      const auto stored = s->store().get(t);
      if (!stored.has_value() || *blob_version(stored->content) != want) {
        std::fprintf(stderr, "gossip_scale: type %u not at reference on %s\n",
                     unsigned{t}, s->clique_id() == 0 ? "clique0" : "clique1");
        ++r.diverged;
      }
    }
  }
  for (std::uint32_t k = 0; k < kNumCliques; ++k) {
    std::uint64_t rollup = 0;
    bool first = true;
    for (const auto& s : servers) {
      if (s->clique_id() != k) continue;
      if (first) {
        rollup = s->store().rollup_checksum();
        first = false;
      } else if (s->store().rollup_checksum() != rollup) {
        std::fprintf(stderr, "gossip_scale: clique %u stores diverged\n", k);
        ++r.diverged;
      }
    }
  }
  std::size_t stale_components = 0;
  for (const auto& c : comps) {
    for (const auto& [t, v] : c->versions) {
      if (v != reference[t]) ++stale_components;
    }
  }
  if (stale_components != 0) {
    std::fprintf(stderr, "gossip_scale: %zu component states left stale\n",
                 stale_components);
    ++r.diverged;
  }

  for (const auto& s : servers) {
    r.digest_bytes_max = std::max(r.digest_bytes_max, s->digest_bytes_max());
    r.convergence_rounds =
        std::max(r.convergence_rounds, s->last_convergence_rounds());
    r.delta_blobs += s->delta_blobs_sent();
    r.polls += s->polls_sent();
    r.updates_pushed += s->updates_pushed();
  }
  r.sim_events = events.executed();
  for (auto& s : servers) s->stop();
  for (auto& c : comps) c->sync->stop();
  r.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start)
                 .count();
  return r;
}

}  // namespace
}  // namespace ew::gossip

int main(int argc, char** argv) {
  using namespace ew;
  using namespace ew::gossip;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  const std::vector<std::size_t> ladder =
      quick ? std::vector<std::size_t>{500, 2'000}
            : std::vector<std::size_t>{1'000, 10'000, 100'000};

  std::vector<ScaleResult> results;
  for (std::size_t n : ladder) results.push_back(run_scale(n, 0xE17A));

  int diverged = 0;
  std::vector<std::string> scale_objs;
  for (const auto& r : results) {
    diverged += r.diverged;
    bench::JsonWriter s;
    s.u64("components", r.components)
        .u64("digest_bytes_max", r.digest_bytes_max)
        .u64("convergence_rounds", r.convergence_rounds)
        .u64("delta_blobs", r.delta_blobs)
        .u64("polls", r.polls)
        .u64("updates_pushed", r.updates_pushed)
        .u64("sim_events", r.sim_events)
        .f("wall_s", r.wall_s, 3)
        .f("sim_events_per_s", static_cast<double>(r.sim_events) / r.wall_s, 0);
    scale_objs.push_back(s.object());
  }
  const ScaleResult& lo = results.front();
  const ScaleResult& hi = results.back();
  const double digest_growth =
      lo.digest_bytes_max == 0
          ? 1e9
          : static_cast<double>(hi.digest_bytes_max) /
                static_cast<double>(lo.digest_bytes_max);
  std::uint64_t rounds_max = 0;
  for (const auto& r : results) {
    rounds_max = std::max(rounds_max, r.convergence_rounds);
  }

  bench::JsonWriter w;
  w.u64("cliques", kNumCliques)
      .u64("types", kNumTypes)
      .raw("scales", bench::json_array(scale_objs))
      .f("digest_growth", digest_growth, 2)
      .u64("rounds_max", rounds_max)
      .u64("diverged", static_cast<std::uint64_t>(diverged));
  bench::emit_json("gossip_scale", w);

  // Gates. The population grows 100x (4x in --quick); a digest that tracked
  // the population would blow the 4x growth bound immediately, and rounds
  // that tracked it would blow the constant cap.
  int rc = 0;
  if (diverged != 0) {
    std::fprintf(stderr, "FAIL: divergence after chaos+heal (%d checks)\n",
                 diverged);
    rc = 1;
  }
  if (digest_growth > 4.0) {
    std::fprintf(stderr, "FAIL: digest bytes grew %.2fx across the ladder\n",
                 digest_growth);
    rc = 1;
  }
  if (rounds_max > 8) {
    std::fprintf(stderr, "FAIL: convergence took %llu rounds (cap 8)\n",
                 static_cast<unsigned long long>(rounds_max));
    rc = 1;
  }
  for (const auto& r : results) {
    if (r.digest_bytes_max == 0 || r.polls == 0) {
      std::fprintf(stderr, "FAIL: no exchanges at scale %zu\n", r.components);
      rc = 1;
    }
  }
  return rc;
}
