#include "sim/mc/fixtures.hpp"

#include <array>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.hpp"
#include "core/protocol.hpp"
#include "core/scheduler.hpp"
#include "gossip/clique.hpp"
#include "gossip/gossip_server.hpp"
#include "gossip/state.hpp"
#include "net/node.hpp"
#include "ramsey/graph.hpp"
#include "sim/mc/base_world.hpp"

namespace ew::sim::mc {
namespace {

// ---------------------------------------------------------------------------
// Clique election world: 3 members, explored from t=0.

class CliqueWorld final : public BaseWorld {
 public:
  static constexpr int kMembers = 3;

  explicit CliqueWorld(std::uint64_t seed) : BaseWorld(seed) {
    for (int i = 0; i < kMembers; ++i) {
      well_known_.push_back(Endpoint{host(i), 700});
    }
    for (int i = 0; i < kMembers; ++i) start_member(i);
    set_fault_target(host(kMembers - 1),
                     {[this] { kill_member(kMembers - 1); },
                      [this] { start_member(kMembers - 1); }});
  }

  ~CliqueWorld() override {
    // Members hold Node references; tear down in dependency order.
    for (auto& m : members_) {
      if (m.member) m.member->stop();
      m.member.reset();
      m.node.reset();
    }
  }

  [[nodiscard]] std::string name() const override { return "clique"; }

  void settle() override { events_.run_for(5 * kMinute); }

  std::vector<std::string> check() override {
    std::vector<std::string> v = trace_violations(obs::InvariantOptions{});
    std::vector<int> live;
    for (int i = 0; i < kMembers; ++i) {
      if (members_[i].member) live.push_back(i);
    }
    if (live.empty()) return v;
    const gossip::View& ref = members_[live.front()].member->view();
    int leaders = 0;
    for (int i : live) {
      const auto& m = *members_[i].member;
      if (m.is_leader()) ++leaders;
      const gossip::View& vi = m.view();
      if (vi.leader != ref.leader || vi.members != ref.members) {
        v.push_back("clique: " + host(i) + " view disagrees after settle");
      }
      if (!vi.contains(well_known_[static_cast<std::size_t>(i)])) {
        v.push_back("clique: " + host(i) + " absent from its own view");
      }
      if (vi.members.size() != live.size()) {
        v.push_back("clique: " + host(i) + " view has " +
                    std::to_string(vi.members.size()) + " members, " +
                    std::to_string(live.size()) + " live");
      }
    }
    if (leaders != 1) {
      v.push_back("clique: " + std::to_string(leaders) +
                  " leaders among live members");
    }
    return v;
  }

  [[nodiscard]] std::uint64_t fingerprint() const override {
    std::uint64_t h = kFnvBasis;
    for (int i = 0; i < kMembers; ++i) {
      if (!members_[i].member) {
        h = fnv_mix(h, host(i) + ":dead");
        continue;
      }
      const gossip::View& vi = members_[i].member->view();
      h = fnv_mix(h, host(i));
      h = fnv_mix(h, vi.leader.to_string());
      for (const Endpoint& e : vi.members) h = fnv_mix(h, e.to_string());
    }
    return h;
  }

 private:
  static std::string host(int i) { return "g" + std::to_string(i); }

  void start_member(int i) {
    auto& m = members_[static_cast<std::size_t>(i)];
    // Timers the member arms in start() belong to this host.
    EventQueue::LabelScope scope(events_, host(i));
    m.node = std::make_unique<Node>(
        events_, transport_, well_known_[static_cast<std::size_t>(i)]);
    m.node->start();
    m.member = std::make_unique<gossip::CliqueMember>(*m.node, well_known_);
    m.member->start();
  }

  void kill_member(int i) {
    auto& m = members_[static_cast<std::size_t>(i)];
    if (m.member) m.member->stop();
    // Crash (and flush the node's outstanding-call callbacks) while the
    // stopped member is still alive: a pending probe/push callback captures
    // the member and must find running_ == false, not freed memory.
    if (m.node) m.node->crash();
    m.member.reset();
    m.node.reset();
  }

  struct Member {
    std::unique_ptr<Node> node;
    std::unique_ptr<gossip::CliqueMember> member;
  };

  std::vector<Endpoint> well_known_;
  std::array<Member, kMembers> members_;
};

// ---------------------------------------------------------------------------
// Gossip anti-entropy world: 3 servers, divergent pre-seeded stores.

class GossipWorld final : public BaseWorld {
 public:
  static constexpr int kServers = 3;
  static constexpr MsgType kTypeA = 0x0401;
  static constexpr MsgType kTypeB = 0x0402;
  static constexpr MsgType kTypeC = 0x0403;

  explicit GossipWorld(std::uint64_t seed) : BaseWorld(seed) {
    for (int i = 0; i < kServers; ++i) {
      well_known_.push_back(Endpoint{host(i), 750});
    }
    for (int i = 0; i < kServers; ++i) start_server(i);
    // Divergent starting stores: A's freshest copy on s1, B's on s2, C only
    // on s2. Anti-entropy must spread exactly the freshest of each.
    seed_blob(0, kTypeA, 3, "alpha-v3");
    seed_blob(1, kTypeA, 5, "alpha-v5");
    seed_blob(1, kTypeB, 1, "beta-v1");
    seed_blob(2, kTypeB, 2, "beta-v2");
    seed_blob(2, kTypeC, 1, "gamma-v1");
    set_fault_target(host(kServers - 1),
                     {[this] { kill_server(kServers - 1); },
                      [this] { start_server(kServers - 1); }});
  }

  ~GossipWorld() override {
    for (auto& s : servers_) {
      if (s.server) s.server->stop();
      s.server.reset();
      s.node.reset();
    }
  }

  [[nodiscard]] std::string name() const override { return "gossip"; }

  void warmup() override { events_.run_for(30 * kSecond); }

  void settle() override { events_.run_for(5 * kMinute); }

  std::vector<std::string> check() override {
    std::vector<std::string> v = trace_violations(obs::InvariantOptions{});
    std::vector<int> live;
    for (int i = 0; i < kServers; ++i) {
      if (servers_[i].server) live.push_back(i);
    }
    if (live.empty()) return v;
    // Pairwise store equality among the live servers (anti-entropy
    // convergence), plus a liveness floor: the freshest copy held by a
    // server that never died (s0/s1) must have won everywhere.
    const auto ref_blobs = servers_[live.front()].server->store().all();
    for (std::size_t j = 1; j < live.size(); ++j) {
      const auto other = servers_[live[j]].server->store().all();
      if (other.size() != ref_blobs.size()) {
        v.push_back("gossip: " + host(live[j]) + " store has " +
                    std::to_string(other.size()) + " types, " +
                    host(live.front()) + " has " +
                    std::to_string(ref_blobs.size()));
        continue;
      }
      for (std::size_t t = 0; t < ref_blobs.size(); ++t) {
        if (other[t].type != ref_blobs[t].type ||
            other[t].content != ref_blobs[t].content) {
          v.push_back("gossip: stores diverged at type " +
                      std::to_string(other[t].type) + " between " +
                      host(live.front()) + " and " + host(live[j]));
        }
      }
    }
    for (int i : live) {
      const auto& store = servers_[i].server->store();
      if (!store.contains(kTypeA) || store.version_of(kTypeA) != 5) {
        v.push_back("gossip: " + host(i) +
                    " missing freshest alpha (want v5)");
      }
      if (!store.contains(kTypeB)) {
        v.push_back("gossip: " + host(i) + " missing beta entirely");
      }
    }
    return v;
  }

  [[nodiscard]] std::uint64_t fingerprint() const override {
    std::uint64_t h = kFnvBasis;
    for (int i = 0; i < kServers; ++i) {
      if (!servers_[i].server) {
        h = fnv_mix(h, host(i) + ":dead");
        continue;
      }
      h = fnv_mix(h, host(i));
      for (const auto& s : servers_[i].server->store().summary()) {
        h = fnv_mix(h, static_cast<std::uint64_t>(s.type));
        h = fnv_mix(h, s.version);
        h = fnv_mix(h, s.checksum);
      }
      h = fnv_mix(h, servers_[i].server->clique().view().generation);
    }
    return h;
  }

 private:
  static std::string host(int i) { return "s" + std::to_string(i); }

  void start_server(int i) {
    auto& s = servers_[static_cast<std::size_t>(i)];
    EventQueue::LabelScope scope(events_, host(i));
    s.node = std::make_unique<Node>(
        events_, transport_, well_known_[static_cast<std::size_t>(i)]);
    s.node->start();
    gossip::GossipServer::Options o;
    o.poll_period = 1 * kHour;  // no registered components in this world
    o.peer_sync_period = 10 * kSecond;
    s.server = std::make_unique<gossip::GossipServer>(*s.node, comparators_,
                                                      well_known_, o);
    s.server->start();
  }

  void kill_server(int i) {
    auto& s = servers_[static_cast<std::size_t>(i)];
    if (s.server) s.server->stop();
    // Same ordering as CliqueWorld::kill_member: flush outstanding-call
    // callbacks into the stopped (but still allocated) server first.
    if (s.node) s.node->crash();
    s.server.reset();
    s.node.reset();
  }

  void seed_blob(int i, MsgType type, std::uint64_t version,
                 const std::string& body) {
    Bytes b(body.begin(), body.end());
    servers_[static_cast<std::size_t>(i)].server->store().merge(
        gossip::StateBlob{type, gossip::versioned_blob(version, b)});
  }

  struct Server {
    std::unique_ptr<Node> node;
    std::unique_ptr<gossip::GossipServer> server;
  };

  gossip::ComparatorRegistry comparators_;
  std::vector<Endpoint> well_known_;
  std::array<Server, kServers> servers_;
};

// ---------------------------------------------------------------------------
// Scheduler world: the production SchedulerServer + 2 clients, hedged batches.

class SchedWorld final : public BaseWorld {
 public:
  static constexpr int kClients = 2;
  static constexpr int kOrder = 8;  // pool graph order: small resume images
  static constexpr Duration kTick = 10 * kSecond;

  SchedWorld(std::uint64_t seed, bool dedupe)
      : BaseWorld(seed), dedupe_(dedupe), sched_ep_{"sched", 700},
        progress_(ramsey::ColoredGraph(kOrder).serialize()) {
    {
      EventQueue::LabelScope scope(events_, sched_ep_.host);
      sched_node_ = std::make_unique<Node>(events_, transport_, sched_ep_);
      sched_node_->start();
      core::SchedulerServer::Options o;
      o.pool.n = kOrder;
      o.pool.k = 3;
      o.pool_shards = 2;
      // Timers that act inside settle(): a crashed client is presumed dead
      // and its lease reclaimed long before the freeze, while a live one
      // (reporting every kTick) never overruns the floor. Migration ticks
      // too, but both clients report at the same rate, so it moves nothing
      // (a migration queued after the freeze would never be delivered).
      o.sweep_period = 15 * kSecond;
      o.overdue_floor = 30 * kSecond;
      o.migration_period = 20 * kSecond;
      o.checkpoint_period = 0;
      sched_ = std::make_unique<core::SchedulerServer>(*sched_node_, o);
      sched_->start();
    }
    for (int i = 0; i < kClients; ++i) {
      clients_[static_cast<std::size_t>(i)].self =
          Endpoint{"c" + std::to_string(i), 700};
      start_client(i);
    }
    set_fault_target(clients_[0].self.host,
                     {[this] { kill_client(0); }, [this] { start_client(0); }});
  }

  ~SchedWorld() override {
    for (auto& c : clients_) {
      c.alive = false;
      c.node.reset();
    }
    sched_->stop();
    sched_.reset();
    sched_node_.reset();
  }

  [[nodiscard]] std::string name() const override {
    return dedupe_ ? "sched" : "sched-nodedupe";
  }

  // Registration handshakes complete FIFO; exploration starts just before
  // the first report-batch tick so the hedged duplicates are in the window.
  void warmup() override { events_.run_until(events_.now() + 9 * kSecond); }

  void settle() override {
    // Let the sweep reclaim a crashed client's lease, the frontier reissue
    // it, and follow-up ticks play out, then freeze the clients and drain
    // in-flight calls so check() never sees a reply still on the wire.
    events_.run_for(100 * kSecond);
    frozen_ = true;
    events_.run_for(8 * kSecond);
  }

  std::vector<std::string> check() override {
    const std::vector<std::uint64_t> assigned = sched_->pool().assigned_units();
    obs::InvariantOptions io;
    io.live_units.insert(assigned.begin(), assigned.end());
    std::vector<std::string> v = trace_violations(io);
    // Single delivery: no unit held by two live clients, and the live
    // clients' leases together are exactly what the scheduler has assigned.
    std::map<std::uint64_t, int> holders;
    for (const Client& c : clients_) {
      if (!c.alive) continue;
      for (std::uint64_t u : c.held) ++holders[u];
    }
    for (const auto& [u, n] : holders) {
      if (n > 1) {
        v.push_back("sched: unit " + std::to_string(u) + " held by " +
                    std::to_string(n) + " live clients");
      }
      if (!io.live_units.contains(u)) {
        v.push_back("sched: lease divergence: unit " + std::to_string(u) +
                    " held by a live client, not assigned by the scheduler");
      }
    }
    for (std::uint64_t u : assigned) {
      if (!holders.contains(u)) {
        v.push_back("sched: lease divergence: unit " + std::to_string(u) +
                    " assigned by the scheduler, held by no live client");
      }
    }
    return v;
  }

  [[nodiscard]] std::uint64_t fingerprint() const override {
    std::uint64_t h = kFnvBasis;
    for (std::uint64_t u : sched_->pool().assigned_units()) h = fnv_mix(h, u);
    for (const Client& c : clients_) {
      h = fnv_mix(h, c.self.host + (c.alive ? ":up" : ":down"));
      for (std::uint64_t u : c.held) h = fnv_mix(h, u);
    }
    h = fnv_mix(h, sched_->pool().units_issued());
    return h;
  }

 private:
  struct Client {
    Endpoint self;
    std::unique_ptr<Node> node;
    std::set<std::uint64_t> held;
    std::uint32_t want = 1;  // lease target, raised by every batch
    std::uint64_t seq = 0;
    bool alive = false;
    bool registered = false;
  };

  void start_client(int i) {
    Client& c = clients_[static_cast<std::size_t>(i)];
    EventQueue::LabelScope scope(events_, c.self.host);
    c.node = std::make_unique<Node>(events_, transport_, c.self);
    c.node->start();
    c.alive = true;
    c.seq = 0;
    send_register(c);
    schedule_tick(c);
  }

  void kill_client(int i) {
    Client& c = clients_[static_cast<std::size_t>(i)];
    c.alive = false;  // pending tick closures check this and bail
    if (c.node) c.node->crash();
    c.node.reset();
  }

  /// Join (or rejoin) with an empty lease: the scheduler reclaims whatever
  /// it still records for this client and issues a fresh one.
  void send_register(Client& c) {
    c.registered = false;
    c.held.clear();
    c.want = 1;
    core::ClientHello h;
    h.client = c.self;
    h.host = c.self.host;
    h.want_units = c.want;
    c.node->call(sched_ep_, core::msgtype::kSchedRegister, h.serialize(),
                 CallOptions::fixed(5 * kSecond),
                 [this, &c](Result<Bytes> r) {
                   if (!c.alive) return;
                   if (!r.ok()) {
                     send_register(c);
                     return;
                   }
                   apply_directives(c, *r);
                   c.registered = true;
                 });
  }

  void schedule_tick(Client& c) {
    events_.schedule(kTick, [this, &c] { tick(c); });
  }

  void tick(Client& c) {
    if (!c.alive || frozen_) return;
    schedule_tick(c);
    if (!c.registered) return;
    core::ReportBatch b;
    b.client = c.self;
    // seq 0 opts out of the scheduler's reply cache: the no-dedupe world.
    b.seq = dedupe_ ? ++c.seq : 0;
    // Raising the lease target makes every reply carry a top-up, so a
    // reply that is lost takes live assignments with it.
    b.want_units = ++c.want;
    for (std::uint64_t u : c.held) {
      ramsey::WorkReport rep;
      rep.unit_id = u;
      rep.ops_done = 1000;
      rep.best_energy = u;
      // A resume coloring: a reclaimed unit goes to the idle frontier and
      // is reissued instead of forgotten.
      rep.best_graph = progress_;
      b.reports.push_back(std::move(rep));
    }
    Bytes payload = b.serialize();
    // The hedge: two wire copies of the same batch. The call's reply is
    // honored; the one-way copy models a retry attempt that lost the race —
    // its reply reaches the node with an unknown seq and is dropped. The
    // call is sent first, so the FIFO baseline applies the honored copy
    // first (benign); only when the Explorer delivers the duplicate first
    // does the top-up ride on the reply nobody applies — unless the reply
    // cache replays it to the call.
    c.node->call(sched_ep_, core::msgtype::kSchedReportBatch, payload,
                 CallOptions::fixed(5 * kSecond),
                 [this, &c](Result<Bytes> r) {
                   if (!c.alive) return;
                   if (!r.ok()) {
                     send_register(c);  // lease lost: rejoin from scratch
                     return;
                   }
                   apply_directives(c, *r);
                 });
    c.node->send_oneway(sched_ep_, core::msgtype::kSchedReportBatch,
                        std::move(payload));
  }

  void apply_directives(Client& c, const Bytes& payload) {
    auto d = core::DirectiveBatch::deserialize(payload);
    if (!d.ok()) return;
    for (std::uint64_t u : d->revoke) c.held.erase(u);
    for (const auto& spec : d->assign) c.held.insert(spec.unit_id);
  }

  bool dedupe_;
  Endpoint sched_ep_;
  Bytes progress_;
  std::unique_ptr<Node> sched_node_;
  std::unique_ptr<core::SchedulerServer> sched_;
  std::array<Client, kClients> clients_;
  bool frozen_ = false;
};

}  // namespace

std::unique_ptr<World> make_clique_world(std::uint64_t seed) {
  return std::make_unique<CliqueWorld>(seed);
}

std::unique_ptr<World> make_gossip_world(std::uint64_t seed) {
  return std::make_unique<GossipWorld>(seed);
}

std::unique_ptr<World> make_sched_world(std::uint64_t seed, bool dedupe) {
  return std::make_unique<SchedWorld>(seed, dedupe);
}

}  // namespace ew::sim::mc
