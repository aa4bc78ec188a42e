// The Gossip server: EveryWare's distributed state exchange (paper §2.3).
//
// Each Gossip keeps the freshest copy it has seen of every synchronized
// state object in its shard, polls the application components it is
// responsible for (one batched kGetStateBatch per component, hedged through
// the call layer), and anti-entropies with its clique peers by versioned
// digest: a kDigest carries one (version, checksum) line per type, the reply
// is a Delta holding only the blobs the sender is provably stale on plus a
// want-list answered with a kDelta push. Steady-state exchanges are summary
// sized — O(types in the shard), never O(total state content).
//
// With Options::num_cliques > 1 the pool splits into child cliques, each
// state type homed in exactly one (src/gossip/hierarchy.hpp), and the child
// leaders run a parent-tier CliqueMember (same protocol, offset message
// types) that anti-entropies per-clique rollup summaries. Partition and
// merge inside a child clique reuse the existing View/Token machinery
// untouched; responsibility rebalances on every view change.
#pragma once

#include <map>
#include <memory>

#include "common/hash.hpp"
#include "gossip/clique.hpp"
#include "gossip/hierarchy.hpp"
#include "gossip/state.hpp"
#include "net/node.hpp"

namespace ew::gossip {

class GossipServer {
 public:
  struct Options {
    Duration poll_period = 10 * kSecond;       // component polling cadence
    Duration peer_sync_period = 20 * kSecond;  // clique anti-entropy cadence
    Duration lease = 5 * kMinute;              // registration lifetime
    int drop_after_misses = 5;                 // consecutive poll failures
    // Hierarchy: number of child cliques the well-known pool splits into.
    // 1 = flat (single clique, no parent tier), preserving single-shard
    // behavior bit-for-bit for the chaos replay tests.
    std::uint32_t num_cliques = 1;
    Duration parent_sync_period = 20 * kSecond;  // leader rollup exchange
    CliqueMember::Options clique;
  };

  GossipServer(Node& node, const ComparatorRegistry& comparators,
               std::vector<Endpoint> well_known_gossips, Options opts);
  GossipServer(Node& node, const ComparatorRegistry& comparators,
               std::vector<Endpoint> well_known_gossips)
      : GossipServer(node, comparators, std::move(well_known_gossips), Options{}) {}

  void start();
  void stop();

  [[nodiscard]] const StateStore& store() const { return store_; }
  [[nodiscard]] StateStore& store() { return store_; }
  [[nodiscard]] CliqueMember& clique() { return clique_; }
  [[nodiscard]] const CliqueMember& clique() const { return clique_; }

  /// Hierarchy introspection.
  [[nodiscard]] std::uint32_t clique_id() const { return clique_id_; }
  [[nodiscard]] std::uint32_t num_cliques() const { return opts_.num_cliques; }
  /// True if this server's child clique is the home of `type`.
  [[nodiscard]] bool owns_type(MsgType type) const {
    return home_clique(type, opts_.num_cliques) == clique_id_;
  }
  /// The parent-tier member (null when num_cliques == 1).
  [[nodiscard]] CliqueMember* parent() { return parent_.get(); }
  /// Every child-clique rollup this server has heard of, keyed by clique id.
  [[nodiscard]] const std::map<std::uint32_t, CliqueSummary>& rollups() const {
    return rollups_;
  }

  [[nodiscard]] std::size_t registered_components() const { return registry_.size(); }
  /// True if `component` currently holds a (possibly sliced) registration here.
  [[nodiscard]] bool has_registration(const Endpoint& component) const {
    return registry_.count(component) != 0;
  }
  /// True if this gossip (given the current clique view) polls `component`.
  [[nodiscard]] bool responsible_for(const Endpoint& component) const;

  /// Diagnostics for tests and the dependability bench.
  [[nodiscard]] std::uint64_t polls_sent() const { return polls_sent_; }
  [[nodiscard]] std::uint64_t updates_pushed() const { return updates_pushed_; }
  [[nodiscard]] std::uint64_t states_absorbed() const { return states_absorbed_; }
  [[nodiscard]] std::uint64_t merges(MergeOutcome o) const {
    return merge_counts_[static_cast<std::size_t>(o)];
  }
  [[nodiscard]] std::uint64_t delta_blobs_sent() const { return delta_blobs_sent_; }
  /// Largest digest payload (bytes) this server has sent or received —
  /// the bench's boundedness gate reads this.
  [[nodiscard]] std::uint64_t digest_bytes_max() const { return digest_bytes_max_; }
  /// Sync rounds the last convergence took (0 until one completes).
  [[nodiscard]] std::uint64_t last_convergence_rounds() const {
    return last_convergence_rounds_;
  }
  /// XOR over the registrations held here of fnv1a64(serialize()): the
  /// registry half of every digest. Order-independent, and any admitted,
  /// dropped, or re-typed registration flips it.
  [[nodiscard]] std::uint64_t reg_rollup_checksum() const;

 private:
  struct Entry {
    Registration reg;
    std::uint64_t reg_hash = 0;  // fnv1a64(reg.serialize()), set with reg
    TimePoint lease_expiry = 0;
    int misses = 0;
  };

  void on_register(const IncomingMessage& msg, const Responder& resp);
  void on_reg_forward(const IncomingMessage& msg, const Responder& resp);
  void on_digest(const IncomingMessage& msg, const Responder& resp);
  void on_delta(const IncomingMessage& msg, const Responder& resp);
  void on_parent_digest(const IncomingMessage& msg, const Responder& resp);
  void poll_tick();
  void peer_sync_tick();
  void parent_sync_tick();
  void poll_component(const Endpoint& component, const std::vector<MsgType>& types);
  MergeOutcome absorb(const StateBlob& blob);
  /// Admit the slice of `reg` homed in this clique; false if none is.
  bool admit(const Registration& reg);
  void mark_dirty();
  void note_clean_exchange();
  void record_digest_bytes(std::size_t bytes);
  void push_delta(const Endpoint& peer, const std::vector<MsgType>& want,
                  bool include_regs);
  void update_parent_membership();
  void refresh_my_rollup();
  void merge_rollups(const ParentDigest& d);
  [[nodiscard]] Digest make_digest() const;
  [[nodiscard]] std::string clique_label() const;

  Node& node_;
  std::vector<Endpoint> well_known_;  // the full gossip pool
  Options opts_;
  std::uint32_t clique_id_ = 0;
  std::vector<Endpoint> clique_pool_;  // my child clique's slice of the pool
  CliqueMember clique_;
  std::unique_ptr<CliqueMember> parent_;  // leaders-only tier (hierarchical)
  StateStore store_;
  // std::map (not unordered_map): iteration order feeds the sim event
  // sequence and the registration exchange, both of which must replay
  // bit-identically.
  std::map<Endpoint, Entry> registry_;
  std::map<std::uint32_t, CliqueSummary> rollups_;
  bool running_ = false;
  bool parent_running_ = false;
  bool dirty_ = true;  // converged only once an exchange proves it
  std::uint64_t sync_rounds_dirty_ = 0;
  std::uint64_t last_convergence_rounds_ = 0;
  std::size_t peer_index_ = 0;
  std::size_t parent_peer_index_ = 0;
  std::uint64_t polls_sent_ = 0;
  std::uint64_t updates_pushed_ = 0;
  std::uint64_t states_absorbed_ = 0;
  std::uint64_t merge_counts_[5] = {0, 0, 0, 0, 0};
  std::uint64_t delta_blobs_sent_ = 0;
  std::uint64_t digest_bytes_max_ = 0;
  TimerId poll_timer_ = kInvalidTimer;
  TimerId sync_timer_ = kInvalidTimer;
  TimerId parent_timer_ = kInvalidTimer;
};

}  // namespace ew::gossip
