// Global environment variables for the WISH shell, backed by the gossip
// StateStore as ONE blob type (statetype::kWishEnv).
//
// Every WISH daemon holds an EnvStore replica. The blob follows the toolkit's
// leading-u64 version convention (a "mint" counter), so StateStore::merge and
// the digest/delta anti-entropy move it with the stock MergeOutcome
// semantics. Inside the blob, each key carries its own (version, writer)
// stamp and replicas merge per key — higher version wins, writer id breaks
// ties — which makes the blob a state-based LWW map: whichever replica's
// snapshot wins at a gossip, every other replica folds it in on apply and
// re-publishes the union, so all replicas converge.
//
// Crash-restart incarnation (the StateStore ghost hazard, pinned by
// tests/test_gossip_state.cpp CrashRestartGhostShadowsLowVersionRepublish):
// the store keeps the higher-version copy and actively pushes it back at a
// kStale publisher, so a restarted daemon whose counters reset to zero would
// be silently shadowed by its own pre-crash blob forever. EnvStore therefore
// RE-MINTS ABOVE THE FLOOR at both levels:
//   * blob level — apply() floors the mint counter above any incoming blob's
//     version, and set() mints above everything seen, so a fresh write is
//     never published under a version the grid has already passed;
//   * key level — an incoming entry stamped with OUR writer id at a version
//     above a key we wrote THIS incarnation is our own pre-crash ghost: the
//     current value is kept and re-stamped above the ghost, so the new write
//     dominates instead of silently losing to a dead incarnation.
// Writes are applied locally first, so the spawning daemon always reads its
// own writes regardless of gossip progress.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "common/result.hpp"
#include "common/serialize.hpp"
#include "common/wire.hpp"

namespace ew::wish {

class EnvStore {
 public:
  struct Entry {
    std::string value;
    std::uint64_t version = 0;  // per-key stamp (Lamport-ish)
    std::uint64_t writer = 0;   // stable id of the writing daemon
    bool own = false;           // written by THIS incarnation of this store

    /// Wire layout of an entry in the blob body; `own` is local knowledge.
    template <class Ar>
    void fields(Ar& ar) {
      ar(value, version, writer);
    }
  };

  /// `writer_id` must be stable across restarts of the same daemon (the
  /// scenario uses a hash of the host name) — that is what lets apply()
  /// recognize a pre-crash ghost as its own.
  explicit EnvStore(std::uint64_t writer_id) : writer_(writer_id) {}

  /// Local write: visible to get() immediately (read-your-writes), stamped
  /// above every version this replica has seen for the key.
  /// Returns the entry's new per-key version.
  std::uint64_t set(const std::string& key, const std::string& value);

  [[nodiscard]] std::optional<std::string> get(const std::string& key) const;
  [[nodiscard]] std::optional<Entry> entry(const std::string& key) const;
  [[nodiscard]] std::size_t size() const { return map_.size(); }

  /// The gossip provider: versioned blob (leading u64 mint + body).
  [[nodiscard]] Bytes snapshot() const;

  /// The gossip applier (state-update method): merge an incoming blob.
  /// Malformed blobs are rejected whole (no partial merges).
  Status apply(const Bytes& blob);

  [[nodiscard]] std::uint64_t mint_version() const { return mint_; }
  [[nodiscard]] std::uint64_t writer_id() const { return writer_; }
  [[nodiscard]] std::uint64_t sets() const { return sets_; }
  [[nodiscard]] std::uint64_t merges_applied() const { return merges_; }
  [[nodiscard]] std::uint64_t ghost_remints() const { return ghost_remints_; }

  /// Order-independent digest over (key, value, version, writer) — equal on
  /// two replicas iff their visible contents are identical (the bench's
  /// divergence check).
  [[nodiscard]] std::uint64_t content_digest() const;

 private:
  /// Canonical blob body: the (key, entry) list in key order.
  [[nodiscard]] Bytes body() const { return wire::encode(map_); }

  std::uint64_t writer_;
  std::uint64_t mint_ = 0;
  std::map<std::string, Entry> map_;  // ordered: canonical serialization
  std::uint64_t sets_ = 0;
  std::uint64_t merges_ = 0;
  std::uint64_t ghost_remints_ = 0;
};

}  // namespace ew::wish
