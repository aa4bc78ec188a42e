// State records and freshness comparison (paper Section 2.3).
//
// Each synchronized state object is identified by its message type. A
// freshness comparator decides, for two encodings of the same type, which is
// fresher. In the paper a component registers its comparator function with
// the Gossip at run time; functions cannot travel over a C++ wire, so
// comparators are registered by message type in a ComparatorRegistry that
// both gossips and components link against. Types with no registered
// comparator fall back to comparing a leading u64 version stamp — the
// convention all toolkit state types follow anyway.
//
// The store tracks a (version, checksum) pair per type natively, so a
// versioned digest — one TypeSummary per type, never the content — is a
// plain read, and the anti-entropy planner can compute exactly which blobs a
// peer is provably stale on. The version is the content's leading u64 stamp
// (0 when absent); types whose custom comparator contradicts the version
// prefix still converge through the checksum want-lists, at the cost of
// re-exchanging the disputed blob each round (documented in DESIGN.md §12).
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <unordered_map>

#include "common/serialize.hpp"
#include "gossip/protocol.hpp"

namespace ew::gossip {

/// Returns <0 if a is staler than b, 0 if equally fresh, >0 if a is fresher.
using FreshnessFn = std::function<int(const Bytes& a, const Bytes& b)>;

/// Commutative, idempotent union of two encodings of the same type:
/// merge(a, b) holds everything either side knew. Registered for state types
/// whose replicas each contribute disjoint facts (a server directory, a
/// membership list) rather than racing to publish one winner. When a merger
/// is registered, every holder — the StateStore included, not just the
/// component applier — re-unions instead of picking a whole-blob winner, so
/// a fresh fact can never be destroyed by an LWW replacement.
using MergeFn = std::function<Bytes(const Bytes& a, const Bytes& b)>;

/// Compare by leading u64 version stamp; unparseable content is stalest.
int compare_by_version_prefix(const Bytes& a, const Bytes& b);

/// The checksum the store tracks per type: 64-bit FNV-1a over the full
/// content. Components reuse it to answer digest-carrying polls (PollRequest)
/// without the store.
std::uint64_t content_checksum(const Bytes& content);

/// Convenience for state types that use the version-prefix convention.
Bytes versioned_blob(std::uint64_t version, const Bytes& body);
Result<std::uint64_t> blob_version(const Bytes& blob);
Result<Bytes> blob_body(const Bytes& blob);

class ComparatorRegistry {
 public:
  void register_comparator(MsgType type, FreshnessFn fn);
  /// The comparator for `type` (version-prefix fallback when unregistered).
  [[nodiscard]] const FreshnessFn& comparator(MsgType type) const;

  /// Mark `type` as union-mergeable. Holders consult merger() and re-union
  /// on conflict instead of replacing the stored copy wholesale.
  void register_merger(MsgType type, MergeFn fn);
  /// The merger for `type`, or nullptr when the type is plain LWW.
  [[nodiscard]] const MergeFn* merger(MsgType type) const;

 private:
  std::unordered_map<MsgType, FreshnessFn> map_;
  std::unordered_map<MsgType, MergeFn> mergers_;
  FreshnessFn fallback_ = compare_by_version_prefix;
};

/// What StateStore::merge decided about an incoming blob. kNew and kFresher
/// replaced the stored copy; kEqual and kStale left it alone; kMerged (only
/// possible for union-mergeable types) combined both copies — the store
/// changed AND the sender is missing facts, so it behaves as "accepted" for
/// dirtiness and as "stale sender" for the push-back path. Gossip servers
/// count each outcome distinctly, and a kStale or kMerged poll result is
/// the trigger for pushing a fresh copy back at the component.
enum class MergeOutcome : std::uint8_t { kNew, kFresher, kEqual, kStale, kMerged };

[[nodiscard]] inline bool merge_accepted(MergeOutcome o) {
  return o == MergeOutcome::kNew || o == MergeOutcome::kFresher ||
         o == MergeOutcome::kMerged;
}
/// True when the sender of the merged blob is provably missing facts the
/// store now holds — the condition for pushing the stored copy back.
[[nodiscard]] inline bool merge_sender_stale(MergeOutcome o) {
  return o == MergeOutcome::kStale || o == MergeOutcome::kMerged;
}

/// The freshest-known-copy store kept by each Gossip, with native per-type
/// (version, checksum) tracking for the versioned-digest exchange.
class StateStore {
 public:
  explicit StateStore(const ComparatorRegistry& comparators)
      : comparators_(comparators) {}

  /// Merge `incoming` under the type's comparator. On a comparator tie with
  /// different content, the larger checksum wins deterministically, so every
  /// replica of a disputed type converges on one copy.
  MergeOutcome merge(const StateBlob& incoming);

  [[nodiscard]] std::optional<StateBlob> get(MsgType type) const;
  [[nodiscard]] std::vector<StateBlob> all() const;
  [[nodiscard]] std::size_t size() const { return map_.size(); }
  [[nodiscard]] bool contains(MsgType type) const { return map_.contains(type); }
  [[nodiscard]] std::uint64_t version_of(MsgType type) const;

  /// One summary line per stored type, sorted by type (deterministic wire
  /// encoding for replayable sims).
  [[nodiscard]] std::vector<TypeSummary> summary() const;

  /// The summary line for one type; (type, 0, 0) when nothing is stored —
  /// exactly the shape a digest-carrying poll (PollRequest) wants.
  [[nodiscard]] TypeSummary summary_of(MsgType type) const;

  /// Blobs a peer holding `peer` summaries is provably stale on: types the
  /// peer lacks, types where our version is ahead, and comparator-tie
  /// disputes where our checksum wins.
  [[nodiscard]] std::vector<StateBlob> blobs_fresher_than(
      const std::vector<TypeSummary>& peer) const;

  /// Types in `peer` that are fresher than (or absent from) our store — the
  /// want-list a digest receiver sends back.
  [[nodiscard]] std::vector<MsgType> types_stale_against(
      const std::vector<TypeSummary>& peer) const;

  /// Monotone counter bumped on every accepted merge; the parent tier uses
  /// it to version its clique rollups.
  [[nodiscard]] std::uint64_t store_version() const { return store_version_; }
  /// Order-independent rollup over every (type, version, checksum) line.
  [[nodiscard]] std::uint64_t rollup_checksum() const;

 private:
  struct Entry {
    Bytes content;
    std::uint64_t version = 0;
    std::uint64_t checksum = 0;
  };

  const ComparatorRegistry& comparators_;
  std::map<MsgType, Entry> map_;  // ordered: digests serialize deterministically
  std::uint64_t store_version_ = 0;
};

}  // namespace ew::gossip
