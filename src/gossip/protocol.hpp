// Wire protocol for the distributed state exchange service (paper §2.3).
//
// Message-type constants and payload codecs shared by Gossip servers, the
// clique protocol, and application components. Gossip/clique types live in
// the 0x01xx block; application services (scheduler, persistent state,
// logging) use 0x02xx (core/protocol.hpp).
//
// Anti-entropy is versioned-digest/delta, not full-state: a kDigest carries
// one (version, checksum) summary per state type plus a rollup of the
// registration set, and the reply is a Delta holding only the blobs the
// digest sender is provably stale on (plus a want-list for the opposite
// direction, answered with a kDelta push). The paper's prototype shipped
// everything every round and admitted the O(N^2) cost; the versioned scheme
// keeps steady-state exchanges at summary size so the gossip tier scales to
// the 100k-component target (see DESIGN.md §12).
#pragma once

#include <vector>

#include "common/result.hpp"
#include "common/serialize.hpp"
#include "common/wire.hpp"
#include "net/endpoint.hpp"
#include "net/packet.hpp"

namespace ew::gossip {

namespace msgtype {
// Component <-> Gossip.
constexpr MsgType kRegister = 0x0101;       // component registers for sync
constexpr MsgType kGetState = 0x0102;       // single-type state query
constexpr MsgType kStateUpdate = 0x0103;    // fresher state pushed to a holder
constexpr MsgType kGetStateBatch = 0x0107;  // batched poll: all types at once
// Gossip <-> Gossip.
constexpr MsgType kDigest = 0x0104;      // versioned-summary anti-entropy
constexpr MsgType kRegForward = 0x0105;  // registration broadcast / routing
constexpr MsgType kDelta = 0x0106;       // push of blobs the peer is stale on
// Clique protocol. The parent (leader) tier runs the same protocol at
// kToken + kParentTierOffset so both tiers can share one Node.
constexpr MsgType kToken = 0x0110;
constexpr MsgType kJoin = 0x0111;
constexpr MsgType kProbe = 0x0112;
constexpr MsgType kMerge = 0x0113;
constexpr MsgType kParentTierOffset = 0x0008;
// Parent tier: leaders anti-entropy their child-clique rollups.
constexpr MsgType kParentDigest = 0x0120;
}  // namespace msgtype

/// Wire format of every gossip message (common/wire.hpp): no envelope, and
/// at most 100,000 elements in any list.
inline constexpr wire::Format kGossipWire{.max_list = 100'000};

/// A component's registration: its contact address and the state message
/// types it wants synchronized (paper: "register a contact address, a unique
/// message type, and a comparator").
struct Registration {
  Endpoint component;
  std::vector<MsgType> types;

  static constexpr wire::Format kWire = kGossipWire;
  template <class Ar>
  void fields(Ar& ar) {
    ar(component, types);
  }
  [[nodiscard]] Status validate() const {
    return wire::check(types.size() <= 4096, "registration type list too long");
  }
  [[nodiscard]] Bytes serialize() const { return wire::encode(*this); }
  static Result<Registration> deserialize(const Bytes& data) {
    return wire::decode<Registration>(data);
  }
};

/// One synchronized state object: its type and opaque content.
struct StateBlob {
  MsgType type = 0;
  Bytes content;

  template <class Ar>
  void fields(Ar& ar) {
    ar(type, content);
  }
};

/// Per-type digest line: the stored copy's version stamp (leading u64 by the
/// toolkit convention; 0 when the content has none) and an FNV-1a checksum
/// of the full content. Freshness is decided from the version, checksum ties
/// are broken deterministically, and the registered comparator always has
/// the final word at merge time.
struct TypeSummary {
  MsgType type = 0;
  std::uint64_t version = 0;
  std::uint64_t checksum = 0;

  template <class Ar>
  void fields(Ar& ar) {
    ar(type, version, checksum);
  }
};

/// Anti-entropy digest: one summary line per state type this gossip's shard
/// holds, plus an order-independent rollup of its registration set. Bytes
/// are O(types in the shard), never O(total state content).
struct Digest {
  std::uint32_t clique = 0;  // sender's child-clique id
  std::vector<TypeSummary> summaries;
  std::uint64_t reg_count = 0;
  std::uint64_t reg_checksum = 0;

  static constexpr wire::Format kWire = kGossipWire;
  template <class Ar>
  void fields(Ar& ar) {
    ar(clique, summaries, reg_count, reg_checksum);
  }
  [[nodiscard]] Bytes serialize() const { return wire::encode(*this); }
  static Result<Digest> deserialize(const Bytes& data) { return wire::decode<Digest>(data); }
};

/// Digest reply / standalone push: the blobs the receiver is provably stale
/// on, the types the sender wants back (it was the stale one), and — only on
/// a registration-rollup mismatch — the full registration set.
struct Delta {
  std::uint32_t clique = 0;
  std::vector<StateBlob> blobs;
  std::vector<MsgType> want;
  std::vector<Registration> registrations;

  static constexpr wire::Format kWire = kGossipWire;
  template <class Ar>
  void fields(Ar& ar) {
    ar(clique, blobs, want, registrations);
  }
  [[nodiscard]] Bytes serialize() const { return wire::encode(*this); }
  static Result<Delta> deserialize(const Bytes& data) { return wire::decode<Delta>(data); }
};

/// One child clique's rollup, anti-entropied leader-to-leader on the parent
/// tier. `version` is bumped by the owning leader whenever the rollup
/// changes, so parent exchanges converge by the same versioned rules as
/// state blobs.
struct CliqueSummary {
  std::uint32_t clique = 0;
  std::uint64_t version = 0;
  std::uint64_t checksum = 0;
  std::uint64_t states = 0;
  std::uint64_t components = 0;

  template <class Ar>
  void fields(Ar& ar) {
    ar(clique, version, checksum, states, components);
  }
};

/// Parent-tier exchange payload: every rollup the sending leader knows.
/// Bounded by the clique count, not by components or state types.
struct ParentDigest {
  std::vector<CliqueSummary> cliques;

  static constexpr wire::Format kWire = kGossipWire;
  template <class Ar>
  void fields(Ar& ar) {
    ar(cliques);
  }
  [[nodiscard]] Bytes serialize() const { return wire::encode(*this); }
  static Result<ParentDigest> deserialize(const Bytes& data) {
    return wire::decode<ParentDigest>(data);
  }
};

/// Raw list codecs (handy in tests and tools).
inline Bytes serialize_type_list(const std::vector<MsgType>& types) {
  return wire::encode(types);
}
inline Result<std::vector<MsgType>> deserialize_type_list(const Bytes& data) {
  return wire::decode<std::vector<MsgType>>(data, kGossipWire);
}
inline Bytes serialize_blob_list(const std::vector<StateBlob>& blobs) {
  return wire::encode(blobs);
}
inline Result<std::vector<StateBlob>> deserialize_blob_list(const Bytes& data) {
  return wire::decode<std::vector<StateBlob>>(data, kGossipWire);
}

/// kGetStateBatch request: one summary line per polled type carrying the
/// polling gossip's own stored copy's (version, checksum) — zeros when it
/// holds nothing yet. The component compares against its current state and
/// ships content only for types that differ, so steady-state polls cost
/// summary bytes, not state bytes (the component-side digest cache).
struct PollRequest {
  std::vector<TypeSummary> held;

  static constexpr wire::Format kWire = kGossipWire;
  template <class Ar>
  void fields(Ar& ar) {
    ar(held);
  }
  [[nodiscard]] Bytes serialize() const { return wire::encode(*this); }
  static Result<PollRequest> deserialize(const Bytes& data) {
    return wire::decode<PollRequest>(data);
  }
};

/// kGetStateBatch reply. `fresh` is set exactly when every requested type
/// the component exposes already matched the gossip's summary (a cache hit,
/// counted in `gossip.poll.cache_hits`); `blobs` carries only the types
/// whose content differed.
struct PollReply {
  bool fresh = false;
  std::vector<StateBlob> blobs;

  static constexpr wire::Format kWire = kGossipWire;
  template <class Ar>
  void fields(Ar& ar) {
    ar(wire::as<std::uint8_t>(fresh), blobs);  // any nonzero byte reads as fresh
  }
  [[nodiscard]] Bytes serialize() const { return wire::encode(*this); }
  static Result<PollReply> deserialize(const Bytes& data) {
    return wire::decode<PollReply>(data);
  }
};

/// A clique view: generation, leader, sorted member list.
struct View {
  std::uint64_t generation = 0;
  Endpoint leader;
  std::vector<Endpoint> members;  // kept sorted, includes the leader

  [[nodiscard]] bool contains(const Endpoint& e) const;
  /// Total order for adoption: higher generation wins; ties break toward
  /// the lexicographically smaller leader (deterministic convergence).
  [[nodiscard]] bool newer_than(const View& other) const;

  static constexpr wire::Format kWire = kGossipWire;
  template <class Ar>
  void fields(Ar& ar) {
    ar(generation, leader, members);
  }
  /// Decode hook: restores the sorted-members invariant.
  Status validate();
  [[nodiscard]] Bytes serialize() const { return wire::encode(*this); }
  static Result<View> deserialize(const Bytes& data) { return wire::decode<View>(data); }
};

/// The circulating token: the view it asserts, who has seen it this round,
/// and who could not be reached while forwarding it.
struct Token {
  std::uint64_t round = 0;
  View view;
  std::vector<Endpoint> visited;
  std::vector<Endpoint> suspects;

  static constexpr wire::Format kWire = kGossipWire;
  template <class Ar>
  void fields(Ar& ar) {
    ar(round, view, visited, suspects);
  }
  [[nodiscard]] Bytes serialize() const { return wire::encode(*this); }
  static Result<Token> deserialize(const Bytes& data) { return wire::decode<Token>(data); }
};

}  // namespace ew::gossip
