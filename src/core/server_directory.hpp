// The active-server directory (paper Section 3.1.2).
//
// "Volatile-but-replicated state is passed between processes as a result of
// Gossip updates ... For example, the up-to-date list of active servers is
// volatile-but-replicated state."  And Section 5.4: "Scheduler birth and
// death information was circulated via the Gossip protocol so application
// clients could learn of the currently viable schedulers."
//
// ServerDirectoryModule is a ServiceFramework control module: each server
// running it announces itself with a monotonically refreshed heartbeat; the
// merged directory travels between servers as one gossip-synchronized state
// object (statetype::kServerList) with a custom freshness comparator
// (entry-wise newest-heartbeat union). Entries whose heartbeat goes stale
// are dropped — a dead scheduler disappears from every replica within a few
// gossip rounds. Clients can ask any participating server for the current
// list (kDirectoryQuery).
#pragma once

#include <map>

#include "core/protocol.hpp"
#include "core/service_framework.hpp"

namespace ew::core {

namespace msgtype {
constexpr MsgType kDirectoryQuery = 0x0260;
}

/// One directory entry: a server and the (logical) time it last proved life.
struct ServerEntry {
  Endpoint server;
  std::uint64_t heartbeat = 0;  // announcer's monotonic counter

  friend bool operator==(const ServerEntry&, const ServerEntry&) = default;
};

/// The replicated directory value and its wire format.
class ServerList {
 public:
  /// Merge an entry, keeping the newest heartbeat per server. Returns true
  /// if anything changed.
  bool merge(const ServerEntry& e);
  bool merge(const ServerList& other);
  /// Drop entries whose heartbeat lags the newest by more than `max_lag`.
  void prune(std::uint64_t max_lag);

  [[nodiscard]] std::vector<ServerEntry> entries() const;
  [[nodiscard]] bool contains(const Endpoint& e) const { return map_.contains(e); }
  [[nodiscard]] std::size_t size() const { return map_.size(); }

  /// Wire layout: the entries as a gossip-family list (at most 100,000) of
  /// (server, heartbeat); a repeated server keeps its last heartbeat.
  static constexpr wire::Format kWire = gossip::kGossipWire;
  template <class Ar>
  void fields(Ar& ar) {
    ar(map_);
  }
  [[nodiscard]] Bytes serialize() const { return wire::encode(*this); }
  static Result<ServerList> deserialize(const Bytes& data) {
    return wire::decode<ServerList>(data);
  }

  /// Freshness comparator for statetype::kServerList: a list is fresher if
  /// it knows a newer heartbeat for any server or any server the other
  /// lacks. (Partial order flattened to the paper's compare-two-blobs
  /// interface: mutual novelty compares by total heartbeat sum so exchanges
  /// still converge via merge-on-apply.)
  static int compare(const Bytes& a, const Bytes& b);

  /// Union merger for statetype::kServerList: entry-wise newest-heartbeat
  /// union of both encodings. Registered so every holder re-unions instead
  /// of replacing wholesale (gossip::MergeFn).
  static Bytes merge_blobs(const Bytes& a, const Bytes& b);

 private:
  std::map<Endpoint, std::uint64_t> map_;
};

class ServerDirectoryModule final : public ServiceModule {
 public:
  struct Options {
    Duration heartbeat_period = 20 * kSecond;
    /// Entries older than this many of *our* heartbeats are considered dead.
    std::uint64_t stale_after = 6;
  };

  ServerDirectoryModule() : ServerDirectoryModule(Options{}) {}
  explicit ServerDirectoryModule(Options opts) : opts_(opts) {}

  [[nodiscard]] const char* name() const override { return "server-directory"; }
  void attach(ServiceContext& ctx) override;

  [[nodiscard]] const ServerList& directory() const { return list_; }
  [[nodiscard]] std::uint64_t heartbeats_sent() const { return beat_; }

  /// Register the directory comparator (call once per ComparatorRegistry).
  static void register_comparator(gossip::ComparatorRegistry& registry);

 private:
  Bytes state() const;
  void apply(const Bytes& blob);

  Options opts_;
  ServerList list_;
  Endpoint self_;
  std::uint64_t beat_ = 0;
};

}  // namespace ew::core
