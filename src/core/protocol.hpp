// Application-service wire protocol (paper Figure 1).
//
// Message types and codecs for the run-time management services the Ramsey
// application is built from: scheduling servers ("S"), persistent state
// managers ("P"), logging servers ("L"), plus the simulated-infrastructure
// control services (GRAM/GASS/MDS, NetSolve agent, Legion translator).
// Gossip/clique types live in gossip/protocol.hpp (0x01xx block).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "common/wire.hpp"
#include "gossip/protocol.hpp"
#include "net/packet.hpp"
#include "ramsey/workunit.hpp"

namespace ew::core {

namespace msgtype {
// Scheduler. All four request payloads open with the shared versioned
// envelope (u8 version, u16 kind); every reply is a DirectiveBatch.
constexpr MsgType kSchedRegister = 0x0201;  // client hello -> directive batch
// RETIRED: 0x0202 was the per-unit kSchedReport shim (batch-of-1 routing).
// The constant is kept so the id is never reassigned; the scheduler no
// longer registers a handler, so frames sent at it are rejected as
// unhandled. Clients send kSchedReportBatch.
constexpr MsgType kSchedReport = 0x0202;
constexpr MsgType kSchedReportBatch = 0x0203;     // many reports -> directives
constexpr MsgType kSchedDirectiveBatch = 0x0204;  // reply envelope kind
// Persistent state manager.
constexpr MsgType kStateStore = 0x0210;
constexpr MsgType kStateFetch = 0x0211;
// Logging service (one-way).
constexpr MsgType kLogRecord = 0x0220;
// RETIRED: 0x0221 was kMetricsSnapshot, a push-only obs registry snapshot
// that nothing sent. The constant is kept so the id is never reassigned; no
// handler is registered for it.
constexpr MsgType kMetricsSnapshot = 0x0221;
// Simulated Globus services (Section 5.2).
constexpr MsgType kGramSubmit = 0x0230;
constexpr MsgType kGramAuth = 0x0231;
constexpr MsgType kGassFetch = 0x0232;
constexpr MsgType kMdsQuery = 0x0233;
// Simulated NetSolve (Section 5.7).
constexpr MsgType kNetSolveRegister = 0x0240;
constexpr MsgType kNetSolveRequest = 0x0241;
// Legion translator envelope (Section 5.3).
constexpr MsgType kTranslate = 0x0250;
}  // namespace msgtype

// Gossip-synchronized state object types (Section 3.1.2's state classes).
namespace statetype {
// Persistent: the best (lowest-energy) coloring found so far.
constexpr MsgType kBestGraph = 0x0301;
// Volatile-but-replicated: "the up-to-date list of active servers".
constexpr MsgType kServerList = 0x0302;
}  // namespace statetype

/// Infrastructure labels (paper Figures 3-4 series).
enum class Infra : std::uint8_t {
  kUnix = 0,
  kGlobus = 1,
  kLegion = 2,
  kCondor = 3,
  kNT = 4,
  kJava = 5,
  kNetSolve = 6,
};
constexpr int kInfraCount = 7;
constexpr int enum_count(Infra) { return kInfraCount; }
const char* infra_name(Infra i);

/// Wire version of the scheduler message family. v2 added the versioned
/// envelope itself, batched reports/directives, and multi-unit leases; v1
/// (headerless per-unit encoding) is no longer decoded.
constexpr std::uint8_t kSchedWireVersion = 2;

/// Ceiling on any list carried by a scheduler batch message. Combined with
/// the per-element minimum-size check this bounds decoder allocation long
/// before the 16 MiB frame cap would.
constexpr std::uint32_t kMaxSchedBatch = 65'536;

/// Wire format of every scheduler payload (common/wire.hpp): the versioned
/// envelope — u8 version (1 .. kSchedWireVersion accepted) + u16 message kind,
/// which must match the MsgType the payload travels under, so a frame
/// replayed at the wrong type fails decode instead of being misinterpreted —
/// and lists of at most kMaxSchedBatch elements.
constexpr wire::Format sched_wire(MsgType kind) {
  return {kSchedWireVersion, kind, kMaxSchedBatch};
}

/// A lease size a client may ask for.
inline Status check_lease(std::uint32_t want_units) {
  return wire::check(want_units >= 1 && want_units <= kMaxSchedBatch, "bad lease size");
}

/// Client identification sent with kSchedRegister.
struct ClientHello {
  Endpoint client;
  Infra infra = Infra::kUnix;
  std::string host;
  std::uint32_t want_units = 1;  // lease size the client asks to hold

  static constexpr wire::Format kWire = sched_wire(msgtype::kSchedRegister);
  template <class Ar>
  void fields(Ar& ar) {
    ar(client, infra, host, want_units);
  }
  [[nodiscard]] Status validate() const { return check_lease(want_units); }
  [[nodiscard]] Bytes serialize() const { return wire::encode(*this); }
  static Result<ClientHello> deserialize(const Bytes& data) {
    return wire::decode<ClientHello>(data);
  }
};

/// Batched progress reports: one hedged call carries every unit the client
/// touched this quantum. Carries the reporting client's own contact address
/// because the transport-level sender may be an intermediary (the Legion
/// translator object forwards its components' reports, Section 5.3). `seq`
/// is a per-client monotone sequence number; the scheduler caches the last
/// reply per client and replays it on a duplicate seq, which makes the
/// batch safe to retry and hedge (the pool mutations are applied exactly
/// once). seq 0 opts out of the dedupe cache.
struct ReportBatch {
  Endpoint client;
  std::uint64_t seq = 0;
  std::uint32_t want_units = 1;  // lease size to top back up to
  std::vector<ramsey::WorkReport> reports;

  static constexpr wire::Format kWire = sched_wire(msgtype::kSchedReportBatch);
  template <class Ar>
  void fields(Ar& ar) {
    ar(client, seq, want_units, reports);
  }
  [[nodiscard]] Status validate() const { return check_lease(want_units); }
  [[nodiscard]] Bytes serialize() const { return wire::encode(*this); }
  static Result<ReportBatch> deserialize(const Bytes& data) {
    return wire::decode<ReportBatch>(data);
  }
};

/// Scheduler reply to every register/report call: units the client must stop
/// working on (revoked: migrated away or retired) and new assignments. An
/// empty batch means "keep doing what you are doing".
struct DirectiveBatch {
  std::vector<std::uint64_t> revoke;
  std::vector<ramsey::WorkSpec> assign;

  [[nodiscard]] bool empty() const { return revoke.empty() && assign.empty(); }

  static constexpr wire::Format kWire = sched_wire(msgtype::kSchedDirectiveBatch);
  template <class Ar>
  void fields(Ar& ar) {
    ar(revoke, assign);
  }
  [[nodiscard]] Bytes serialize() const { return wire::encode(*this); }
  static Result<DirectiveBatch> deserialize(const Bytes& data) {
    return wire::decode<DirectiveBatch>(data);
  }
};

/// A performance record shipped to the logging service (Section 3.1.3:
/// scheduler-side information is "forwarded to a logging server so that it
/// can be recorded" before being discarded).
struct LogRecord {
  TimePoint when = 0;        // stamped by the reporter
  Endpoint client;
  Infra infra = Infra::kUnix;
  std::string host;
  std::uint64_t ops = 0;     // ops completed since the previous record
  std::uint64_t best_energy = 0;
  bool found = false;

  template <class Ar>
  void fields(Ar& ar) {
    ar(when, client, infra, host, ops, best_energy, found);
  }
  [[nodiscard]] Bytes serialize() const { return wire::encode(*this); }
  static Result<LogRecord> deserialize(const Bytes& data) {
    return wire::decode<LogRecord>(data);
  }
};

/// Persistent-state store request.
struct StoreRequest {
  std::string name;      // object name, e.g. "ramsey/best/17/4"
  Bytes blob;            // versioned object content

  template <class Ar>
  void fields(Ar& ar) {
    ar(name, blob);
  }
  [[nodiscard]] Bytes serialize() const { return wire::encode(*this); }
  static Result<StoreRequest> deserialize(const Bytes& data) {
    return wire::decode<StoreRequest>(data);
  }
};

}  // namespace ew::core
