// WISH wire surface: the interactive wide-area shell's message types.
//
// The WISH workload (ROADMAP: "a WISH-style interactive wide-area shell",
// grounded in jcnelson/wish's libwish packets and MPICH-G2-style collectives)
// is the first toolkit subsystem whose calls are short-lived and bursty —
// spawn/poll/signal/reap job control and barrier / leader-once /
// scatter-gather synchronization fan-outs — the opposite traffic shape from
// the long-running Ramsey clients.
//
// Every message carries the same versioned envelope the scheduler protocol
// uses (u8 wire version + u16 kind), and every list decode is guarded by a
// count-vs-remaining-bytes check before any vector is sized, so a truncated
// or hostile frame can never drive an allocation (both from common/wire.hpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "common/serialize.hpp"
#include "common/wire.hpp"
#include "gossip/protocol.hpp"
#include "net/endpoint.hpp"

namespace ew::wish {

/// Bump on incompatible changes; readers accept [1, kWishWireVersion].
constexpr std::uint8_t kWishWireVersion = 1;

/// Ceiling on every list count in the WISH protocol (jobs per spawn batch,
/// ids per poll, endpoints per scatter subtree, env entries per blob).
constexpr std::uint32_t kMaxWishBatch = 65'536;

// The 0x04xx block is WISH's (gossip owns 0x01xx, core services 0x02xx,
// state types 0x03xx).
namespace msgtype {
constexpr MsgType kJobSpawn = 0x0401;       // SpawnRequest -> SpawnReply
constexpr MsgType kJobPoll = 0x0402;        // PollRequest -> PollReply
constexpr MsgType kJobSignal = 0x0403;      // SignalRequest -> SignalReply
constexpr MsgType kJobReap = 0x0404;        // ReapRequest -> ReapReply
// RETIRED: 0x0405 and 0x0406 were kEnvSet and kEnvGet, a remote env
// read/write RPC that nothing sent (the env travels by gossip, and each host
// writes through WishDaemon::env_set). The constants are kept so the ids are
// never reassigned; no handler is registered for them.
constexpr MsgType kEnvSet = 0x0405;
constexpr MsgType kEnvGet = 0x0406;
constexpr MsgType kBarrierEnter = 0x0407;   // BarrierEnter -> BarrierEnterReply
constexpr MsgType kBarrierRelease = 0x0408; // BarrierRelease -> ok()
constexpr MsgType kLeaderClaim = 0x0409;    // LeaderClaim -> LeaderReply
constexpr MsgType kScatter = 0x040a;        // ScatterRequest -> ScatterReply
}  // namespace msgtype

namespace statetype {
/// The global environment blob synchronized through the gossip StateStore
/// (one blob type for the whole grid; 0x03xx is the shared state block —
/// core::statetype owns 0x0301/0x0302).
constexpr MsgType kWishEnv = 0x0303;
}  // namespace statetype

/// Wire format of every WISH message (common/wire.hpp): the versioned
/// envelope carrying the message's kind, and lists of at most kMaxWishBatch.
constexpr wire::Format wish_wire(MsgType kind) {
  return {kWishWireVersion, kind, kMaxWishBatch};
}

// --- Job table ---------------------------------------------------------------

enum class JobState : std::uint8_t {
  kQueued = 0,
  kRunning = 1,
  kExited = 2,
  kKilled = 3,
  kLost = 4,  // the daemon restarted and has no record of the id
};
constexpr std::uint8_t kJobStateCount = 5;
constexpr int enum_count(JobState) { return kJobStateCount; }
[[nodiscard]] inline bool job_state_terminal(JobState s) {
  return s == JobState::kExited || s == JobState::kKilled || s == JobState::kLost;
}

/// One simulated job: a command string and how long it runs on the host.
struct JobSpec {
  std::string command;
  Duration runtime = kSecond;

  template <class Ar>
  void fields(Ar& ar) {
    ar(command, runtime);
  }
  [[nodiscard]] Status validate() const {
    return wire::check(runtime >= 0, "negative job runtime");
  }
};

/// Spawn a batch of jobs on the target daemon.
struct SpawnRequest {
  Endpoint owner;  // the submitting client, for the job record
  std::vector<JobSpec> jobs;

  static constexpr wire::Format kWire = wish_wire(msgtype::kJobSpawn);
  template <class Ar>
  void fields(Ar& ar) {
    ar(owner, jobs);
  }
  [[nodiscard]] Status validate() const {
    return wire::check(!jobs.empty(), "empty spawn batch");
  }
  [[nodiscard]] Bytes serialize() const { return wire::encode(*this); }
  static Result<SpawnRequest> deserialize(const Bytes& data) {
    return wire::decode<SpawnRequest>(data);
  }
};

struct SpawnReply {
  std::uint64_t incarnation = 0;  // the daemon's, so owners spot restarts
  std::vector<std::uint64_t> ids;

  static constexpr wire::Format kWire = wish_wire(msgtype::kJobSpawn);
  template <class Ar>
  void fields(Ar& ar) {
    ar(incarnation, ids);
  }
  [[nodiscard]] Bytes serialize() const { return wire::encode(*this); }
  static Result<SpawnReply> deserialize(const Bytes& data) {
    return wire::decode<SpawnReply>(data);
  }
};

struct PollRequest {
  std::vector<std::uint64_t> ids;

  static constexpr wire::Format kWire = wish_wire(msgtype::kJobPoll);
  template <class Ar>
  void fields(Ar& ar) {
    ar(ids);
  }
  [[nodiscard]] Bytes serialize() const { return wire::encode(*this); }
  static Result<PollRequest> deserialize(const Bytes& data) {
    return wire::decode<PollRequest>(data);
  }
};

struct JobStatus {
  std::uint64_t id = 0;
  JobState state = JobState::kLost;
  std::int64_t exit_code = 0;

  template <class Ar>
  void fields(Ar& ar) {
    ar(id, state, exit_code);
  }
};

struct PollReply {
  std::uint64_t incarnation = 0;
  std::vector<JobStatus> jobs;  // one per requested id, in request order

  static constexpr wire::Format kWire = wish_wire(msgtype::kJobPoll);
  template <class Ar>
  void fields(Ar& ar) {
    ar(incarnation, jobs);
  }
  [[nodiscard]] Bytes serialize() const { return wire::encode(*this); }
  static Result<PollReply> deserialize(const Bytes& data) {
    return wire::decode<PollReply>(data);
  }
};

struct SignalRequest {
  std::uint64_t id = 0;
  std::uint8_t signum = 9;  // only kill is modeled

  static constexpr wire::Format kWire = wish_wire(msgtype::kJobSignal);
  template <class Ar>
  void fields(Ar& ar) {
    ar(id, signum);
  }
  [[nodiscard]] Bytes serialize() const { return wire::encode(*this); }
  static Result<SignalRequest> deserialize(const Bytes& data) {
    return wire::decode<SignalRequest>(data);
  }
};

struct SignalReply {
  JobState state = JobState::kLost;  // the job's state after the signal

  static constexpr wire::Format kWire = wish_wire(msgtype::kJobSignal);
  template <class Ar>
  void fields(Ar& ar) {
    ar(state);
  }
  [[nodiscard]] Bytes serialize() const { return wire::encode(*this); }
  static Result<SignalReply> deserialize(const Bytes& data) {
    return wire::decode<SignalReply>(data);
  }
};

struct ReapRequest {
  std::vector<std::uint64_t> ids;

  static constexpr wire::Format kWire = wish_wire(msgtype::kJobReap);
  template <class Ar>
  void fields(Ar& ar) {
    ar(ids);
  }
  [[nodiscard]] Bytes serialize() const { return wire::encode(*this); }
  static Result<ReapRequest> deserialize(const Bytes& data) {
    return wire::decode<ReapRequest>(data);
  }
};

struct ReapReply {
  std::uint32_t reaped = 0;  // terminal jobs actually removed

  static constexpr wire::Format kWire = wish_wire(msgtype::kJobReap);
  template <class Ar>
  void fields(Ar& ar) {
    ar(reaped);
  }
  [[nodiscard]] Bytes serialize() const { return wire::encode(*this); }
  static Result<ReapReply> deserialize(const Bytes& data) {
    return wire::decode<ReapReply>(data);
  }
};

// --- Synchronization primitives ----------------------------------------------

/// A participant announces itself at the barrier's coordinator. Re-sent
/// periodically until the coordinator *replies* released=true, which makes
/// the protocol survive a coordinator crash-restart: the restarted
/// coordinator rebuilds its arrival set from the re-enters (participants
/// that saw the release push keep re-entering until the reply confirms it,
/// so the set always re-reaches `expected`).
struct BarrierEnter {
  std::string name;
  std::uint64_t epoch = 0;
  std::uint32_t expected = 0;  // arrivals that complete the barrier
  Endpoint participant;        // where the release push goes
  /// Release-knowledge contagion: true when this participant already saw a
  /// release push for the epoch and is re-entering only for confirmation. A
  /// coordinator that restarted (and so forgot its released floor) restores
  /// it from any such witness — without this, a rebuilt arrival set can
  /// never re-reach `expected` once the already-confirmed participants have
  /// stopped re-entering, and the unconfirmed remainder hangs.
  bool released_seen = false;

  static constexpr wire::Format kWire = wish_wire(msgtype::kBarrierEnter);
  template <class Ar>
  void fields(Ar& ar) {
    ar(name, epoch, expected, participant, released_seen);
  }
  [[nodiscard]] Status validate() const {
    return wire::check(!name.empty() && expected >= 1 && expected <= kMaxWishBatch,
                       "bad barrier name or width");
  }
  [[nodiscard]] Bytes serialize() const { return wire::encode(*this); }
  static Result<BarrierEnter> deserialize(const Bytes& data) {
    return wire::decode<BarrierEnter>(data);
  }
};

struct BarrierEnterReply {
  bool released = false;  // this epoch is complete at the coordinator
  std::uint64_t coordinator_incarnation = 0;

  static constexpr wire::Format kWire = wish_wire(msgtype::kBarrierEnter);
  template <class Ar>
  void fields(Ar& ar) {
    ar(released, coordinator_incarnation);
  }
  [[nodiscard]] Bytes serialize() const { return wire::encode(*this); }
  static Result<BarrierEnterReply> deserialize(const Bytes& data) {
    return wire::decode<BarrierEnterReply>(data);
  }
};

/// Coordinator -> participant push when the barrier completes (a latency
/// optimization over waiting for the next re-enter reply).
struct BarrierRelease {
  std::string name;
  std::uint64_t epoch = 0;

  static constexpr wire::Format kWire = wish_wire(msgtype::kBarrierRelease);
  template <class Ar>
  void fields(Ar& ar) {
    ar(name, epoch);
  }
  [[nodiscard]] Bytes serialize() const { return wire::encode(*this); }
  static Result<BarrierRelease> deserialize(const Bytes& data) {
    return wire::decode<BarrierRelease>(data);
  }
};

/// First claim wins for (name, epoch) at the coordinator. The win is scoped
/// to the coordinator's incarnation: a crash-restart forgets the winner, so
/// callers treating the win as a lock must watch coordinator_incarnation.
struct LeaderClaim {
  std::string name;
  std::uint64_t epoch = 0;
  std::string claimant;

  static constexpr wire::Format kWire = wish_wire(msgtype::kLeaderClaim);
  template <class Ar>
  void fields(Ar& ar) {
    ar(name, epoch, claimant);
  }
  [[nodiscard]] Status validate() const {
    return wire::check(!name.empty() && !claimant.empty(), "empty leader or claimant");
  }
  [[nodiscard]] Bytes serialize() const { return wire::encode(*this); }
  static Result<LeaderClaim> deserialize(const Bytes& data) {
    return wire::decode<LeaderClaim>(data);
  }
};

struct LeaderReply {
  std::string winner;
  std::uint64_t coordinator_incarnation = 0;

  static constexpr wire::Format kWire = wish_wire(msgtype::kLeaderClaim);
  template <class Ar>
  void fields(Ar& ar) {
    ar(winner, coordinator_incarnation);
  }
  [[nodiscard]] Bytes serialize() const { return wire::encode(*this); }
  static Result<LeaderReply> deserialize(const Bytes& data) {
    return wire::decode<LeaderReply>(data);
  }
};

/// One hop of the MPICH-G2-style k-ary distribution tree. The receiver
/// applies `payload`, splits `subtree` into fan-out slices, forwards one
/// ScatterRequest per slice head, and replies with the gathered subtree
/// acknowledgement (delivered count + order-independent checksum) once its
/// children answer — the gather rides the call replies back up the tree.
struct ScatterRequest {
  std::string name;
  std::uint64_t epoch = 0;
  Bytes payload;
  std::vector<Endpoint> subtree;  // endpoints below the receiver, in order

  static constexpr wire::Format kWire = wish_wire(msgtype::kScatter);
  template <class Ar>
  void fields(Ar& ar) {
    ar(name, epoch, payload, subtree);
  }
  [[nodiscard]] Bytes serialize() const { return wire::encode(*this); }
  static Result<ScatterRequest> deserialize(const Bytes& data) {
    return wire::decode<ScatterRequest>(data);
  }
};

struct ScatterReply {
  std::uint32_t delivered = 0;   // receiver + its whole subtree
  std::uint64_t checksum = 0;    // sum over per-node fold (order-independent)

  static constexpr wire::Format kWire = wish_wire(msgtype::kScatter);
  template <class Ar>
  void fields(Ar& ar) {
    ar(delivered, checksum);
  }
  [[nodiscard]] Bytes serialize() const { return wire::encode(*this); }
  static Result<ScatterReply> deserialize(const Bytes& data) {
    return wire::decode<ScatterReply>(data);
  }
};

/// The per-node contribution to the gather checksum: the payload folded with
/// the applying endpoint, summed (commutatively) up the tree.
[[nodiscard]] std::uint64_t scatter_fold(const Endpoint& self,
                                         const Bytes& payload);

}  // namespace ew::wish
