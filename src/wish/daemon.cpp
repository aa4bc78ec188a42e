#include "wish/daemon.hpp"

#include <algorithm>
#include <memory>

#include "common/hash.hpp"
#include "obs/trace.hpp"

namespace ew::wish {

CallOptions WishDaemon::Options::default_collective_call() {
  CallOptions o;
  o.retry = RetryPolicy::standard(3);
  o.hedge = HedgePolicy::at(0.95);
  o.deadline = 10 * kSecond;
  return o;
}

WishDaemon::WishDaemon(Node& node,
                       const gossip::ComparatorRegistry& comparators,
                       Options opts)
    : node_(node),
      comparators_(comparators),
      opts_(std::move(opts)),
      // The writer id hashes the (stable) endpoint, not the incarnation:
      // a restarted daemon must recognize its pre-crash env entries as its
      // own ghosts.
      env_(fnv1a64(node.self().to_string())),
      jobs_(opts_.incarnation) {
  auto& reg = obs::registry();
  c_spawned_ = &reg.counter(obs::names::kWishJobsSpawned);
  c_completed_ = &reg.counter(obs::names::kWishJobsCompleted);
  c_killed_ = &reg.counter(obs::names::kWishJobsKilled);
  c_unknown_polls_ = &reg.counter(obs::names::kWishJobsUnknownPolls);
  c_env_sets_ = &reg.counter(obs::names::kWishEnvSets);
  c_env_merges_ = &reg.counter(obs::names::kWishEnvMerges);
  c_ghost_remints_ = &reg.counter(obs::names::kWishEnvGhostRemints);
  c_barrier_rounds_ = &reg.counter(obs::names::kWishBarrierRounds);
  c_reentries_ = &reg.counter(obs::names::kWishBarrierReentries);
  c_leader_claims_ = &reg.counter(obs::names::kWishLeaderClaims);
  c_scatter_forwards_ = &reg.counter(obs::names::kWishScatterForwards);
}

WishDaemon::~WishDaemon() { stop(); }

void WishDaemon::start() {
  if (running_) return;
  running_ = true;
  register_handlers();
  if (!opts_.gossips.empty()) {
    sync_.emplace(node_, comparators_, opts_.gossips);
    sync_->expose(statetype::kWishEnv,
                  {/*provider=*/[this] { return env_.snapshot(); },
                   /*applier=*/[this](const Bytes& blob) {
                     const std::uint64_t ghosts_before = env_.ghost_remints();
                     if (!env_.apply(blob).ok()) return;
                     c_env_merges_->inc();
                     const std::uint64_t ghosts =
                         env_.ghost_remints() - ghosts_before;
                     if (ghosts > 0) c_ghost_remints_->inc(ghosts);
                   }});
    sync_->start();
  }
}

void WishDaemon::stop() {
  if (!running_) return;
  running_ = false;
  if (sync_) {
    sync_->stop();
    sync_.reset();
  }
  for (JobTable::Job* j : jobs_.all()) {
    if (j->completion != kInvalidTimer) {
      node_.executor().cancel(j->completion);
      j->completion = kInvalidTimer;
    }
  }
  for (auto& [key, wait] : waits_) {
    if (wait.timer != kInvalidTimer) {
      node_.executor().cancel(wait.timer);
      wait.timer = kInvalidTimer;
    }
  }
  waits_.clear();
}

void WishDaemon::register_handlers() {
  const auto guard = [this](void (WishDaemon::*fn)(const IncomingMessage&,
                                                   const Responder&)) {
    return [this, fn](const IncomingMessage& msg, Responder resp) {
      if (!running_) {
        resp.fail(Err::kUnavailable, "wish daemon stopped");
        return;
      }
      (this->*fn)(msg, resp);
    };
  };
  node_.handle(msgtype::kJobSpawn, guard(&WishDaemon::on_spawn));
  node_.handle(msgtype::kJobPoll, guard(&WishDaemon::on_poll));
  node_.handle(msgtype::kJobSignal, guard(&WishDaemon::on_signal));
  node_.handle(msgtype::kJobReap, guard(&WishDaemon::on_reap));
  node_.handle(msgtype::kBarrierEnter, guard(&WishDaemon::on_barrier_enter));
  node_.handle(msgtype::kBarrierRelease,
               guard(&WishDaemon::on_barrier_release));
  node_.handle(msgtype::kLeaderClaim, guard(&WishDaemon::on_leader_claim));
  node_.handle(msgtype::kScatter, guard(&WishDaemon::on_scatter));
}

// --- Jobs --------------------------------------------------------------------

void WishDaemon::on_spawn(const IncomingMessage& msg, const Responder& resp) {
  auto req = SpawnRequest::deserialize(msg.packet.payload);
  if (!req) {
    resp.fail(req.error().code, req.error().message);
    return;
  }
  if (jobs_.size() + req->jobs.size() > opts_.max_jobs) {
    resp.fail(Err::kOverloaded, "wish job table full");
    return;
  }
  SpawnReply reply;
  reply.incarnation = opts_.incarnation;
  reply.ids.reserve(req->jobs.size());
  for (const JobSpec& spec : req->jobs) {
    JobTable::Job& job = jobs_.spawn(spec, req->owner);
    reply.ids.push_back(job.id);
    start_job(job);
  }
  c_spawned_->inc(req->jobs.size());
  resp.ok(reply.serialize());
}

void WishDaemon::start_job(JobTable::Job& job) {
  job.state = JobState::kRunning;
  job.started = node_.executor().now();
  const std::uint64_t id = job.id;
  job.completion = node_.executor().schedule(
      std::max<Duration>(job.spec.runtime, 0), [this, id] { finish_job(id); });
  if (obs::trace().enabled()) {
    obs::trace().record(node_.executor().now(), obs::SpanKind::kWishJob,
                        obs::trace().intern(node_.self().to_string()),
                        static_cast<std::int64_t>(id),
                        static_cast<std::int64_t>(JobState::kRunning));
  }
}

void WishDaemon::finish_job(std::uint64_t id) {
  JobTable::Job* job = jobs_.find(id);
  if (job == nullptr || job_state_terminal(job->state)) return;
  job->completion = kInvalidTimer;
  job->state = JobState::kExited;
  job->exit_code = 0;
  ++jobs_completed_;
  c_completed_->inc();
  if (obs::trace().enabled()) {
    obs::trace().record(node_.executor().now(), obs::SpanKind::kWishJob,
                        obs::trace().intern(node_.self().to_string()),
                        static_cast<std::int64_t>(id),
                        static_cast<std::int64_t>(JobState::kExited));
  }
}

void WishDaemon::on_poll(const IncomingMessage& msg, const Responder& resp) {
  auto req = PollRequest::deserialize(msg.packet.payload);
  if (!req) {
    resp.fail(req.error().code, req.error().message);
    return;
  }
  PollReply reply;
  reply.incarnation = opts_.incarnation;
  reply.jobs.reserve(req->ids.size());
  for (std::uint64_t id : req->ids) {
    JobStatus s = jobs_.status_of(id);
    if (s.state == JobState::kLost) c_unknown_polls_->inc();
    reply.jobs.push_back(s);
  }
  resp.ok(reply.serialize());
}

void WishDaemon::on_signal(const IncomingMessage& msg, const Responder& resp) {
  auto req = SignalRequest::deserialize(msg.packet.payload);
  if (!req) {
    resp.fail(req.error().code, req.error().message);
    return;
  }
  SignalReply reply;
  JobTable::Job* job = jobs_.find(req->id);
  if (job == nullptr) {
    reply.state = JobState::kLost;
    resp.ok(reply.serialize());
    return;
  }
  if (!job_state_terminal(job->state)) {
    if (job->completion != kInvalidTimer) {
      node_.executor().cancel(job->completion);
      job->completion = kInvalidTimer;
    }
    job->state = JobState::kKilled;
    job->exit_code = -static_cast<std::int64_t>(req->signum);
    c_killed_->inc();
    if (obs::trace().enabled()) {
      obs::trace().record(node_.executor().now(), obs::SpanKind::kWishJob,
                          obs::trace().intern(node_.self().to_string()),
                          static_cast<std::int64_t>(req->id),
                          static_cast<std::int64_t>(JobState::kKilled));
    }
  }
  reply.state = job->state;
  resp.ok(reply.serialize());
}

void WishDaemon::on_reap(const IncomingMessage& msg, const Responder& resp) {
  auto req = ReapRequest::deserialize(msg.packet.payload);
  if (!req) {
    resp.fail(req.error().code, req.error().message);
    return;
  }
  ReapReply reply;
  for (std::uint64_t id : req->ids) {
    if (jobs_.reap(id)) ++reply.reaped;
  }
  resp.ok(reply.serialize());
}

// --- Environment -------------------------------------------------------------

std::uint64_t WishDaemon::env_set(const std::string& key,
                                  const std::string& value) {
  const std::uint64_t version = env_.set(key, value);
  c_env_sets_->inc();
  return version;
}

// --- Barrier -----------------------------------------------------------------

Endpoint WishDaemon::coordinator_of(const std::string& name) const {
  if (opts_.peers.empty()) return node_.self();
  return opts_.peers[fnv1a64(name) % opts_.peers.size()];
}

void WishDaemon::enter_barrier(const std::string& name, std::uint64_t epoch,
                               std::uint32_t expected, BarrierCallback cb) {
  const BarrierKey key{name, epoch};
  auto [it, inserted] = waits_.try_emplace(key);
  if (!inserted) return;  // duplicate enter; the first wait carries the cb
  it->second.expected = expected;
  it->second.cb = std::move(cb);
  send_barrier_enter(name, epoch);
  schedule_reenter(name, epoch);
}

void WishDaemon::send_barrier_enter(const std::string& name,
                                    std::uint64_t epoch) {
  const auto it = waits_.find(BarrierKey{name, epoch});
  if (it == waits_.end()) return;
  BarrierEnter req;
  req.name = name;
  req.epoch = epoch;
  req.expected = it->second.expected;
  req.participant = node_.self();
  req.released_seen = it->second.released;
  node_.call(coordinator_of(name), msgtype::kBarrierEnter, req.serialize(),
             opts_.collective_call,
             [this, name, epoch](Result<Bytes> result) {
               if (!running_ || !result) return;  // the timer re-enters
               auto reply = BarrierEnterReply::deserialize(*result);
               if (!reply || !reply->released) return;
               // Confirmed by a REPLY: only now is the wait done (a push
               // alone leaves the re-enter loop running — see protocol.hpp).
               const auto wit = waits_.find(BarrierKey{name, epoch});
               if (wit == waits_.end()) return;
               if (!wit->second.released && wit->second.cb) wit->second.cb();
               if (wit->second.timer != kInvalidTimer) {
                 node_.executor().cancel(wit->second.timer);
               }
               waits_.erase(wit);
             });
}

void WishDaemon::schedule_reenter(const std::string& name,
                                  std::uint64_t epoch) {
  const auto it = waits_.find(BarrierKey{name, epoch});
  if (it == waits_.end()) return;
  it->second.timer = node_.executor().schedule(
      opts_.barrier_reenter, [this, name, epoch] {
        const auto wit = waits_.find(BarrierKey{name, epoch});
        if (wit == waits_.end() || !running_) return;
        wit->second.timer = kInvalidTimer;
        ++reentries_;
        c_reentries_->inc();
        send_barrier_enter(name, epoch);
        schedule_reenter(name, epoch);
      });
}

void WishDaemon::on_barrier_enter(const IncomingMessage& msg,
                                  const Responder& resp) {
  auto req = BarrierEnter::deserialize(msg.packet.payload);
  if (!req) {
    resp.fail(req.error().code, req.error().message);
    return;
  }
  BarrierEnterReply reply;
  reply.coordinator_incarnation = opts_.incarnation;
  const auto floor = released_floor_.find(req->name);
  if (floor != released_floor_.end() && req->epoch <= floor->second) {
    // Already released this incarnation — the idempotent answer a
    // released-but-unconfirmed participant is re-entering for.
    reply.released = true;
    resp.ok(reply.serialize());
    return;
  }
  if (req->released_seen) {
    // A witness of the release: this coordinator incarnation never saw it
    // (crash-restart wiped the floor). Restore the floor from the witness
    // and release anyone re-assembled under this epoch, or the unconfirmed
    // remainder could wait forever for participants that already left.
    const BarrierKey witness_key{req->name, req->epoch};
    if (auto git = groups_.find(witness_key); git != groups_.end()) {
      release_group(req->name, req->epoch, git->second);
      groups_.erase(git);
    } else {
      auto& f = released_floor_[req->name];
      f = std::max(f, req->epoch);
    }
    reply.released = true;
    resp.ok(reply.serialize());
    return;
  }
  const BarrierKey key{req->name, req->epoch};
  BarrierGroup& group = groups_[key];
  group.expected = std::max(group.expected, req->expected);
  if (std::find(group.arrivals.begin(), group.arrivals.end(),
                req->participant) == group.arrivals.end()) {
    group.arrivals.push_back(req->participant);
  }
  if (obs::trace().enabled()) {
    obs::trace().record(node_.executor().now(), obs::SpanKind::kWishBarrier,
                        obs::trace().intern(req->name),
                        static_cast<std::int64_t>(req->epoch),
                        static_cast<std::int64_t>(group.arrivals.size()));
  }
  if (group.expected > 0 && group.arrivals.size() >= group.expected) {
    release_group(req->name, req->epoch, group);
    groups_.erase(key);
    reply.released = true;
  }
  resp.ok(reply.serialize());
}

void WishDaemon::release_group(const std::string& name, std::uint64_t epoch,
                               BarrierGroup& group) {
  auto& floor = released_floor_[name];
  floor = std::max(floor, epoch);
  ++barrier_rounds_;
  c_barrier_rounds_->inc();
  BarrierRelease push;
  push.name = name;
  push.epoch = epoch;
  const Bytes wire = push.serialize();
  for (const Endpoint& participant : group.arrivals) {
    // Latency optimization only: a lost push is recovered by the
    // participant's next re-enter hitting the released floor above.
    node_.call(participant, msgtype::kBarrierRelease, wire,
               opts_.collective_call, [](Result<Bytes>) {});
  }
}

void WishDaemon::on_barrier_release(const IncomingMessage& msg,
                                    const Responder& resp) {
  auto req = BarrierRelease::deserialize(msg.packet.payload);
  if (!req) {
    resp.fail(req.error().code, req.error().message);
    return;
  }
  const auto it = waits_.find(BarrierKey{req->name, req->epoch});
  if (it != waits_.end() && !it->second.released) {
    it->second.released = true;
    if (it->second.cb) it->second.cb();
    // The wait (and its re-enter timer) stays until a coordinator REPLY
    // confirms the release — that is what rebuilds a crashed coordinator's
    // arrival set, so the barrier cannot half-release.
  }
  resp.ok();
}

// --- Leader-once -------------------------------------------------------------

void WishDaemon::on_leader_claim(const IncomingMessage& msg,
                                 const Responder& resp) {
  auto req = LeaderClaim::deserialize(msg.packet.payload);
  if (!req) {
    resp.fail(req.error().code, req.error().message);
    return;
  }
  c_leader_claims_->inc();
  const auto [it, inserted] =
      leaders_.try_emplace(BarrierKey{req->name, req->epoch}, req->claimant);
  LeaderReply reply;
  reply.winner = it->second;
  reply.coordinator_incarnation = opts_.incarnation;
  resp.ok(reply.serialize());
}

void WishDaemon::leader_once(const std::string& name, std::uint64_t epoch,
                             const std::string& claimant, LeaderCallback cb) {
  LeaderClaim req;
  req.name = name;
  req.epoch = epoch;
  req.claimant = claimant;
  node_.call(coordinator_of(name), msgtype::kLeaderClaim, req.serialize(),
             opts_.collective_call,
             [claimant, cb = std::move(cb)](Result<Bytes> result) {
               if (!cb) return;
               if (!result) {
                 cb(false, std::string{}, 0);
                 return;
               }
               auto reply = LeaderReply::deserialize(*result);
               if (!reply) {
                 cb(false, std::string{}, 0);
                 return;
               }
               cb(reply->winner == claimant, reply->winner,
                  reply->coordinator_incarnation);
             });
}

// --- Scatter/gather ----------------------------------------------------------

void WishDaemon::fan_out(const std::string& name, std::uint64_t epoch,
                         const Bytes& payload, std::vector<Endpoint> targets,
                         std::function<void(std::uint32_t, std::uint64_t)> done) {
  if (targets.empty()) {
    done(0, 0);
    return;
  }
  const std::size_t fanout =
      std::max<std::size_t>(1, std::min<std::size_t>(opts_.scatter_fanout,
                                                     targets.size()));
  struct Gather {
    std::size_t pending = 0;
    std::uint32_t delivered = 0;
    std::uint64_t checksum = 0;
    std::function<void(std::uint32_t, std::uint64_t)> done;
  };
  auto gather = std::make_shared<Gather>();
  gather->pending = fanout;
  gather->done = std::move(done);
  // Contiguous split: chunk i's head is the child, the tail its subtree.
  const std::size_t chunk = (targets.size() + fanout - 1) / fanout;
  for (std::size_t i = 0; i < fanout; ++i) {
    const std::size_t lo = i * chunk;
    const std::size_t hi = std::min(targets.size(), lo + chunk);
    ScatterRequest req;
    req.name = name;
    req.epoch = epoch;
    req.payload = payload;
    if (lo + 1 < hi) {
      req.subtree.assign(targets.begin() + static_cast<std::ptrdiff_t>(lo) + 1,
                         targets.begin() + static_cast<std::ptrdiff_t>(hi));
    }
    c_scatter_forwards_->inc();
    node_.call(targets[lo], msgtype::kScatter, req.serialize(),
               opts_.collective_call, [gather](Result<Bytes> result) {
                 if (result) {
                   if (auto reply = ScatterReply::deserialize(*result)) {
                     gather->delivered += reply->delivered;
                     gather->checksum += reply->checksum;
                   }
                 }
                 // A failed subtree contributes nothing; the root sees the
                 // shortfall in `delivered` and may re-scatter.
                 if (--gather->pending == 0) {
                   gather->done(gather->delivered, gather->checksum);
                 }
               });
  }
}

void WishDaemon::on_scatter(const IncomingMessage& msg, const Responder& resp) {
  auto req = ScatterRequest::deserialize(msg.packet.payload);
  if (!req) {
    resp.fail(req.error().code, req.error().message);
    return;
  }
  auto& applied = scatter_applied_[req->name];
  if (req->epoch >= applied.first) applied = {req->epoch, req->payload};
  if (obs::trace().enabled()) {
    obs::trace().record(node_.executor().now(), obs::SpanKind::kWishCollective,
                        obs::trace().intern(req->name),
                        static_cast<std::int64_t>(req->subtree.size()),
                        static_cast<std::int64_t>(opts_.scatter_fanout));
  }
  const std::uint64_t own = scatter_fold(node_.self(), req->payload);
  // Deferred reply: the gathered subtree acknowledgement rides back up the
  // tree once the children answer.
  fan_out(req->name, req->epoch, req->payload, std::move(req->subtree),
          [resp, own](std::uint32_t delivered, std::uint64_t checksum) {
            ScatterReply reply;
            reply.delivered = delivered + 1;
            reply.checksum = checksum + own;
            resp.ok(reply.serialize());
          });
}

void WishDaemon::scatter(const std::string& name, std::uint64_t epoch,
                         Bytes payload, ScatterCallback cb) {
  auto& applied = scatter_applied_[name];
  if (epoch >= applied.first) applied = {epoch, payload};
  std::vector<Endpoint> targets;
  targets.reserve(opts_.peers.size());
  for (const Endpoint& peer : opts_.peers) {
    if (!(peer == node_.self())) targets.push_back(peer);
  }
  if (obs::trace().enabled()) {
    obs::trace().record(node_.executor().now(), obs::SpanKind::kWishCollective,
                        obs::trace().intern(name),
                        static_cast<std::int64_t>(targets.size()),
                        static_cast<std::int64_t>(opts_.scatter_fanout));
  }
  const std::uint64_t own = scatter_fold(node_.self(), payload);
  fan_out(name, epoch, payload, std::move(targets),
          [cb = std::move(cb), own](std::uint32_t delivered,
                                    std::uint64_t checksum) {
            if (!cb) return;
            ScatterReply reply;
            reply.delivered = delivered + 1;
            reply.checksum = checksum + own;
            cb(reply);
          });
}

std::optional<std::pair<std::uint64_t, Bytes>> WishDaemon::scatter_payload(
    const std::string& name) const {
  const auto it = scatter_applied_.find(name);
  if (it == scatter_applied_.end()) return std::nullopt;
  return it->second;
}

}  // namespace ew::wish
