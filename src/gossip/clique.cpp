#include "gossip/clique.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace ew::gossip {

CliqueMember::CliqueMember(Node& node, std::vector<Endpoint> well_known,
                           Options opts)
    : node_(node), well_known_(std::move(well_known)), opts_(opts) {}

void CliqueMember::start() {
  if (running_) return;
  running_ = true;
  node_.handle(mt_token(), [this](const IncomingMessage& m, Responder r) {
    on_token(m, r);
  });
  node_.handle(mt_join(), [this](const IncomingMessage& m, Responder r) {
    on_join(m, r);
  });
  node_.handle(mt_probe(), [this](const IncomingMessage& m, Responder r) {
    on_probe(m, r);
  });
  node_.handle(mt_merge(), [this](const IncomingMessage& m, Responder r) {
    on_merge(m, r);
  });
  view_.generation = 1;
  view_.leader = node_.self();
  view_.members = {node_.self()};
  last_token_ = node_.executor().now();
  note_view_change();
  for (auto& fn : listeners_) fn(view_);
  schedule_leader_tick();
  schedule_probe_tick();
  schedule_loss_check();
  announce_join();
}

void CliqueMember::announce_join() {
  // Announce ourselves to every well-known peer right away instead of
  // waiting for the probe rotation: a crash-restarted member rejoins the
  // clique in one round trip (the join response carries the peer's view,
  // which consider_foreign_view adopts or merges with).
  for (const auto& peer : well_known_) {
    if (peer == node_.self()) continue;
    node_.call(peer, mt_join(), wire::encode(node_.self()), hop_options(),
               [this](Result<Bytes> r) {
                 if (!running_ || !r.ok()) return;
                 auto v = View::deserialize(*r);
                 if (v) consider_foreign_view(*v);
               });
  }
}

void CliqueMember::note_view_change() {
  if (!obs::trace().enabled()) return;
  obs::trace().record(node_.executor().now(), obs::SpanKind::kCliqueViewChange,
                      obs::trace().intern(node_.self().to_string()),
                      static_cast<std::int64_t>(view_.generation),
                      static_cast<std::int64_t>(view_.members.size()));
}

void CliqueMember::stop() {
  if (!running_) return;
  running_ = false;
  node_.executor().cancel(leader_timer_);
  node_.executor().cancel(probe_timer_);
  node_.executor().cancel(loss_timer_);
}

void CliqueMember::install_view(View v) {
  for (const auto& m : v.members) {
    if (m != node_.self()) ever_seen_.insert(m);
  }
  if (!v.contains(node_.self())) {
    // We were dropped (marked suspect while partitioned). Do not adopt a
    // view we are not part of; restart as a singleton and merge back in.
    become_singleton();
    return;
  }
  const bool changed = v.generation != view_.generation ||
                       v.leader != view_.leader || v.members != view_.members;
  const bool new_leader = v.leader != view_.leader;
  view_ = std::move(v);
  last_token_ = node_.executor().now();
  merging_ = false;
  if (changed) {
    EW_DEBUG << node_.self().to_string() << ": view gen " << view_.generation
             << " leader " << view_.leader.to_string() << " size "
             << view_.members.size();
    if (new_leader) {
      obs::registry().counter(obs::names::kCliqueElections).inc();
      if (obs::trace().enabled()) {
        obs::trace().record(node_.executor().now(),
                            obs::SpanKind::kCliqueElection,
                            obs::trace().intern(view_.leader.to_string()),
                            static_cast<std::int64_t>(view_.members.size()),
                            is_leader() ? 1 : 0);
      }
    }
    note_view_change();
    for (auto& fn : listeners_) fn(view_);
  }
}

void CliqueMember::become_singleton() {
  ++fragmentations_;
  obs::registry().counter(obs::names::kCliqueFragmentations).inc();
  // Fragmenting elects self: the singleton view has a new leader.
  obs::registry().counter(obs::names::kCliqueElections).inc();
  if (obs::trace().enabled()) {
    obs::trace().record(node_.executor().now(), obs::SpanKind::kCliqueElection,
                        obs::trace().intern(node_.self().to_string()), 1, 1);
  }
  View v;
  v.generation = view_.generation + 1;
  v.leader = node_.self();
  v.members = {node_.self()};
  view_ = std::move(v);
  last_token_ = node_.executor().now();
  pending_joins_.clear();
  gen_floor_ = 0;
  note_view_change();
  for (auto& fn : listeners_) fn(view_);
}

void CliqueMember::schedule_leader_tick() {
  leader_timer_ = node_.executor().schedule(opts_.token_period, [this] {
    if (!running_) return;
    leader_tick();
    schedule_leader_tick();
  });
}

void CliqueMember::schedule_probe_tick() {
  probe_timer_ = node_.executor().schedule(opts_.probe_period, [this] {
    if (!running_) return;
    probe_tick();
    schedule_probe_tick();
  });
}

void CliqueMember::schedule_loss_check() {
  loss_timer_ = node_.executor().schedule(opts_.token_period, [this] {
    if (!running_) return;
    loss_check();
    schedule_loss_check();
  });
}

Duration CliqueMember::token_loss_timeout() const {
  return opts_.token_period * opts_.token_loss_factor +
         static_cast<Duration>(view_.members.size()) * opts_.hop_timeout;
}

void CliqueMember::leader_tick() {
  if (is_leader()) start_token_round();
}

void CliqueMember::loss_check() {
  if (is_leader()) return;
  if (node_.executor().now() - last_token_ > token_loss_timeout()) {
    EW_DEBUG << node_.self().to_string() << ": token lost, fragmenting";
    become_singleton();
  }
}

void CliqueMember::start_token_round() {
  if (gen_floor_ >= view_.generation && round_ > completed_round_ + 1) {
    // A merge handed us a fragment whose generation outranks our view, and
    // our rounds are dying: members inside that fragment drop our tokens as
    // stale, so complete_round (where the floor is normally folded in)
    // never fires. Re-mint the view above the floor before circulating; the
    // fragment adopts it and the ring resumes. Gated on two consecutive
    // dead rounds so a healthy merge (whose floor is folded in by the very
    // next complete_round) never churns the view from here.
    // (Found by the model checker: a startup race where g1 forms {g1,g2},
    // fragments past our generation when g2 dies, and then wedges the
    // leader's ring forever. See DESIGN.md §14.)
    View v;
    v.generation = std::max(view_.generation, gen_floor_) + 1;
    v.leader = node_.self();
    v.members = view_.members;
    gen_floor_ = 0;
    install_view(std::move(v));
  }
  ++round_;
  obs::registry().counter(obs::names::kCliqueRounds).inc();
  EW_DEBUG << node_.self().to_string() << ": token round " << round_ << " gen "
           << view_.generation << " size " << view_.members.size();
  Token token;
  token.round = round_;
  token.view = view_;
  token.visited = {node_.self()};
  if (view_.members.size() <= 1) {
    complete_round(token);
    return;
  }
  forward_token(std::move(token));
}

Endpoint CliqueMember::next_after(const Endpoint& e,
                                  const std::vector<Endpoint>& members,
                                  const std::set<Endpoint>& skip) const {
  if (members.empty()) return {};
  // Members are sorted; walk the ring starting just after `e`.
  auto start = std::upper_bound(members.begin(), members.end(), e);
  const std::size_t n = members.size();
  const std::size_t first = static_cast<std::size_t>(start - members.begin());
  for (std::size_t step = 0; step < n; ++step) {
    const Endpoint& cand = members[(first + step) % n];
    if (cand == e) continue;
    if (skip.contains(cand)) continue;
    return cand;
  }
  return {};
}

CallOptions CliqueMember::hop_options() const {
  // Clique hops need tighter bounds than the node-wide defaults: an unknown
  // peer is probed after opts_.hop_timeout (not the node's multi-second
  // initial), and a hop never waits past 30s however noisy the forecast.
  // Hops are single-attempt on purpose — a duplicated token would run two
  // rounds at once; failure handling is the suspects list, not a resend.
  CallOptions o;
  o.initial_timeout = opts_.hop_timeout;
  o.max_attempt_timeout = 30 * kSecond;
  return o;
}

void CliqueMember::forward_token(Token token) {
  std::set<Endpoint> skip(token.visited.begin(), token.visited.end());
  skip.insert(token.suspects.begin(), token.suspects.end());
  const Endpoint next = next_after(node_.self(), token.view.members, skip);
  if (!next.valid()) {
    // Ring exhausted: the round is over. Complete locally if we lead it,
    // otherwise return the token to the leader.
    if (token.view.leader == node_.self()) {
      complete_round(token);
      return;
    }
    const Endpoint leader = token.view.leader;
    node_.call(leader, mt_token(), token.serialize(), hop_options(),
               [](Result<Bytes>) {});
    return;
  }
  // Serialize BEFORE the call expression: the continuation captures `token`
  // by move, and argument evaluation order is unspecified.
  Bytes wire = token.serialize();
  node_.call(next, mt_token(), std::move(wire), hop_options(),
             [this, token = std::move(token), next](Result<Bytes> r) mutable {
               if (!running_) return;
               if (r.ok()) return;  // the next holder carries on
               EW_DEBUG << node_.self().to_string() << ": token hop to "
                        << next.to_string() << " failed: " << r.error().to_string();
               token.suspects.push_back(next);
               forward_token(std::move(token));
             });
}

void CliqueMember::on_token(const IncomingMessage& msg, const Responder& resp) {
  // Handlers stay registered after stop() (Node has no unregister); a
  // stopped member — e.g. a parent-tier member whose host lost the child
  // leadership — must refuse traffic so peers suspect it and drop it.
  if (!running_) {
    resp.fail(Err::kRejected, "clique member stopped");
    return;
  }
  auto token = Token::deserialize(msg.packet.payload);
  if (!token) {
    resp.fail(Err::kProtocol, token.error().message);
    return;
  }
  resp.ok();
  ++tokens_seen_;
  obs::registry().counter(obs::names::kCliqueTokens).inc();
  if (obs::trace().enabled()) {
    obs::trace().record(node_.executor().now(),
                        obs::SpanKind::kCliqueTokenPass,
                        obs::trace().intern(node_.self().to_string()),
                        static_cast<std::int64_t>(token->round),
                        static_cast<std::int64_t>(token->view.members.size()));
  }
  EW_DEBUG << node_.self().to_string() << ": got token round " << token->round
           << " gen " << token->view.generation << " from "
           << token->view.leader.to_string() << " visited " << token->visited.size();
  if (!token->view.contains(node_.self())) {
    consider_foreign_view(token->view);
    return;
  }
  const bool same_clique = token->view.generation == view_.generation &&
                           token->view.leader == view_.leader;
  if (token->view.newer_than(view_)) {
    install_view(token->view);
  } else if (same_clique) {
    last_token_ = node_.executor().now();
  } else {
    // A stale fragment's token; treat as discovery, do not forward it.
    consider_foreign_view(token->view);
    return;
  }
  if (token->view.leader == node_.self()) {
    // The round came home.
    if (token->round == round_) complete_round(*token);
    return;
  }
  token->visited.push_back(node_.self());
  forward_token(std::move(*token));
}

void CliqueMember::complete_round(const Token& token) {
  completed_round_ = token.round;
  std::set<Endpoint> members(view_.members.begin(), view_.members.end());
  bool changed = false;
  for (const auto& s : token.suspects) {
    if (members.erase(s) > 0) changed = true;
  }
  for (const auto& j : pending_joins_) {
    if (members.insert(j).second) changed = true;
  }
  pending_joins_.clear();
  members.insert(node_.self());
  if (changed || gen_floor_ >= view_.generation) {
    View v;
    v.generation = std::max(view_.generation, gen_floor_) + 1;
    v.leader = node_.self();
    v.members.assign(members.begin(), members.end());
    gen_floor_ = 0;
    install_view(std::move(v));
  } else {
    last_token_ = node_.executor().now();
  }
}

void CliqueMember::on_join(const IncomingMessage& msg, const Responder& resp) {
  if (!running_) {
    resp.fail(Err::kRejected, "clique member stopped");
    return;
  }
  auto decoded = wire::decode<Endpoint>(msg.packet.payload);
  if (!decoded) {
    resp.fail(Err::kProtocol, decoded.error().message);
    return;
  }
  const Endpoint joiner = std::move(*decoded);
  ever_seen_.insert(joiner);
  if (is_leader()) {
    if (!view_.contains(joiner)) pending_joins_.push_back(joiner);
    resp.ok(view_.serialize());
    return;
  }
  // Not the leader: tell the joiner who is (it retries there).
  resp.ok(view_.serialize());
}

void CliqueMember::on_probe(const IncomingMessage& msg, const Responder& resp) {
  if (!running_) {
    resp.fail(Err::kRejected, "clique member stopped");
    return;
  }
  auto foreign = View::deserialize(msg.packet.payload);
  if (!foreign) {
    resp.fail(Err::kProtocol, foreign.error().message);
    return;
  }
  resp.ok(view_.serialize());
  consider_foreign_view(*foreign);
}

void CliqueMember::on_merge(const IncomingMessage& msg, const Responder& resp) {
  if (!running_) {
    resp.fail(Err::kRejected, "clique member stopped");
    return;
  }
  auto foreign = View::deserialize(msg.packet.payload);
  if (!foreign) {
    resp.fail(Err::kProtocol, foreign.error().message);
    return;
  }
  resp.ok(view_.serialize());
  if (foreign->leader == view_.leader) return;  // already merged
  if (!is_leader()) {
    // Relay to our leader.
    node_.call(view_.leader, mt_merge(), foreign->serialize(),
               hop_options(), [](Result<Bytes>) {});
    return;
  }
  if (node_.self() < foreign->leader) {
    // We absorb them: admit their members; the next round's generation must
    // exceed theirs so the merged view wins adoption everywhere.
    gen_floor_ = std::max(gen_floor_, foreign->generation);
    for (const auto& m : foreign->members) {
      ever_seen_.insert(m);
      if (!view_.contains(m) &&
          std::find(pending_joins_.begin(), pending_joins_.end(), m) ==
              pending_joins_.end()) {
        pending_joins_.push_back(m);
      }
    }
  } else {
    // They are the senior clique: ask to be absorbed.
    consider_foreign_view(*foreign);
  }
}

void CliqueMember::consider_foreign_view(const View& foreign) {
  for (const auto& m : foreign.members) {
    if (m != node_.self()) ever_seen_.insert(m);
  }
  if (foreign.leader == view_.leader) {
    if (foreign.newer_than(view_)) {
      install_view(foreign);
    } else if (view_.newer_than(foreign) && foreign.leader != node_.self()) {
      // A stale fragment of our own clique — typically our leader, freshly
      // crash-restarted as a generation-1 singleton. Neither side's merge
      // path fires (the leaders are equal), so left alone the ring only
      // heals after the token-loss timeout fragments everyone. Push our
      // newer view at the stale leader; its same-leader branch adopts it
      // and token rounds resume at the surviving generation.
      node_.call(foreign.leader, mt_probe(), view_.serialize(),
                 hop_options(), [this](Result<Bytes> r) {
                   if (!running_ || !r.ok()) return;
                   auto v = View::deserialize(*r);
                   if (v) consider_foreign_view(*v);
                 });
    }
    return;
  }
  if (merging_) return;  // one merge in flight is plenty
  if (foreign.leader < view_.leader) {
    // The foreign clique is senior: hand our whole clique over. Any member
    // may initiate; the foreign leader dedups.
    merging_ = true;
    const Endpoint target = foreign.leader;
    node_.call(target, mt_merge(), view_.serialize(), hop_options(),
               [this](Result<Bytes> r) {
                 if (!running_) return;
                 merging_ = false;
                 if (!r.ok()) return;
                 auto v = View::deserialize(*r);
                 if (v && v->newer_than(view_) && v->contains(node_.self())) {
                   install_view(std::move(*v));
                 }
               });
  } else {
    // We are senior: absorb them (leader-side path of on_merge).
    if (is_leader()) {
      gen_floor_ = std::max(gen_floor_, foreign.generation);
      for (const auto& m : foreign.members) {
        if (!view_.contains(m) &&
            std::find(pending_joins_.begin(), pending_joins_.end(), m) ==
                pending_joins_.end()) {
          pending_joins_.push_back(m);
        }
      }
    } else {
      node_.call(view_.leader, mt_merge(), foreign.serialize(),
                 hop_options(), [](Result<Bytes>) {});
    }
  }
}

void CliqueMember::probe_tick() {
  // Deterministic round-robin over everyone we might merge with.
  std::vector<Endpoint> targets;
  for (const auto& e : well_known_) {
    if (e != node_.self() && !view_.contains(e)) targets.push_back(e);
  }
  for (const auto& e : ever_seen_) {
    if (e != node_.self() && !view_.contains(e) &&
        std::find(targets.begin(), targets.end(), e) == targets.end()) {
      targets.push_back(e);
    }
  }
  if (targets.empty()) return;
  const Endpoint target = targets[probe_index_++ % targets.size()];
  // View exchange is idempotent (merge of sorted member sets), so probes
  // may retry within the hop bounds.
  CallOptions probe = hop_options();
  probe.retry = RetryPolicy::standard(2);
  node_.call(target, mt_probe(), view_.serialize(), std::move(probe),
             [this](Result<Bytes> r) {
               if (!running_) return;
               if (!r.ok()) return;
               auto v = View::deserialize(*r);
               if (v) consider_foreign_view(*v);
             });
}

}  // namespace ew::gossip
