#include "gossip/sync_client.hpp"

#include "common/log.hpp"
#include "obs/registry.hpp"

namespace ew::gossip {

SyncClient::SyncClient(Node& node, const ComparatorRegistry& comparators,
                       std::vector<Endpoint> gossips, Options opts)
    : node_(node),
      comparators_(comparators),
      gossips_(std::move(gossips)),
      opts_(opts) {}

void SyncClient::expose(MsgType type, StateHandlers handlers) {
  handlers_[type] = std::move(handlers);
}

void SyncClient::start() {
  if (running_) return;
  running_ = true;
  node_.handle(msgtype::kGetState,
               [this](const IncomingMessage& m, Responder r) { on_get_state(m, r); });
  node_.handle(msgtype::kGetStateBatch, [this](const IncomingMessage& m, Responder r) {
    on_get_state_batch(m, r);
  });
  node_.handle(msgtype::kStateUpdate, [this](const IncomingMessage& m, Responder r) {
    on_state_update(m, r);
  });
  if (!gossips_.empty()) register_with(0);
}

void SyncClient::stop() {
  if (!running_) return;
  running_ = false;
  node_.executor().cancel(renew_timer_);
  registered_ = false;
}

void SyncClient::register_with(std::size_t index) {
  if (!running_ || gossips_.empty()) return;
  const Endpoint target = gossips_[index % gossips_.size()];
  Registration reg;
  reg.component = node_.self();
  for (const auto& [type, h] : handlers_) reg.types.push_back(type);
  // Registration renewals are idempotent; retry within the call before the
  // slower next-gossip failover below.
  CallOptions opts = CallOptions::fixed(opts_.call_timeout);
  opts.retry = RetryPolicy::standard(2);
  opts.trace_tag = "sync.register";
  node_.call(target, msgtype::kRegister, reg.serialize(), std::move(opts),
             [this, target, index](Result<Bytes> r) {
               if (!running_) return;
               if (r.ok()) {
                 registered_ = true;
                 current_gossip_ = target;
                 schedule_renewal();
               } else {
                 registered_ = false;
                 // Fail over to the next well-known gossip after a beat.
                 renew_timer_ = node_.executor().schedule(
                     opts_.retry_delay, [this, index] { register_with(index + 1); });
               }
             });
}

void SyncClient::schedule_renewal() {
  renew_timer_ = node_.executor().schedule(opts_.reregister_period, [this] {
    if (!running_) return;
    // Renew with the same gossip; its failure pushes us down the list.
    for (std::size_t i = 0; i < gossips_.size(); ++i) {
      if (gossips_[i] == current_gossip_) {
        register_with(i);
        return;
      }
    }
    register_with(0);
  });
}

void SyncClient::on_get_state(const IncomingMessage& msg, const Responder& resp) {
  Reader r(msg.packet.payload);
  auto type = r.u16();
  if (!type) {
    resp.fail(Err::kProtocol, "missing state type");
    return;
  }
  auto it = handlers_.find(*type);
  if (it == handlers_.end() || !it->second.provider) {
    resp.fail(Err::kRejected, "state type not exposed: " + std::to_string(*type));
    return;
  }
  resp.ok(it->second.provider());
}

void SyncClient::on_get_state_batch(const IncomingMessage& msg,
                                    const Responder& resp) {
  auto req = PollRequest::deserialize(msg.packet.payload);
  if (!req) {
    resp.fail(Err::kProtocol, req.error().message);
    return;
  }
  // One response for the whole poll. Types we don't expose are skipped, not
  // failed: a gossip's registry can briefly trail a re-registration, and a
  // partial answer still advances anti-entropy. Types whose content still
  // checksums to what the gossip already holds are elided — the digest
  // cache that keeps steady-state polls at summary size.
  PollReply reply;
  std::size_t exposed = 0;
  for (const TypeSummary& held : req->held) {
    auto it = handlers_.find(held.type);
    if (it == handlers_.end() || !it->second.provider) continue;
    ++exposed;
    Bytes current = it->second.provider();
    if (held.checksum != 0 && held.checksum == content_checksum(current)) {
      continue;  // the gossip's copy is byte-identical; nothing to ship
    }
    reply.blobs.push_back(StateBlob{held.type, std::move(current)});
  }
  reply.fresh = exposed > 0 && reply.blobs.empty();
  if (reply.fresh) {
    ++poll_cache_hits_;
    obs::registry().counter(obs::names::kGossipPollCacheHits).inc();
  }
  resp.ok(reply.serialize());
}

void SyncClient::on_state_update(const IncomingMessage& msg, const Responder& resp) {
  auto blob = wire::decode<StateBlob>(msg.packet.payload);
  if (!blob) {
    resp.fail(Err::kProtocol, blob.error().message);
    return;
  }
  auto it = handlers_.find(blob->type);
  if (it == handlers_.end() || !it->second.applier) {
    resp.fail(Err::kRejected, "state type not exposed: " + std::to_string(blob->type));
    return;
  }
  // Union-mergeable types skip the freshness guard entirely: their applier
  // IS a union, so applying any copy is idempotent and monotone — it can
  // only add facts, never roll the component backwards.
  if (comparators_.merger(blob->type) != nullptr) {
    it->second.applier(blob->content);
    ++updates_applied_;
    resp.ok();
    return;
  }
  // Apply only if fresher than what we hold — a slow Gossip must not be
  // able to roll a component's state backwards. A comparator TIE with
  // different content resolves exactly like StateStore::merge: the larger
  // content checksum wins deterministically. Without the tie-break, two
  // components publishing the same type under equal versions (the
  // multi-writer WISH env blob) each drop the other's pushed copy as
  // "equally fresh" and their contents never exchange.
  if (it->second.provider) {
    const Bytes mine = it->second.provider();
    const int cmp = comparators_.comparator(blob->type)(blob->content, mine);
    if (cmp < 0 ||
        (cmp == 0 &&
         content_checksum(blob->content) <= content_checksum(mine))) {
      resp.ok();  // polite no-op; we are already at least as fresh
      return;
    }
  }
  it->second.applier(blob->content);
  ++updates_applied_;
  resp.ok();
}

}  // namespace ew::gossip
