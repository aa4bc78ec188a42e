#include "core/service_framework.hpp"

#include "common/log.hpp"

namespace ew::core {

TimePoint ServiceContext::now() { return fw_.exec_.now(); }
const Endpoint& ServiceContext::self() { return fw_.node_.self(); }

void ServiceContext::handle(MsgType type, Node::ServerHandler handler) {
  fw_.node_.handle(type, std::move(handler));
}

void ServiceContext::call(const Endpoint& to, MsgType type, Bytes payload,
                          Node::CallCallback cb) {
  call(to, type, std::move(payload), CallOptions{}, std::move(cb));
}

void ServiceContext::call(const Endpoint& to, MsgType type, Bytes payload,
                          CallOptions opts, Node::CallCallback cb) {
  // Time-out discovery and round-trip feedback now live inside Node's call
  // policy; the framework only gates the callback on its own liveness.
  auto* fw = &fw_;
  fw_.node_.call(to, type, std::move(payload), std::move(opts),
                 [fw, cb = std::move(cb)](Result<Bytes> r) {
                   if (!fw->running_) return;
                   if (cb) cb(std::move(r));
                 });
}

void ServiceContext::every(Duration period, std::function<void()> fn) {
  fw_.ticks_.push_back({period, std::move(fn), kInvalidTimer});
  if (fw_.running_) fw_.tick_loop(fw_.ticks_.size() - 1);
}

void ServiceContext::after(Duration delay, std::function<void()> fn) {
  auto* fw = &fw_;
  fw_.one_shots_.push_back(fw_.exec_.schedule(delay, [fw, fn = std::move(fn)] {
    if (fw->running_) fn();
  }));
}

void ServiceContext::expose_state(MsgType type,
                                  gossip::SyncClient::StateHandlers handlers) {
  if (!fw_.gossip_enabled_) {
    EW_WARN << "ServiceFramework at " << self().to_string()
            << ": expose_state ignored (no gossip endpoints configured)";
    return;
  }
  fw_.sync_->expose(type, std::move(handlers));
}

ServiceFramework::ServiceFramework(Executor& exec, Transport& transport,
                                   Endpoint self)
    : exec_(exec), node_(exec, transport, std::move(self)) {}

ServiceFramework::ServiceFramework(Executor& exec, Transport& transport,
                                   Endpoint self, std::vector<Endpoint> gossips,
                                   const gossip::ComparatorRegistry& comparators)
    : exec_(exec), node_(exec, transport, std::move(self)) {
  sync_ = std::make_unique<gossip::SyncClient>(node_, comparators,
                                               std::move(gossips));
  gossip_enabled_ = true;
}

ServiceFramework::~ServiceFramework() { stop(); }

void ServiceFramework::install(std::unique_ptr<ServiceModule> module) {
  modules_.push_back(std::move(module));
}

Status ServiceFramework::start() {
  if (running_) return Status(Err::kRejected, "framework already started");
  if (Status s = node_.start(); !s.ok()) return s;
  running_ = true;
  for (auto& m : modules_) {
    EW_DEBUG << node_.self().to_string() << ": attaching module " << m->name();
    m->attach(ctx_);
  }
  // Gossip registration happens after attach so every exposed state type is
  // included in the registration message.
  if (sync_) sync_->start();
  for (std::size_t i = 0; i < ticks_.size(); ++i) {
    if (ticks_[i].timer == kInvalidTimer) tick_loop(i);
  }
  return {};
}

void ServiceFramework::tick_loop(std::size_t slot) {
  Tick& t = ticks_[slot];
  t.timer = exec_.schedule(t.period, [this, slot] {
    if (!running_) return;
    ticks_[slot].fn();
    tick_loop(slot);
  });
}

void ServiceFramework::stop() {
  if (!running_) return;
  running_ = false;
  for (auto& t : ticks_) exec_.cancel(t.timer);
  for (TimerId id : one_shots_) exec_.cancel(id);
  ticks_.clear();
  one_shots_.clear();
  if (sync_) sync_->stop();
  for (auto it = modules_.rbegin(); it != modules_.rend(); ++it) (*it)->detach();
  node_.stop();
}

}  // namespace ew::core
