#include "infra/host.hpp"

namespace ew::infra {

SimHost::SimHost(sim::EventQueue& events, sim::SimTransport& transport,
                 HostSpec spec, sim::Ar1Process::Params load,
                 sim::DurationSampler::Params churn, std::uint64_t seed)
    : events_(events),
      transport_(transport),
      spec_(std::move(spec)),
      load_(load, Rng(seed ^ 0x10ad), load.mu),
      churn_(churn, Rng(seed ^ 0xc402)),
      rng_(seed) {}

void SimHost::start(bool initially_up) {
  running_ = true;
  transport_.set_host_up(spec_.name, false);
  if (initially_up) {
    // Stagger initial up events a little so fleets do not move in lockstep.
    events_.schedule(static_cast<Duration>(rng_.below(30 * kSecond)),
                     [this] { if (running_) go_up(); });
  } else {
    transition_timer_ = events_.schedule(churn_.next_down(),
                                         [this] { if (running_) go_up(); });
  }
}

void SimHost::shutdown() {
  running_ = false;
  events_.cancel(transition_timer_);
  if (up_) {
    up_ = false;
    transport_.set_host_up(spec_.name, false);
    if (on_down_) on_down_();
  }
}

double SimHost::current_rate() const {
  if (!up_) return 0.0;
  return spec_.ops_per_sec * load_.value();
}

void SimHost::go_up() {
  if (up_) return;
  up_ = true;
  ++up_transitions_;
  transport_.set_host_up(spec_.name, true);
  transition_timer_ = events_.schedule(churn_.next_up(), [this] {
    if (running_) go_down(0);
  });
  if (on_up_) on_up_();
}

void SimHost::go_down(Duration extra_down) {
  if (!up_) return;
  up_ = false;
  transport_.set_host_up(spec_.name, false);
  events_.cancel(transition_timer_);
  transition_timer_ = events_.schedule(churn_.next_down() + extra_down, [this] {
    if (running_) go_up();
  });
  if (on_down_) on_down_();
}

void SimHost::force_down(Duration at_least) {
  if (!up_) return;
  go_down(at_least);
}

}  // namespace ew::infra
