#include "sim/event_queue.hpp"

#include <stdexcept>
#include <utility>

namespace ew::sim {

TimerId EventQueue::schedule(Duration delay, std::function<void()> fn) {
  return timers_.add(clock_.now(), delay, std::move(fn), schedule_label_);
}

void EventQueue::cancel(TimerId id) { timers_.cancel(id); }

std::uint32_t EventQueue::label_id(const std::string& label) {
  if (label.empty()) return 0;
  auto [it, inserted] =
      label_ids_.try_emplace(label, static_cast<std::uint32_t>(labels_.size()));
  if (inserted) labels_.push_back(label);
  return it->second;
}

void EventQueue::fire(Timers::Timer ev) {
  clock_.set(ev.at);
  ++executed_;
  // Label inheritance: everything the closure schedules belongs to the same
  // host the firing event acted on (unless a nested LabelScope overrides).
  const std::uint32_t prev = schedule_label_;
  schedule_label_ = ev.tag;
  ev.fn();
  schedule_label_ = prev;
}

bool EventQueue::step() {
  if (timers_.empty()) return false;
  fire(timers_.pop());
  return true;
}

std::vector<EventQueue::EligibleEvent> EventQueue::eligible() const {
  std::vector<EligibleEvent> out;
  timers_.for_each_earliest([&](TimerId id, TimePoint at, std::uint32_t label) {
    out.push_back({id, at, labels_[label]});
  });
  return out;
}

bool EventQueue::step_event(TimerId id) {
  const std::optional<TimePoint> at = timers_.deadline(id);
  // Not pending, or not at the earliest pending timestamp: not eligible.
  if (!at || *at != timers_.next_at()) return false;
  fire(*timers_.take(id));
  return true;
}

std::size_t EventQueue::run_until_idle(std::size_t limit) {
  std::size_t n = 0;
  while (n < limit && step()) ++n;
  if (n == limit && !timers_.empty()) {
    throw std::runtime_error("EventQueue: event limit hit (livelock?)");
  }
  return n;
}

std::size_t EventQueue::run_until(TimePoint t) {
  std::size_t n = 0;
  while (!timers_.empty() && timers_.next_at() <= t) {
    step();
    ++n;
  }
  if (clock_.now() < t) clock_.set(t);
  return n;
}

}  // namespace ew::sim
