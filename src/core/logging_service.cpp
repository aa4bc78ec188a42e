#include "core/logging_service.hpp"

namespace ew::core {

void LoggingServer::start() {
  if (running_) return;
  running_ = true;
  node_.handle(msgtype::kLogRecord,
               [this](const IncomingMessage& m, Responder r) {
                 on_record(m);
                 r.ok();  // records usually arrive one-way; ok() is a no-op then
               });
}

void LoggingServer::stop() { running_ = false; }

std::uint64_t LoggingServer::total_ops() const {
  std::uint64_t sum = 0;
  for (auto v : totals_) sum += v;
  return sum;
}

void LoggingServer::on_record(const IncomingMessage& msg) {
  auto rec = LogRecord::deserialize(msg.packet.payload);
  if (!rec) {
    ++malformed_;
    return;
  }
  ++received_;
  totals_[static_cast<std::size_t>(rec->infra)] += rec->ops;
  recent_.push_back(*rec);
  while (recent_.size() > opts_.retain_records) recent_.pop_front();
  if (sink_) sink_(*rec);
}

}  // namespace ew::core
