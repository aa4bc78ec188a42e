#include "nws/nws.hpp"

#include "common/log.hpp"

namespace ew::nws {

void NwsStationModule::record(const std::string& resource, double value) {
  auto it = series_.find(resource);
  if (it == series_.end()) {
    if (series_.size() >= opts_.max_resources) {
      EW_WARN << "NWS station: resource cap reached, dropping " << resource;
      return;
    }
    it = series_.emplace(resource, AdaptiveForecaster::nws_default()).first;
  }
  it->second.observe(value);
}

Forecast NwsStationModule::forecast(const std::string& resource) const {
  auto it = series_.find(resource);
  if (it == series_.end()) return Forecast{};
  return it->second.forecast();
}

void NwsStationModule::probe_peer(const Endpoint& peer) {
  const TimePoint t0 = ctx_->now();
  ctx_->call(peer, msgtype::kNwsProbe, {}, [this, peer, t0](Result<Bytes> r) {
    if (!r.ok()) return;  // unreachable peers simply yield no sample
    ++probes_;
    record("latency:" + peer.to_string(),
           static_cast<double>(ctx_->now() - t0));
  });
}

void NwsStationModule::attach(core::ServiceContext& ctx) {
  ctx_ = &ctx;
  ctx.handle(msgtype::kNwsProbe,
             [](const IncomingMessage&, Responder r) { r.ok(); });
  ctx.handle(msgtype::kNwsReport, [this](const IncomingMessage& m, Responder r) {
    auto meas = NwsMeasurement::deserialize(m.packet.payload);
    if (!meas) {
      r.fail(Err::kProtocol, meas.error().message);
      return;
    }
    record(meas->resource, meas->value);
    r.ok();
  });
  ctx.handle(msgtype::kNwsQuery, [this](const IncomingMessage& m, Responder r) {
    Reader rd(m.packet.payload);
    auto resource = rd.str();
    if (!resource) {
      r.fail(Err::kProtocol, "missing resource name");
      return;
    }
    const Forecast f = forecast(*resource);
    if (f.samples == 0) {
      r.fail(Err::kRejected, "no measurements for " + *resource);
      return;
    }
    NwsForecastReply reply;
    reply.value = f.value;
    reply.error = f.error;
    reply.samples = f.samples;
    reply.method = std::string(f.method);
    r.ok(reply.serialize());
  });
  ctx.every(opts_.probe_period, [this] {
    for (const auto& peer : opts_.peers) {
      if (peer != ctx_->self()) probe_peer(peer);
    }
  });
}

void NwsCpuSensor::attach(core::ServiceContext& ctx) {
  auto* opts = &opts_;
  ctx.every(opts_.period, [&ctx, opts] {
    if (!opts->read) return;
    NwsMeasurement m;
    m.resource = opts->resource;
    m.value = opts->read();
    ctx.call(opts->station, msgtype::kNwsReport, m.serialize(),
             [](Result<Bytes>) {});
  });
}

}  // namespace ew::nws
