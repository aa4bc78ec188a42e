// A miniature Network Weather Service (paper Figure 1, Sections 2.2, 3.1).
//
// "To anticipate load changes, the various application components consult
// the Network Weather Service (NWS) — a distributed dynamic performance
// forecasting service for Computational Grids."
//
// The toolkit already embeds the NWS *forecasting* subsystem as a library
// (selector.hpp — exactly what the paper did for EveryWare). This module is
// the NWS *service*: monitoring stations that actively measure resources and
// answer forecast queries over the lingua franca.
//
//   * NwsStationModule — a ServiceFramework control module. Each station
//     periodically probes its peer stations (kNwsProbe round-trips measure
//     network responsiveness between sites) and accepts pushed measurements
//     from local sensors (kNwsReport, e.g. host CPU availability). Every
//     measurement stream gets the full adaptive forecaster battery.
//   * Clients query any station (kNwsQuery with a resource name) and get
//     {forecast value, expected error, samples} back.
#pragma once

#include <map>

#include "common/wire.hpp"
#include "core/service_framework.hpp"
#include "forecast/selector.hpp"

namespace ew::nws {

namespace msgtype {
constexpr MsgType kNwsProbe = 0x0270;   // station <-> station latency probe
constexpr MsgType kNwsReport = 0x0271;  // sensor -> station measurement push
constexpr MsgType kNwsQuery = 0x0272;   // client -> station forecast query
}  // namespace msgtype

/// Wire form of a measurement push: resource name + value.
struct NwsMeasurement {
  std::string resource;
  double value = 0.0;

  template <class Ar>
  void fields(Ar& ar) {
    ar(resource, value);
  }
  [[nodiscard]] Bytes serialize() const { return wire::encode(*this); }
  static Result<NwsMeasurement> deserialize(const Bytes& data) {
    return wire::decode<NwsMeasurement>(data);
  }
};

/// Wire form of a query response.
struct NwsForecastReply {
  double value = 0.0;
  double error = 0.0;
  std::uint64_t samples = 0;
  std::string method;

  template <class Ar>
  void fields(Ar& ar) {
    ar(value, error, samples, method);
  }
  [[nodiscard]] Bytes serialize() const { return wire::encode(*this); }
  static Result<NwsForecastReply> deserialize(const Bytes& data) {
    return wire::decode<NwsForecastReply>(data);
  }
};

class NwsStationModule final : public core::ServiceModule {
 public:
  struct Options {
    std::vector<Endpoint> peers;             // other stations to probe
    Duration probe_period = 30 * kSecond;    // per-peer probe cadence
    std::size_t max_resources = 10'000;      // bounded memory
  };

  explicit NwsStationModule(Options opts) : opts_(std::move(opts)) {}

  [[nodiscard]] const char* name() const override { return "nws-station"; }
  void attach(core::ServiceContext& ctx) override;

  /// Local measurement injection (same path as kNwsReport).
  void record(const std::string& resource, double value);

  /// Resource names: "latency:<peer endpoint>" for probe streams; sensor
  /// pushes use whatever name the sensor chose (e.g. "cpu:host-3").
  [[nodiscard]] Forecast forecast(const std::string& resource) const;
  [[nodiscard]] std::size_t tracked_resources() const { return series_.size(); }
  [[nodiscard]] std::uint64_t probes_completed() const { return probes_; }

 private:
  void probe_peer(const Endpoint& peer);

  Options opts_;
  core::ServiceContext* ctx_ = nullptr;
  std::map<std::string, AdaptiveForecaster> series_;
  std::uint64_t probes_ = 0;
};

/// A CPU sensor for simulated hosts: periodically pushes the host's current
/// availability fraction to a station. (On a real deployment this would read
/// /proc; the sensor interface is the point.)
class NwsCpuSensor final : public core::ServiceModule {
 public:
  struct Options {
    Endpoint station;
    std::string resource;                    // e.g. "cpu:condor-17"
    std::function<double()> read;            // current measurement
    Duration period = 30 * kSecond;
  };

  explicit NwsCpuSensor(Options opts) : opts_(std::move(opts)) {}
  [[nodiscard]] const char* name() const override { return "nws-cpu-sensor"; }
  void attach(core::ServiceContext& ctx) override;

 private:
  Options opts_;
};

}  // namespace ew::nws
