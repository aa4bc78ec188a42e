// Network model for the simulated Grid.
//
// Stands in for SC98's wide-area links and the SCINet show-floor network the
// paper describes being "reconfigured on-the-fly to handle increased demand"
// (Section 2.2). Hosts belong to sites; site pairs have base latency and
// bandwidth; a global congestion factor plus per-message lognormal jitter
// produce the fluctuating response times the forecasting layer must track;
// partitions cut site pairs entirely (exercising the clique protocol's
// subclique/merge behaviour).
#pragma once

#include <string>
#include <unordered_map>
#include <unordered_set>

#include "common/clock.hpp"
#include "common/rng.hpp"
#include "net/endpoint.hpp"

namespace ew::sim {

class NetworkModel {
 public:
  explicit NetworkModel(Rng rng) : rng_(rng) {}

  /// Assign a host name to a site. Unassigned hosts live on site "wan".
  void set_site(const std::string& host, const std::string& site);
  [[nodiscard]] const std::string& site_of(const std::string& host) const;

  /// Base one-way latency between two sites (order-insensitive).
  void set_base_latency(const std::string& a, const std::string& b, Duration d);
  /// Defaults when no explicit pair latency is set.
  void set_default_latencies(Duration same_site, Duration cross_site) {
    same_site_ = same_site;
    cross_site_ = cross_site;
  }

  /// Global congestion multiplier (>= 1) applied to latency; the judging-time
  /// spike of Figure 2 is produced by raising this.
  void set_congestion(double factor) { congestion_ = factor < 1.0 ? 1.0 : factor; }
  [[nodiscard]] double congestion() const { return congestion_; }

  /// Baseline probability that any message is silently lost.
  void set_loss_rate(double p) { loss_rate_ = p; }
  /// Extra loss added while congested (scaled by congestion - 1).
  void set_congestion_loss(double p) { congestion_loss_ = p; }

  /// Lognormal jitter sigma applied multiplicatively to each latency sample.
  void set_jitter_sigma(double sigma) { jitter_sigma_ = sigma; }

  /// Cut / restore connectivity between two sites (both directions).
  void set_partitioned(const std::string& a, const std::string& b, bool cut);
  [[nodiscard]] bool partitioned(const std::string& a, const std::string& b) const;

  /// Effective per-byte transfer cost (cross-site only); models bandwidth.
  void set_cross_site_bandwidth(double bytes_per_sec) { bandwidth_ = bytes_per_sec; }

  /// Outcome of attempting one message delivery.
  struct Delivery {
    bool deliver = true;
    Duration latency = 0;
  };
  /// Sample a delivery between two hosts for a message of `bytes` size.
  Delivery sample(const std::string& from_host, const std::string& to_host,
                  std::size_t bytes);

 private:
  struct PairHash {
    std::size_t operator()(const std::pair<std::string, std::string>& p) const {
      return std::hash<std::string>{}(p.first) * 1000003u ^
             std::hash<std::string>{}(p.second);
    }
  };
  static std::pair<std::string, std::string> ordered(std::string a, std::string b);

  Rng rng_;
  std::unordered_map<std::string, std::string> host_site_;
  std::unordered_map<std::pair<std::string, std::string>, Duration, PairHash> base_;
  std::unordered_set<std::string> cuts_;  // "a|b" ordered keys
  Duration same_site_ = 1 * kMillisecond;
  Duration cross_site_ = 40 * kMillisecond;
  double congestion_ = 1.0;
  double loss_rate_ = 0.001;
  double congestion_loss_ = 0.02;
  double jitter_sigma_ = 0.25;
  double bandwidth_ = 2.0e6;  // bytes/sec cross-site
};

}  // namespace ew::sim
