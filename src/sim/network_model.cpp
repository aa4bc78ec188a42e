#include "sim/network_model.hpp"

#include <algorithm>
#include <cmath>

namespace ew::sim {

namespace {
const std::string kDefaultSite = "wan";
}

void NetworkModel::set_site(const std::string& host, const std::string& site) {
  host_site_[host] = site;
}

const std::string& NetworkModel::site_of(const std::string& host) const {
  auto it = host_site_.find(host);
  return it == host_site_.end() ? kDefaultSite : it->second;
}

std::pair<std::string, std::string> NetworkModel::ordered(std::string a,
                                                          std::string b) {
  if (b < a) std::swap(a, b);
  return {std::move(a), std::move(b)};
}

void NetworkModel::set_base_latency(const std::string& a, const std::string& b,
                                    Duration d) {
  base_[ordered(a, b)] = d;
}

void NetworkModel::set_partitioned(const std::string& a, const std::string& b,
                                   bool cut) {
  auto [x, y] = ordered(a, b);
  const std::string key = x + "|" + y;
  if (cut) {
    cuts_.insert(key);
  } else {
    cuts_.erase(key);
  }
}

bool NetworkModel::partitioned(const std::string& a, const std::string& b) const {
  auto [x, y] = ordered(a, b);
  return cuts_.contains(x + "|" + y);
}

NetworkModel::Delivery NetworkModel::sample(const std::string& from_host,
                                            const std::string& to_host,
                                            std::size_t bytes) {
  const std::string& sa = site_of(from_host);
  const std::string& sb = site_of(to_host);
  Delivery out;
  if (partitioned(sa, sb)) {
    out.deliver = false;
    return out;
  }
  double loss = loss_rate_ + congestion_loss_ * (congestion_ - 1.0);
  loss = std::clamp(loss, 0.0, 0.75);
  if (rng_.chance(loss)) {
    out.deliver = false;
    return out;
  }
  Duration base;
  if (auto it = base_.find(ordered(sa, sb)); it != base_.end()) {
    base = it->second;
  } else {
    base = (sa == sb) ? same_site_ : cross_site_;
  }
  double latency = static_cast<double>(base) * congestion_;
  if (sa != sb && bandwidth_ > 0) {
    latency += static_cast<double>(bytes) / bandwidth_ * congestion_ *
               static_cast<double>(kSecond);
  }
  // Multiplicative lognormal jitter centred on 1. Congestion widens the
  // tail super-linearly (queueing delay explodes near saturation), not just
  // the mean — this is what makes statically chosen time-outs misjudge
  // server availability during the spike (Section 2.2).
  latency *= rng_.lognormal(0.0, jitter_sigma_ * congestion_);
  out.latency = std::max<Duration>(static_cast<Duration>(latency), 1);
  return out;
}

}  // namespace ew::sim
