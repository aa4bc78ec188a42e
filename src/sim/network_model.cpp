#include "sim/network_model.hpp"

#include <algorithm>
#include <cmath>

namespace ew::sim {

NetworkModel::NetworkModel(Rng rng) : rng_(rng) { site("wan"); }

NetworkModel::SiteId NetworkModel::site(const std::string& name) {
  auto [it, inserted] =
      site_ids_.try_emplace(name, static_cast<SiteId>(site_names_.size()));
  if (!inserted) return it->second;
  site_names_.push_back(name);
  const std::size_t n = site_names_.size();
  if (n > stride_) {
    // Re-lay the table at twice the row length; every pair keeps its cell.
    const std::size_t stride = std::max<std::size_t>(8, 2 * stride_);
    std::vector<Link> links(stride * stride);
    for (std::size_t a = 0; a + 1 < n; ++a) {
      std::copy_n(links_.begin() + static_cast<std::ptrdiff_t>(a * stride_), n - 1,
                  links.begin() + static_cast<std::ptrdiff_t>(a * stride));
    }
    links_.swap(links);
    stride_ = stride;
  }
  return it->second;
}

NetworkModel::SiteId NetworkModel::find_site(const std::string& name) const {
  auto it = site_ids_.find(name);
  return it == site_ids_.end() ? kNoSite : it->second;
}

NetworkModel::SiteId NetworkModel::site_of_host(const std::string& host) const {
  auto it = host_ids_.find(host);
  return it == host_ids_.end() ? 0 : host_site_[it->second];
}

NetworkModel::HostId NetworkModel::host(const std::string& name) {
  auto [it, inserted] =
      host_ids_.try_emplace(name, static_cast<HostId>(host_site_.size()));
  if (inserted) host_site_.push_back(0);
  return it->second;
}

void NetworkModel::set_site(const std::string& host_name, const std::string& site_name) {
  const SiteId s = site(site_name);
  host_site_[host(host_name)] = s;
}

const std::string& NetworkModel::site_of(const std::string& host_name) const {
  return site_names_[site_of_host(host_name)];
}

void NetworkModel::set_base_latency(const std::string& a, const std::string& b,
                                    Duration d) {
  const SiteId x = site(a);
  const SiteId y = site(b);
  set_link(x, y, [d](Link& l) {
    l.base = d;
    l.has_base = true;
  });
}

void NetworkModel::set_partitioned(const std::string& a, const std::string& b,
                                   bool cut) {
  const SiteId x = site(a);
  const SiteId y = site(b);
  set_link(x, y, [cut](Link& l) { l.cut = cut; });
}

bool NetworkModel::partitioned(const std::string& a, const std::string& b) const {
  const SiteId x = find_site(a);
  const SiteId y = find_site(b);
  if (x == kNoSite || y == kNoSite) return false;
  return links_[x * stride_ + y].cut;
}

NetworkModel::Delivery NetworkModel::sample(const std::string& from_host,
                                            const std::string& to_host,
                                            std::size_t bytes) {
  return sample_sites(site_of_host(from_host), site_of_host(to_host), bytes);
}

NetworkModel::Delivery NetworkModel::sample_sites(SiteId sa, SiteId sb,
                                                  std::size_t bytes) {
  const Link& link = links_[sa * stride_ + sb];
  Delivery out;
  if (link.cut) {
    out.deliver = false;
    return out;
  }
  double loss = loss_rate_ + congestion_loss_ * (congestion_ - 1.0);
  loss = std::clamp(loss, 0.0, 0.75);
  if (rng_.chance(loss)) {
    out.deliver = false;
    return out;
  }
  const Duration base = link.has_base ? link.base
                        : sa == sb    ? same_site_
                                      : cross_site_;
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
