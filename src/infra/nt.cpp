#include "infra/nt.hpp"

namespace ew::infra {

NTAdapter::NTAdapter(sim::EventQueue& events, sim::SimTransport& transport,
                     sim::NetworkModel& network, std::uint64_t seed,
                     PoolProfile profile, Quirks quirks)
    : InfraAdapter(events, transport, network, seed, std::move(profile)),
      quirks_(quirks),
      rng_(seed ^ 0x15f) {
  pool_.set_launch_hook([this](std::size_t i) { launch(i); });
}

void NTAdapter::launch(std::size_t i) {
  events_.schedule(pool_.profile().relaunch_delay, [this, i] {
    if (!pool_.hosts()[i]->up()) return;
    pool_.run_client(i);
    if (quirks_.client_sleep_max <= quirks_.lsf_kill_threshold) return;
    // The client sleeps a randomized interval before soliciting work; if it
    // stays idle past the threshold, LSF reclaims the processor.
    const auto sleep = static_cast<Duration>(
        rng_.below(static_cast<std::uint64_t>(quirks_.client_sleep_max)));
    if (sleep <= quirks_.lsf_kill_threshold) return;
    events_.schedule(quirks_.lsf_kill_threshold, [this, i] {
      if (!pool_.client_running(i) || !pool_.hosts()[i]->up()) return;
      pool_.kill_client(i);
      ++lsf_kills_;
      launch(i);  // LSF re-dispatches; the herd thunders again
    });
  });
}

}  // namespace ew::infra
