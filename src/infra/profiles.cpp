#include "infra/profiles.hpp"

namespace ew::infra {

PoolProfile default_profile(core::Infra kind) {
  PoolProfile p;
  p.infra = kind;
  switch (kind) {
    case core::Infra::kUnix:
      // A handful of big time-shared servers and MPP front-ends (the Tera
      // MTA and parallel supercomputers enter as the lognormal's fat tail).
      // No launch ceremony beyond a remote shell (Section 5.1); the Unix
      // engineering (select()-based time-outs, no signals, threads or fork)
      // lives in src/net, where every other infrastructure inherits it.
      p.site = "npaci";
      p.host_prefix = "unix";
      p.host_count = 15;
      p.rate_median = 2.0e7;
      p.rate_sigma = 0.9;
      p.load = {.mu = 0.6, .theta = 0.15, .sigma = 0.12, .lo = 0.05, .hi = 1.0};
      p.churn = {.mean_up = 6 * kHour, .mean_down = 8 * kMinute, .up_sigma = 0.8};
      p.relaunch_delay = 20 * kSecond;
      p.initially_up = 0.95;
      break;
    case core::Infra::kGlobus:
      // Batch-scheduled MPP partitions behind GRAM gatekeepers: nodes are
      // dedicated while held, allocations last hours.
      p.site = "globus";
      p.host_prefix = "globus";
      p.host_count = 26;
      p.rate_median = 1.1e7;
      p.rate_sigma = 0.5;
      p.load = {.mu = 0.92, .theta = 0.3, .sigma = 0.04, .lo = 0.3, .hi = 1.0};
      p.churn = {.mean_up = 3 * kHour, .mean_down = 25 * kMinute, .up_sigma = 0.7};
      p.relaunch_delay = 45 * kSecond;  // GRAM submission overhead
      p.initially_up = 0.85;
      break;
    case core::Infra::kLegion:
      p.site = "legion";
      p.host_prefix = "legion";
      p.host_count = 30;
      p.rate_median = 7.5e6;
      p.rate_sigma = 0.5;
      p.load = {.mu = 0.7, .theta = 0.2, .sigma = 0.1, .lo = 0.05, .hi = 1.0};
      p.churn = {.mean_up = 2 * kHour, .mean_down = 15 * kMinute, .up_sigma = 0.9};
      p.relaunch_delay = 30 * kSecond;
      p.initially_up = 0.85;
      break;
    case core::Infra::kCondor:
      // The big federated workstation pool: many hosts, owner reclamation
      // at any moment, quick re-placement of evicted guests. "In the vanilla
      // universe, guest jobs are terminated without warning when a resource
      // is reclaimed by its owner" (Section 5.4): no checkpoint, recovery
      // happens above through Gossip state and work-unit reissue.
      p.site = "condor";
      p.host_prefix = "condor";
      p.host_count = 110;
      p.rate_median = 1.15e7;
      p.rate_sigma = 0.45;
      p.load = {.mu = 0.95, .theta = 0.3, .sigma = 0.04, .lo = 0.3, .hi = 1.0};
      p.churn = {.mean_up = 50 * kMinute, .mean_down = 18 * kMinute, .up_sigma = 1.0};
      p.relaunch_delay = 15 * kSecond;
      p.initially_up = 0.7;
      break;
    case core::Infra::kNT:
      // The NCSA/UCSD NT Superclusters under LSF: fast dedicated nodes,
      // allocations in batch-sized slabs.
      p.site = "ncsa";
      p.host_prefix = "nt";
      p.host_count = 72;
      p.rate_median = 1.25e7;
      p.rate_sigma = 0.25;
      p.load = {.mu = 0.97, .theta = 0.3, .sigma = 0.02, .lo = 0.5, .hi = 1.0};
      p.churn = {.mean_up = 100 * kMinute, .mean_down = 30 * kMinute, .up_sigma = 0.6};
      p.relaunch_delay = 25 * kSecond;
      p.initially_up = 0.8;
      break;
    case core::Infra::kJava:
      // Browser applets: rates fixed by Section 5.6's measurements, short
      // user sessions, frequent arrivals.
      p.site = "wan";
      p.host_prefix = "java";
      p.host_count = 12;
      p.rate_fn = [](int index, Rng& rng) {
        // ~2/3 of SC98-era browsers had a JIT; the rest interpret.
        const bool jit = (index % 3) != 2;
        return (jit ? kJavaJitOpsPerSec : kJavaInterpretedOpsPerSec) *
               rng.uniform(0.9, 1.1);
      };
      p.load = {.mu = 0.5, .theta = 0.2, .sigma = 0.15, .lo = 0.05, .hi = 1.0};
      p.churn = {.mean_up = 25 * kMinute, .mean_down = 20 * kMinute, .up_sigma = 1.1};
      p.relaunch_delay = 5 * kSecond;  // applet download
      p.initially_up = 0.6;
      break;
    case core::Infra::kNetSolve:
      p.site = "utk";
      p.host_prefix = "netsolve";
      p.host_count = 3;
      p.rate_median = 1.4e6;
      p.rate_sigma = 0.3;
      p.load = {.mu = 0.7, .theta = 0.2, .sigma = 0.08, .lo = 0.1, .hi = 1.0};
      p.churn = {.mean_up = 5 * kHour, .mean_down = 20 * kMinute, .up_sigma = 0.6};
      p.relaunch_delay = 20 * kSecond;
      p.initially_up = 0.9;
      break;
  }
  return p;
}

}  // namespace ew::infra
