// Default pool profiles per infrastructure, calibrated against the SC98
// deployment (paper Figures 3-4). A profile is all that sets Unix, Java and
// Condor apart: each runs as a plain InfraAdapter (pool.hpp) over it.
//
// Host counts follow Figure 3b (Condor ~110 hosts, NT ~70, Legion ~30,
// Globus ~25, Unix ~15, Java ~12, NetSolve ~3); per-host rates are set so
// the per-infrastructure delivered-performance curves peak near Figure 3a's
// levels (Condor ~0.9 Gops/s, NT ~0.7, Unix ~0.35, Globus ~0.25, Legion
// ~0.2, Java ~2e7, NetSolve ~3e6; total ~2.4 Gops/s). Churn parameters are
// chosen per infrastructure character: Condor workstations are reclaimed by
// owners frequently (each reclamation kills the guest: HostPool::evictions
// counts them), batch gangs hold nodes for hours, Java browser sessions
// are minutes long, NetSolve/Unix servers are stable.
#pragma once

#include "infra/pool.hpp"

namespace ew::infra {

/// The Java applet's measured rates on a 300 MHz Pentium II (Section 5.6):
/// JIT-compiled and interpreted integer ops per second.
inline constexpr double kJavaJitOpsPerSec = 12'109'720.0;
inline constexpr double kJavaInterpretedOpsPerSec = 111'616.0;

PoolProfile default_profile(core::Infra kind);

}  // namespace ew::infra
