// Section 5.6: "during SC98, an interpreted version of the applet on a
// 300 Mhz Pentium II performed 111,616 integer operations per second on
// average; a JIT-compiled version performed 12,109,720 integer operations
// per second on average."
//
// This bench (1) reports the two modelled tiers and their ratio, (2) runs
// the REAL Ramsey kernel on this machine to calibrate what "one integer op"
// costs natively, and (3) simulates an hour of contribution from one applet
// of each tier to show what the browsers were worth to the application.
#include <chrono>

#include "bench/bench_util.hpp"
#include "infra/profiles.hpp"
#include "ramsey/heuristic.hpp"

using namespace ew;
using namespace ew::bench;

int main() {
  std::printf("=== Section 5.6: Java interpreted vs JIT ===\n\n");

  const double interp = infra::kJavaInterpretedOpsPerSec;
  const double jit = infra::kJavaJitOpsPerSec;
  print_shape_check("interpreted ops/s", interp, 111'616.0);
  print_shape_check("JIT ops/s", jit, 12'109'720.0);
  print_shape_check("JIT/interpreted ratio", jit / interp, 108.49);

  // Native calibration: run the real annealer kernel and measure the
  // instrumented op rate on this machine.
  ramsey::HeuristicParams p;
  p.n = 17;
  p.k = 4;
  p.seed = 5;
  auto h = ramsey::make_heuristic(ramsey::HeuristicKind::kAnneal, p);
  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t ops = 0;
  while (std::chrono::steady_clock::now() - t0 < std::chrono::seconds(2)) {
    ops += h->run(10'000'000).ops_used;
  }
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  const double native = static_cast<double>(ops) / secs;
  std::printf("\nnative kernel rate on this machine: %.3e instrumented ops/s\n",
              native);
  std::printf("  -> one 1998 JIT browser ~ %.4fx this machine\n", jit / native);
  std::printf("  -> one 1998 interpreter ~ %.6fx this machine\n", interp / native);

  // One hour of applet contribution per tier (what Figure 3a's Java series
  // is made of).
  std::printf("\none hour of contribution per applet:\n");
  std::printf("  JIT browser:  %.3e ops (%.2f work units of 5e7 ops)\n",
              jit * 3600, jit * 3600 / 5e7);
  std::printf("  interpreter:  %.3e ops (%.2f work units of 5e7 ops)\n",
              interp * 3600, interp * 3600 / 5e7);
  std::printf("\n(the paper: 'Even though the JIT-compiled version is still "
              "slower than many of the\n other hosts ... as Java improves in "
              "performance, it will be a practical and\n important gateway to "
              "the use of idle cycles.')\n");

  const bool ok = std::abs(jit / interp - 108.49) < 2.0;
  std::printf("section-5.6 numbers: %s\n", ok ? "REPRODUCED" : "MISMATCH");
  return ok ? 0 : 1;
}
