// Dynamic benchmarking and time-out discovery (paper Section 2.2).
//
// Replays a synthetic server response-time trace with a load spike in the
// middle (the SCINet reconfiguration) through the forecasting battery, and
// shows the adaptive time-out tracking the regime change while a static
// time-out first wastes time (too long) and then misfires (too short).
#include <cstdio>

#include "common/rng.hpp"
#include "forecast/timeout.hpp"

using namespace ew;

int main() {
  Rng rng(7);
  AdaptiveTimeout adaptive;
  StaticTimeout fixed(1 * kSecond);
  const EventTag tag{Endpoint{"state-server", 601}, 0x0202};

  std::printf("%-6s %-12s %-12s %-12s %-8s %-8s\n", "req#", "rtt(ms)",
              "adaptive(ms)", "static(ms)", "a-fail", "s-fail");
  int adaptive_failures = 0;
  int static_failures = 0;
  for (int i = 0; i < 400; ++i) {
    // Baseline ~120 ms RTT; requests 150-299 happen during the spike where
    // the median jumps to ~900 ms with heavy tails.
    const bool spike = i >= 150 && i < 300;
    const double base = spike ? 900.0 : 120.0;
    const double rtt_ms = base * rng.lognormal(0.0, spike ? 0.6 : 0.25);
    const Duration rtt = static_cast<Duration>(rtt_ms * kMillisecond);

    const Duration a_timeout = adaptive.timeout(tag);
    const Duration s_timeout = fixed.timeout(tag);
    const bool a_ok = rtt <= a_timeout;
    const bool s_ok = rtt <= s_timeout;
    adaptive_failures += a_ok ? 0 : 1;
    static_failures += s_ok ? 0 : 1;
    adaptive.on_result(tag, rtt, a_ok);
    // The static policy learns nothing, per its nature.

    if (i % 25 == 0 || i == 150 || i == 300) {
      std::printf("%-6d %-12.1f %-12.1f %-12.1f %-8d %-8d%s\n", i, rtt_ms,
                  to_seconds(a_timeout) * 1e3, to_seconds(s_timeout) * 1e3,
                  adaptive_failures, static_failures, spike ? "  <-- spike" : "");
    }
  }
  std::printf("\nspurious time-outs: adaptive=%d static=%d\n", adaptive_failures,
              static_failures);
  std::printf("(the paper: static time-outs 'frequently misjudged the "
              "availability' of servers,\n causing 'needless retries and "
              "dynamic reconfigurations')\n");
  return adaptive_failures < static_failures ? 0 : 1;
}
