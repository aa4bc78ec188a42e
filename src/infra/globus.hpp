// Globus adapter: GRAM + GASS + MDS (paper Section 5.2, Figure 5).
//
// The paper's "light switch": a single point of control that activates the
// Globus side of the application. We implement the three services as real
// protocol actors on a stable control host:
//   * MDS  (kMdsQuery)  — directory: where the gatekeeper and GASS are, and
//     how many nodes are free ("crude, but effective, resource discovery"),
//   * GRAM (kGramAuth / kGramSubmit) — the gatekeeper: a lightweight
//     authenticate-only operation, then remote process invocation,
//   * GASS (kGassFetch) — the binary repository; the gatekeeper is used as a
//     "grappling hook", automatically staging the right executable image.
//
// Until a kGramSubmit arrives, Globus hosts idle — flipping the switch is
// the application's job (src/app/light_switch.hpp, wired into the scenario
// assembly and exercised directly in tests/test_infra.cpp). After submission, every host that comes up is staged (first
// launch pays the GASS transfer for its binary) and started.
#pragma once

#include <optional>

#include "core/protocol.hpp"
#include "infra/pool.hpp"
#include "net/node.hpp"

namespace ew::infra {

class GlobusAdapter final : public InfraAdapter {
 public:
  struct Config {
    std::string control_host = "globus-control";
    std::string control_site = "globus";
    std::size_t binary_size = 256 * 1024;  // bytes staged per architecture
    Duration gram_overhead = 20 * kSecond;  // submission->running latency
  };

  GlobusAdapter(sim::EventQueue& events, sim::SimTransport& transport,
                sim::NetworkModel& network, std::uint64_t seed,
                PoolProfile profile, Config config);

  void start(ClientFactory factory) override;
  void stop() override;

  [[nodiscard]] Endpoint mds_endpoint() const { return mds_->self(); }
  [[nodiscard]] Endpoint gram_endpoint() const { return gram_->self(); }
  [[nodiscard]] Endpoint gass_endpoint() const { return gass_->self(); }
  [[nodiscard]] bool switched_on() const { return switched_on_; }
  [[nodiscard]] std::uint64_t gass_fetches() const { return gass_fetches_; }

 private:
  void on_mds_query(const Responder& resp);
  void on_submit(const IncomingMessage& msg, const Responder& resp);
  void stage_and_launch(std::size_t i);

  Config config_;
  std::optional<Node> mds_;
  std::optional<Node> gram_;
  std::optional<Node> gass_;
  bool switched_on_ = false;
  bool binary_cached_ = false;
  bool staging_in_flight_ = false;
  std::vector<std::size_t> awaiting_stage_;  // hosts queued behind the fetch
  std::uint64_t gass_fetches_ = 0;
  bool running_ = false;
};

}  // namespace ew::infra
