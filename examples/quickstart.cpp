// Quickstart: the EveryWare toolkit end-to-end in one process.
//
// Builds the smallest complete Grid application: a scheduling server, a
// logging server, a persistent state manager with the Ramsey sanity check,
// and four computational clients running the REAL search heuristics on
// K_17 / K_4 — the R(4,4) problem, whose unique counter-example (the Paley
// graph of order 17) the heuristics find in seconds. Everything runs on the
// deterministic simulated transport over a quiet network (no loss, no
// jitter, zero latency); swap in TcpTransport + Reactor and the same
// components run across machines (see examples/gossip_cluster.cpp).
#include <cstdio>

#include "core/client.hpp"
#include "core/logging_service.hpp"
#include "core/persistent_state.hpp"
#include "core/scheduler.hpp"
#include "ramsey/clique.hpp"
#include "sim/event_queue.hpp"
#include "sim/network_model.hpp"
#include "sim/sim_transport.hpp"

using namespace ew;

int main() {
  sim::EventQueue events;
  sim::NetworkModel net(Rng(1));
  net.set_loss_rate(0.0);
  net.set_jitter_sigma(0.0);
  net.set_default_latencies(0, 0);
  sim::SimTransport transport(events, net);

  // --- Services -----------------------------------------------------------
  Node sched_node(events, transport, Endpoint{"scheduler", 601});
  Node log_node(events, transport, Endpoint{"logger", 401});
  Node state_node(events, transport, Endpoint{"state", 402});
  sched_node.start();
  log_node.start();
  state_node.start();

  core::LoggingServer logging(log_node);
  logging.start();

  core::PersistentStateManager state(state_node);
  state.register_validator("ramsey/best/",
                           core::PersistentStateManager::ramsey_validator());
  state.start();

  core::SchedulerServer::Options sched_opts;
  sched_opts.logging = log_node.self();
  sched_opts.state_manager = state_node.self();
  sched_opts.pool.n = 17;  // R(4,4) = 18: a counter-example on 17 vertices exists
  sched_opts.pool.k = 4;
  sched_opts.pool.report_ops = 20'000'000;
  core::SchedulerServer scheduler(sched_node, sched_opts);
  scheduler.start();

  // --- Clients (real heuristics, real integer ops) -------------------------
  std::vector<std::unique_ptr<Node>> client_nodes;
  std::vector<std::unique_ptr<core::RamseyClient>> clients;
  for (int i = 0; i < 4; ++i) {
    auto node = std::make_unique<Node>(
        events, transport, Endpoint{"client-" + std::to_string(i), 2000});
    node->start();
    core::RamseyClient::Options o;
    o.schedulers = {sched_node.self()};
    o.infra = core::Infra::kUnix;
    o.host_label = "client-" + std::to_string(i);
    o.simulated_time = false;  // actually run the heuristics
    o.initial_sleep_max = 2 * kSecond;
    o.seed = 1000 + static_cast<std::uint64_t>(i);
    auto client = std::make_unique<core::RamseyClient>(
        *node, std::make_unique<core::RealWorkExecutor>(), o);
    client->start();
    client_nodes.push_back(std::move(node));
    clients.push_back(std::move(client));
  }

  // --- Run until a counter-example lands in persistent state ---------------
  std::printf("searching for an R(4,4) counter-example on K_17...\n");
  const std::string object = core::best_graph_name(17, 4);
  for (int round = 0; round < 2000; ++round) {
    events.run_for(5 * kSecond);
    if (state.fetch(object)) break;
  }

  auto blob = state.fetch(object);
  if (!blob) {
    std::printf("no counter-example found (unexpected)\n");
    return 1;
  }
  auto body = gossip::blob_body(*blob);
  Reader r(*body);
  const bool found = *r.boolean();
  auto graph_blob = r.blob();
  auto graph = ramsey::ColoredGraph::deserialize(*graph_blob);
  ramsey::OpsCounter ops;
  std::printf("stored object '%s': counter-example=%s, verified bad cliques=%llu\n",
              object.c_str(), found ? "yes" : "no",
              static_cast<unsigned long long>(
                  ramsey::count_bad_cliques(*graph, 4, ops)));
  std::printf("total ops delivered (logged): %llu across %llu reports\n",
              static_cast<unsigned long long>(logging.total_ops()),
              static_cast<unsigned long long>(logging.records_received()));
  std::printf("sanity-check rejections at the state manager: %llu\n",
              static_cast<unsigned long long>(state.stores_rejected()));

  for (auto& c : clients) c->stop();
  return found && ramsey::is_counterexample(*graph, 4) ? 0 : 1;
}
