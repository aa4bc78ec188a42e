#include "app/scenario.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace ew::app {

namespace {
constexpr std::uint16_t kLoggingPort = 401;
constexpr std::uint16_t kStatePort = 402;
constexpr std::uint16_t kControlPort = 403;
constexpr std::uint16_t kGossipPort = 501;
constexpr std::uint16_t kSchedulerPort = 601;
const char* kControlHost = "sdsc-control";

int scaled(int count, double scale) {
  return std::max(1, static_cast<int>(count * scale));
}
}  // namespace

Sc98Scenario::Sc98Scenario(ScenarioOptions opts)
    : opts_(opts),
      rng_(opts.seed),
      network_(Rng(opts.seed ^ 0xabcde)),
      transport_(events_, network_) {}

Sc98Scenario::~Sc98Scenario() {
  for (auto& fw : aux_frameworks_) fw->stop();
  for (auto& s : schedulers_) stop_scheduler(*s);
  for (auto& h : scheduler_hosts_) h->shutdown();
  for (auto& g : gossips_) {
    if (g->server) g->server->stop();
    if (g->node) g->node->stop();
  }
  for (auto& a : adapters_) a->stop();
}

std::vector<Endpoint> Sc98Scenario::scheduler_endpoints() const {
  std::vector<Endpoint> out;
  for (int i = 0; i < opts_.num_schedulers; ++i) {
    out.push_back(Endpoint{"sched-" + std::to_string(i), kSchedulerPort});
  }
  return out;
}

std::vector<Endpoint> Sc98Scenario::gossip_endpoints() const {
  std::vector<Endpoint> out;
  for (int i = 0; i < opts_.num_gossips; ++i) {
    out.push_back(Endpoint{"gossip-" + std::to_string(i), kGossipPort});
  }
  return out;
}

void Sc98Scenario::build_network() {
  // Service placement mirrors the paper: the persistent state manager at
  // SDSC ("trusted environment"), gossips at well-known addresses around
  // the country, schedulers at the stable sites.
  network_.set_default_latencies(1 * kMillisecond, 35 * kMillisecond);
  network_.set_site(kControlHost, "sdsc");
  const char* gossip_sites[] = {"sdsc", "ncsa", "utk", "condor"};
  for (int i = 0; i < opts_.num_gossips; ++i) {
    network_.set_site("gossip-" + std::to_string(i), gossip_sites[i % 4]);
  }
  const char* sched_sites[] = {"sdsc", "ncsa", "utk"};
  for (int i = 0; i < opts_.num_schedulers; ++i) {
    network_.set_site("sched-" + std::to_string(i),
                      opts_.schedulers_in_condor ? "condor" : sched_sites[i % 3]);
  }
}

core::SchedulerServer::Options Sc98Scenario::scheduler_options(int index) const {
  core::SchedulerServer::Options o;
  o.logging = Endpoint{kControlHost, kLoggingPort};
  o.state_manager = Endpoint{kControlHost, kStatePort};
  o.pool.n = opts_.pool_n;
  o.pool.k = opts_.pool_k;
  o.pool.seed_base = opts_.seed * 7919 + static_cast<std::uint64_t>(index) * 104729;
  o.pool_shards = static_cast<std::uint32_t>(std::max(1, opts_.sched_pool_shards));
  return o;
}

void Sc98Scenario::start_scheduler(SchedulerUnit& unit, std::uint64_t seed_tag) {
  unit.node.emplace(events_, transport_, unit.endpoint);
  if (Status s = unit.node->start(); !s.ok()) {
    EW_ERROR << "scheduler bind failed: " << s.to_string();
    return;
  }
  unit.server.emplace(*unit.node,
                      scheduler_options(static_cast<int>(seed_tag % 1000)));
  unit.server->start();
  unit.sync.emplace(*unit.node, comparators_, gossip_endpoints());
  auto* server = &*unit.server;
  unit.sync->expose(core::statetype::kBestGraph,
                    gossip::SyncClient::StateHandlers{
                        [server] { return server->best_graph_state(); },
                        [server](const Bytes& b) { server->apply_best_graph_state(b); },
                    });
  unit.sync->start();
}

void Sc98Scenario::harvest_scheduler(SchedulerUnit& unit) {
  if (!unit.server) return;
  unit.reports_total += unit.server->reports_received();
  unit.migrations_total += unit.server->migrations();
  unit.dead_total += unit.server->clients_presumed_dead();
}

void Sc98Scenario::stop_scheduler(SchedulerUnit& unit) {
  harvest_scheduler(unit);
  if (unit.sync) unit.sync->stop();
  if (unit.server) unit.server->stop();
  if (unit.node) unit.node->stop();
  unit.sync.reset();
  unit.server.reset();
  unit.node.reset();
}

void Sc98Scenario::crash_scheduler(SchedulerUnit& unit) {
  harvest_scheduler(unit);
  // Components stop first (their running_ guards silence the failing
  // callbacks), then the node detaches and fails every outstanding call
  // with kPeerDown — a crash, not a clean shutdown.
  if (unit.sync) unit.sync->stop();
  if (unit.server) unit.server->stop();
  if (unit.node) unit.node->crash();
  unit.sync.reset();
  unit.server.reset();
  unit.node.reset();
}

void Sc98Scenario::build_chaos() {
  if (opts_.chaos.events.empty()) return;
  chaos_.emplace(events_, network_);
  for (std::size_t i = 0; i < schedulers_.size(); ++i) {
    auto* unit = schedulers_[i].get();
    chaos_->register_process(
        unit->host,
        sim::ChaosEngine::Process{
            [this, unit] { crash_scheduler(*unit); },
            [this, unit, i] {
              // A restarted scheduler rebuilds soft state from client
              // re-registrations and re-imports the checkpointed frontier.
              start_scheduler(*unit, static_cast<std::uint64_t>(i));
            }});
  }
  for (std::size_t i = 0; i < gossips_.size(); ++i) {
    auto* unit = gossips_[i].get();
    const std::string host = "gossip-" + std::to_string(i);
    chaos_->register_process(
        host,
        sim::ChaosEngine::Process{
            [unit] {
              if (unit->server) unit->server->stop();
              if (unit->node) unit->node->crash();
              unit->server.reset();
              unit->node.reset();
            },
            [this, unit, host] {
              unit->node.emplace(events_, transport_,
                                 Endpoint{host, kGossipPort});
              unit->node->start();
              gossip::GossipServer::Options gopts;
              gopts.num_cliques =
                  static_cast<std::uint32_t>(opts_.num_gossip_cliques);
              unit->server.emplace(*unit->node, comparators_,
                                   gossip_endpoints(), gopts);
              // start() announces the member to its well-known peers, so
              // the restarted gossip rejoins the clique instead of wedging
              // as a stale singleton; components re-register on their next
              // lease renewal.
              unit->server->start();
            }});
  }
  // The control site's logging + state services crash and restart as one
  // process; the state manager reloads from state_storage_dir on restart.
  chaos_->register_process(
      kControlHost,
      sim::ChaosEngine::Process{
          [this] {
            if (state_) state_->stop();
            if (logging_) logging_->stop();
            if (state_node_) state_node_->crash();
            if (logging_node_) logging_node_->crash();
            state_.reset();
            state_node_.reset();
            logging_.reset();
            logging_node_.reset();
          },
          [this] { start_control_services(); }});
  chaos_->arm(opts_.chaos);
}

sim::ChaosEngine* Sc98Scenario::chaos_engine() {
  return chaos_ ? &*chaos_ : nullptr;
}

core::SchedulerServer* Sc98Scenario::scheduler_server(int i) {
  auto& unit = *schedulers_.at(static_cast<std::size_t>(i));
  return unit.server ? &*unit.server : nullptr;
}

gossip::GossipServer* Sc98Scenario::gossip_server(int i) {
  auto& unit = *gossips_.at(static_cast<std::size_t>(i));
  return unit.server ? &*unit.server : nullptr;
}

core::PersistentStateManager* Sc98Scenario::state_manager() {
  return state_ ? &*state_ : nullptr;
}

void Sc98Scenario::start_control_services() {
  logging_node_.emplace(events_, transport_, Endpoint{kControlHost, kLoggingPort});
  logging_node_->start();
  logging_.emplace(*logging_node_);
  logging_->start();
  if (metrics_) {
    logging_->set_sink([this](const core::LogRecord& rec) { metrics_->on_log(rec); });
  }

  state_node_.emplace(events_, transport_, Endpoint{kControlHost, kStatePort});
  state_node_->start();
  core::PersistentStateManager::Options sopts;
  sopts.storage_dir = opts_.state_storage_dir;
  state_.emplace(*state_node_, sopts);
  state_->register_validator("ramsey/best/",
                             core::PersistentStateManager::ramsey_validator());
  // With a storage_dir configured, start() reloads every intact object that
  // survived on disk — the Section 3.1.2 promise the chaos tests exercise.
  state_->start();
}

void Sc98Scenario::build_services() {
  start_control_services();

  for (int i = 0; i < opts_.num_gossips; ++i) {
    auto unit = std::make_unique<GossipUnit>();
    unit->node.emplace(events_, transport_,
                       Endpoint{"gossip-" + std::to_string(i), kGossipPort});
    unit->node->start();
    gossip::GossipServer::Options gopts;
    gopts.num_cliques = static_cast<std::uint32_t>(opts_.num_gossip_cliques);
    unit->server.emplace(*unit->node, comparators_, gossip_endpoints(), gopts);
    unit->server->start();
    gossips_.push_back(std::move(unit));
  }

  for (int i = 0; i < opts_.num_schedulers; ++i) {
    auto unit = std::make_unique<SchedulerUnit>();
    unit->host = "sched-" + std::to_string(i);
    unit->endpoint = Endpoint{unit->host, kSchedulerPort};
    schedulers_.push_back(std::move(unit));
  }
  if (opts_.schedulers_in_condor) {
    // Section 5.4 ablation: schedulers live on reclaimable hosts and die
    // (losing their soft state) whenever the owner returns.
    const auto condor = infra::default_profile(core::Infra::kCondor);
    for (int i = 0; i < opts_.num_schedulers; ++i) {
      auto* unit = schedulers_[static_cast<std::size_t>(i)].get();
      infra::HostSpec spec;
      spec.name = unit->host;
      spec.site = "condor";
      spec.infra = core::Infra::kCondor;
      spec.ops_per_sec = condor.rate_median;
      auto host = std::make_unique<infra::SimHost>(
          events_, transport_, std::move(spec), condor.load, condor.churn,
          rng_.next_u64());
      host->set_on_up([this, unit, i] {
        start_scheduler(*unit, static_cast<std::uint64_t>(i));
      });
      host->set_on_down([this, unit] { stop_scheduler(*unit); });
      host->start(/*initially_up=*/true);
      scheduler_hosts_.push_back(std::move(host));
    }
  } else {
    for (int i = 0; i < opts_.num_schedulers; ++i) {
      start_scheduler(*schedulers_[static_cast<std::size_t>(i)],
                      static_cast<std::uint64_t>(i));
    }
  }

  control_node_.emplace(events_, transport_, Endpoint{kControlHost, kControlPort});
  control_node_->start();

  // NWS monitoring stations at the stable sites (Figure 1's "NWS" box):
  // they probe each other so inter-site responsiveness forecasts exist
  // throughout the run.
  std::vector<Endpoint> station_eps;
  station_eps.push_back(Endpoint{kControlHost, 950});
  for (int i = 0; i < std::min(opts_.num_gossips, 3); ++i) {
    station_eps.push_back(Endpoint{"gossip-" + std::to_string(i), 950});
  }
  for (const auto& ep : station_eps) {
    auto fw = std::make_unique<core::ServiceFramework>(events_, transport_, ep);
    nws::NwsStationModule::Options nopts;
    nopts.peers = station_eps;
    nopts.probe_period = 60 * kSecond;
    auto module = std::make_unique<nws::NwsStationModule>(nopts);
    nws_stations_.push_back(module.get());
    fw->install(std::move(module));
    fw->start();
    aux_frameworks_.push_back(std::move(fw));
  }

  // Server directory (Section 3.1.2's "up-to-date list of active servers"):
  // one directory node per scheduler host, replicated through the Gossips.
  core::ServerDirectoryModule::register_comparator(comparators_);
  for (int i = 0; i < opts_.num_schedulers; ++i) {
    auto fw = std::make_unique<core::ServiceFramework>(
        events_, transport_, Endpoint{"sched-" + std::to_string(i), 602},
        gossip_endpoints(), comparators_);
    auto module = std::make_unique<core::ServerDirectoryModule>();
    directories_.push_back(module.get());
    fw->install(std::move(module));
    fw->start();
    aux_frameworks_.push_back(std::move(fw));
  }
}

void Sc98Scenario::build_adapters() {
  ClientProcess::Config base;
  base.schedulers = scheduler_endpoints();
  base.report_interval = opts_.report_interval;
  base.modeled = true;
  base.seed = opts_.seed;
  base.units_per_client =
      static_cast<std::uint32_t>(std::max(1, opts_.units_per_client));

  auto profile_for = [this](core::Infra kind) {
    infra::PoolProfile p = infra::default_profile(kind);
    const auto idx = static_cast<std::size_t>(kind);
    if (opts_.host_count_override[idx] > 0) {
      p.host_count = opts_.host_count_override[idx];
    }
    p.host_count = scaled(p.host_count, opts_.fleet_scale);
    return p;
  };
  auto factory_for = [this, &base](core::Infra kind,
                                   std::vector<Endpoint> schedulers) {
    ClientProcess::Config cfg = base;
    cfg.infra = kind;
    if (!schedulers.empty()) cfg.schedulers = std::move(schedulers);
    cfg.seed = base.seed ^ (0x1000ULL << static_cast<int>(kind));
    return make_client_factory(events_, transport_, cfg);
  };

  // Unix, Condor and Java need nothing beyond their profile.
  auto add_plain = [&](core::Infra kind) {
    auto plain = std::make_unique<infra::InfraAdapter>(
        events_, transport_, network_, rng_.next_u64(), profile_for(kind));
    plain->start(factory_for(kind, {}));
    adapters_.push_back(std::move(plain));
    return adapters_.back().get();
  };

  add_plain(core::Infra::kUnix);

  auto globus = std::make_unique<infra::GlobusAdapter>(
      events_, transport_, network_, rng_.next_u64(),
      profile_for(core::Infra::kGlobus), infra::GlobusAdapter::Config{});
  globus_ = globus.get();
  globus->start(factory_for(core::Infra::kGlobus, {}));
  adapters_.push_back(std::move(globus));

  auto legion = std::make_unique<infra::LegionAdapter>(
      events_, transport_, network_, rng_.next_u64(),
      profile_for(core::Infra::kLegion), infra::LegionAdapter::Config{});
  legion_ = legion.get();
  legion->translator().forward(core::msgtype::kSchedRegister, scheduler_endpoints());
  legion->translator().forward(core::msgtype::kSchedReportBatch,
                               scheduler_endpoints());
  legion->start(
      factory_for(core::Infra::kLegion, {legion->translator_endpoint()}));
  adapters_.push_back(std::move(legion));

  condor_ = add_plain(core::Infra::kCondor);

  auto nt = std::make_unique<infra::NTAdapter>(
      events_, transport_, network_, rng_.next_u64(),
      profile_for(core::Infra::kNT), infra::NTAdapter::Quirks{});
  nt_ = nt.get();
  nt->start(factory_for(core::Infra::kNT, {}));
  adapters_.push_back(std::move(nt));

  add_plain(core::Infra::kJava);

  auto netsolve = std::make_unique<infra::NetSolveAdapter>(
      events_, transport_, network_, rng_.next_u64(),
      profile_for(core::Infra::kNetSolve), infra::NetSolveAdapter::Config{});
  netsolve_ = netsolve.get();
  netsolve->start(factory_for(core::Infra::kNetSolve, {}));
  adapters_.push_back(std::move(netsolve));

  // Flip the light switch shortly after boot (Globus + NetSolve idle until
  // the single point of control activates them).
  LightSwitch::Options sw;
  sw.mds = globus_->mds_endpoint();
  sw.netsolve_agent = netsolve_->agent_endpoint();
  light_switch_.emplace(*control_node_, std::move(sw));
  events_.schedule(30 * kSecond, [this] { light_switch_->turn_on(); });
}

void Sc98Scenario::schedule_spike() {
  if (!opts_.enable_spike) return;
  const TimePoint t0 = opts_.warmup + opts_.judging_offset;
  sim::Spike acute;
  acute.start = t0;
  acute.end = t0 + opts_.judging_acute;
  acute.congestion = opts_.judging_congestion;
  acute.cpu_pressure = opts_.judging_pressure;
  acute.reclaim_fraction = opts_.judging_reclaim;
  acute.label = "judging (acute)";
  sim::Spike tail;
  tail.start = acute.end;
  tail.end = t0 + opts_.judging_tail;
  tail.congestion = opts_.tail_congestion;
  tail.cpu_pressure = opts_.tail_pressure;
  tail.reclaim_fraction = 0.0;
  tail.label = "judging (demo)";
  spikes_.add(acute);
  spikes_.add(tail);

  events_.schedule(acute.start, [this, acute] {
    network_.set_congestion(acute.congestion);
    for (auto& a : adapters_) a->apply_spike(acute);
  });
  events_.schedule(tail.start, [this, tail] {
    network_.set_congestion(tail.congestion);
    for (auto& a : adapters_) a->apply_spike(tail);
  });
  events_.schedule(tail.end, [this] {
    network_.set_congestion(1.0);
    for (auto& a : adapters_) a->clear_spike();
  });
}

void Sc98Scenario::schedule_host_sampling() {
  events_.schedule(opts_.host_sample_period, [this] {
    const TimePoint now = events_.now();
    for (auto& a : adapters_) {
      metrics_->sample_hosts(a->kind(), a->hosts_active(), now);
    }
    if (now < opts_.warmup + opts_.record) schedule_host_sampling();
  });
}

ScenarioResults Sc98Scenario::run() {
  std::optional<AdaptiveTimeout::StaticOverrideGuard> static_guard;
  if (!opts_.adaptive_timeouts) static_guard.emplace(opts_.static_timeout);

  build_network();
  build_services();
  build_adapters();

  const auto bins = static_cast<std::size_t>(opts_.record / opts_.bin_width);
  metrics_.emplace(opts_.warmup, opts_.bin_width, bins);
  logging_->set_sink([this](const core::LogRecord& rec) { metrics_->on_log(rec); });
  schedule_spike();
  schedule_host_sampling();
  build_chaos();

  events_.run_until(opts_.warmup + opts_.record);

  ScenarioResults out;
  out.bin_start.reserve(bins);
  for (std::size_t i = 0; i < bins; ++i) out.bin_start.push_back(metrics_->bin_start(i));
  out.total_rate = metrics_->total_rate();
  for (int i = 0; i < core::kInfraCount; ++i) {
    const auto infra = static_cast<core::Infra>(i);
    out.infra_rate[static_cast<std::size_t>(i)] = metrics_->infra_rate(infra);
    out.infra_hosts[static_cast<std::size_t>(i)] = metrics_->infra_hosts(infra);
  }
  // Under chaos the control services may be down when the clock stops.
  out.total_ops = logging_ ? logging_->total_ops() : 0;
  out.log_records = logging_ ? logging_->records_received() : 0;
  for (auto& s : schedulers_) {
    harvest_scheduler(*s);
    out.reports += s->reports_total;
    out.migrations += s->migrations_total;
    out.presumed_dead += s->dead_total;
    // harvest_scheduler accumulates live counters into *_total; zero the
    // live servers' contribution by harvesting only once at the end.
  }
  out.condor_evictions = condor_ ? condor_->pool().evictions() : 0;
  out.lsf_kills = nt_ ? nt_->lsf_kills() : 0;
  out.translated_calls = legion_ ? legion_->translator().translated() : 0;
  out.counterexample_stores_rejected = state_ ? state_->stores_rejected() : 0;
  for (const auto* s : nws_stations_) out.nws_probes += s->probes_completed();
  if (!directories_.empty()) out.directory_size = directories_[0]->directory().size();
  out.bins_judging_index =
      static_cast<std::size_t>(opts_.judging_offset / opts_.bin_width);
  return out;
}

}  // namespace ew::app
