// sched_batch: the batched scheduler over real loopback TCP.
//
// One SchedulerServer over an 8-shard pool serves 128 logical clients, each
// holding an 8,192-unit lease (1,048,576 units outstanding). The clients
// are multiplexed over 4 connections; each connection keeps one
// ReportBatch call outstanding (closed loop) and cycles through its 32
// clients, so every call carries one client's whole lease: frames of about
// 370 KB, few calls, few timers. Migration is parked (period 12 h) so the
// holder model below stays transfer-free.
#include <algorithm>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "common/rng.hpp"
#include "core/scheduler.hpp"
#include "layers.hpp"
#include "loopback.hpp"
#include "ramsey/graph.hpp"

namespace eb {
namespace {

using ew::core::DirectiveBatch;
using ew::core::ReportBatch;
namespace msgtype = ew::core::msgtype;

constexpr std::size_t kConns = 4;
constexpr std::size_t kClients = 128;
constexpr std::uint32_t kLease = 8192;
constexpr std::uint32_t kShards = 8;
constexpr std::uint64_t kTarget = static_cast<std::uint64_t>(kClients) * kLease;
constexpr int kSetupRepeats = 5;
constexpr double kSliceSeconds = 0.5;

struct LogicalClient {
  ew::Endpoint ep;
  std::uint64_t seq = 0;
  std::unordered_set<std::uint64_t> held;
  ReportBatch batch;  // reused every round; its reports follow `held`
};

class SchedLoop {
 public:
  SchedLoop(LoopbackRig& rig, const RunArgs& args)
      : rig_(rig), spans_(rig.spans()), args_(args), server_(rig.server(), options(args.seed)) {
    server_.start();
    ew::Rng g(args.seed);
    graph_blob_ = ew::ramsey::ColoredGraph::random(10, g).serialize();
    clients_.resize(kClients);
    for (std::size_t i = 0; i < kClients; ++i) {
      clients_[i].ep = ew::Endpoint{"c" + std::to_string(i), 2000};
    }
    holder_.reserve(kTarget);
  }
  ~SchedLoop() { server_.stop(); }
  SchedLoop(const SchedLoop&) = delete;
  SchedLoop& operator=(const SchedLoop&) = delete;

  static ew::core::SchedulerServer::Options options(std::uint64_t seed) {
    ew::core::SchedulerServer::Options so;
    so.pool.n = 10;
    so.pool.k = 4;
    so.pool.seed_base = 0xBE9C ^ seed;
    so.pool.max_idle_frontier = kTarget;
    so.pool_shards = kShards;
    so.max_units_per_client = kLease;
    so.migration_period = 12 * ew::kHour;  // parked, as in sched_scale
    return so;
  }

  /// Client i travels over connection i % kConns.
  ew::Node& conn_of(std::size_t i) { return rig_.client(i % kConns); }

  // ---- set-up: every client registers, one call per connection ---------

  void start_registration() {
    for (std::size_t j = 0; j < kConns; ++j) register_client(j);
  }

  void register_client(std::size_t i) {
    ew::core::ClientHello hello;
    hello.client = clients_[i].ep;
    hello.host = clients_[i].ep.host;
    hello.want_units = kLease;
    conn_of(i).call(rig_.server().self(), msgtype::kSchedRegister, hello.serialize(),
                    ew::CallOptions::fixed(30 * ew::kSecond),
                    [this, i](ew::Result<ew::Bytes> r) {
                      if (!r.ok()) {
                        ++failures_;
                        return;
                      }
                      auto d = DirectiveBatch::deserialize(*r);
                      if (d) apply(i, std::move(*d));
                      ++registered_;
                      if (i + kConns < kClients) register_client(i + kConns);
                    });
  }

  [[nodiscard]] bool registered() const { return registered_ == kClients; }

  // ---- measured phase: closed-loop report batches --------------------

  void start_reports() {
    for (std::size_t i = 0; i < kClients; ++i) rebuild_reports(i);
    for (std::size_t j = 0; j < kConns; ++j) send_report(j);
  }

  void send_report(std::size_t i) {
    LogicalClient& c = clients_[i];
    c.batch.seq = ++c.seq;
    const std::uint64_t round = c.seq;
    for (auto& rep : c.batch.reports) {
      const std::uint64_t e = 300 + (rep.unit_id + args_.seed) % 10;
      rep.best_energy = std::max<std::uint64_t>(15, e - std::min<std::uint64_t>(e, 20 * round));
    }
    ew::Bytes wire = c.batch.serialize();
    if (spans_ != nullptr && recorded_batches_.size() < 8) recorded_batches_.push_back(wire);
    if (i == 0) probe_wire_ = wire;
    const std::int64_t t0 = now_ns();
    ++issued_;
    ++in_flight_;
    conn_of(i).call(rig_.server().self(), msgtype::kSchedReportBatch, std::move(wire),
                    ew::CallOptions::fixed(30 * ew::kSecond),
                    [this, i, t0](ew::Result<ew::Bytes> r) { on_directive(i, t0, std::move(r)); });
  }

  void on_directive(std::size_t i, std::int64_t t0, ew::Result<ew::Bytes> r) {
    SpanScope s(spans_, SpanName::kBenchApp, static_cast<std::uint32_t>(i % kConns + 1));
    const std::int64_t t = now_ns();
    --in_flight_;
    if (!r.ok()) {
      ++failures_;
    } else {
      ++completed_;
      if (window_ != nullptr && window_->open()) window_->sample(t - t0);
      if (spans_ != nullptr && recorded_replies_.size() < 64) recorded_replies_.push_back(*r);
      if (i == 0) probe_reply_ = *r;
      auto d = DirectiveBatch::deserialize(*r);
      if (!d) {
        ++failures_;
      } else if (!d->empty()) {
        apply(i, std::move(*d));
        rebuild_reports(i);
      }
    }
    if (running_) send_report((i + kConns) % kClients);
  }

  /// Apply a DirectiveBatch to client i, cross-checking the holder model.
  void apply(std::size_t i, DirectiveBatch&& d) {
    LogicalClient& c = clients_[i];
    for (auto id : d.revoke) {
      if (c.held.erase(id) > 0) {
        auto h = holder_.find(id);
        if (h != holder_.end() && h->second == i) holder_.erase(h);
      }
    }
    for (auto& spec : d.assign) {
      if (!c.held.insert(spec.unit_id).second) continue;  // replayed assign
      auto [h, fresh] = holder_.try_emplace(spec.unit_id, i);
      if (!fresh && h->second != i) {
        ++double_issued_;
        h->second = i;
      }
    }
  }

  void rebuild_reports(std::size_t i) {
    LogicalClient& c = clients_[i];
    std::vector<std::uint64_t> ids(c.held.begin(), c.held.end());
    std::sort(ids.begin(), ids.end());
    c.batch.client = c.ep;
    c.batch.want_units = kLease;
    c.batch.reports.clear();
    for (auto id : ids) {
      ew::ramsey::WorkReport rep;
      rep.unit_id = id;
      rep.ops_done = 60'000'000 + args_.seed % 1000;
      rep.best_graph = graph_blob_;
      c.batch.reports.push_back(std::move(rep));
    }
  }

  void drain() {
    running_ = false;
    for (int spin = 0; spin < 500 && in_flight_ > 0; ++spin) {
      rig_.run_for(10 * ew::kMillisecond);
    }
  }

  // ---- checks -------------------------------------------------------

  void check(RunResult& out) {
    out.check(in_flight_ == 0, "sched: " + std::to_string(in_flight_) + " calls never answered");
    out.check(failures_ == 0, "sched: " + std::to_string(failures_) + " calls failed");
    if (args_.corrupt == "double") {
      // Client 1 is handed a unit client 0 holds.
      DirectiveBatch d;
      d.assign.emplace_back();
      d.assign.back().unit_id = *clients_[0].held.begin();
      apply(1, std::move(d));
    }
    out.check(double_issued_ == 0,
              "sched: " + std::to_string(double_issued_) + " units double-issued");
    if (args_.corrupt == "lost") clients_[2].held.erase(clients_[2].held.begin());
    if (args_.corrupt == "phantom") clients_[3].held.insert(~0ULL);

    // The pool's assigned set must be exactly the disjoint union of the
    // leases the clients hold.
    const std::vector<std::uint64_t> pool_ids = server_.pool().assigned_units();
    std::vector<std::uint64_t> held_ids;
    held_ids.reserve(kTarget);
    for (const LogicalClient& c : clients_) held_ids.insert(held_ids.end(), c.held.begin(), c.held.end());
    std::sort(held_ids.begin(), held_ids.end());
    const auto shared = std::adjacent_find(held_ids.begin(), held_ids.end());
    out.check(shared == held_ids.end(), "sched: a unit is held by two clients");
    std::vector<std::uint64_t> diff;
    std::set_difference(pool_ids.begin(), pool_ids.end(), held_ids.begin(), held_ids.end(),
                        std::back_inserter(diff));
    out.check(diff.empty(), "sched: " + std::to_string(diff.size()) + " units lost");
    diff.clear();
    std::set_difference(held_ids.begin(), held_ids.end(), pool_ids.begin(), pool_ids.end(),
                        std::back_inserter(diff));
    out.check(diff.empty(), "sched: " + std::to_string(diff.size()) + " phantom units");
    const std::uint64_t outstanding = server_.pool().assigned_count();
    out.check(outstanding == kTarget, "sched: " + std::to_string(outstanding) +
                                          " units outstanding, want " + std::to_string(kTarget));

    // Replay probe: client 0's last batch bytes again. The scheduler must
    // answer from its reply cache, bit-identically, touching nothing.
    const std::uint64_t replays0 = server_.batch_replays();
    ew::Bytes reply;
    bool answered = false;
    conn_of(0).call(rig_.server().self(), msgtype::kSchedReportBatch, ew::Bytes(probe_wire_),
                    ew::CallOptions::fixed(30 * ew::kSecond), [&](ew::Result<ew::Bytes> r) {
                      answered = true;
                      if (r.ok()) reply = *r;
                    });
    for (int spin = 0; spin < 500 && !answered; ++spin) rig_.run_for(10 * ew::kMillisecond);
    if (args_.corrupt == "replay" && !reply.empty()) reply[0] ^= 0x01;
    out.check(answered && reply == probe_reply_,
              "sched: replayed batch not answered bit-identically");
    out.check(server_.batch_replays() == replays0 + 1, "sched: replayed batch not counted as a replay");
    out.check(server_.pool().assigned_count() == outstanding, "sched: replayed batch mutated the pool");
  }

  LoopbackRig& rig_;
  SpanBuffer* spans_;
  const RunArgs& args_;
  ew::core::SchedulerServer server_;
  ew::Bytes graph_blob_;
  std::vector<LogicalClient> clients_;
  std::unordered_map<std::uint64_t, std::size_t> holder_;  // unit -> client
  std::size_t registered_ = 0;
  bool running_ = true;
  SlicedWindow* window_ = nullptr;  // the measured window's latency samples
  std::uint64_t issued_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t failures_ = 0;
  std::uint64_t double_issued_ = 0;
  std::int64_t in_flight_ = 0;
  ew::Bytes probe_wire_;
  ew::Bytes probe_reply_;
  std::vector<ew::Bytes> recorded_batches_;  // ReportBatch wire bytes sent
  std::vector<ew::Bytes> recorded_replies_;  // DirectiveBatch bytes received
};

/// Bind a fresh rig, start a scheduler on it and register the fleet;
/// returns the set-up seconds (registration until every lease is full), or
/// a negative value on failure.
double set_up(std::unique_ptr<LoopbackRig>& rig, std::unique_ptr<SchedLoop>& loop,
              const RunArgs& args) {
  loop.reset();
  rig.reset();
  rig = std::make_unique<LoopbackRig>(kConns, args.trace, SpanName::kSchedDeliver, 8);
  if (!rig->start()) return -1;
  loop = std::make_unique<SchedLoop>(*rig, args);
  const std::int64_t t0 = now_ns();
  loop->start_registration();
  const std::int64_t deadline = t0 + 60'000'000'000LL;
  while (!loop->registered()) {
    if (now_ns() > deadline || loop->failures_ > 0) return -1;
    rig->reactor().run_for(1 * ew::kMillisecond);
  }
  return seconds_since(t0);
}

/// The scheduler's codecs timed on the batch and reply bytes the run
/// recorded, and the scheduler's own share of its delivery time.
void report_scheduler_layers(RunResult& out, const SchedLoop& loop) {
  std::vector<ReportBatch> batches;
  std::uint64_t unit_reports = 0;
  for (const ew::Bytes& b : loop.recorded_batches_) {
    if (auto d = ReportBatch::deserialize(b)) {
      unit_reports += d->reports.size();
      batches.push_back(std::move(*d));
    }
  }
  std::vector<DirectiveBatch> replies;
  for (const ew::Bytes& b : loop.recorded_replies_) {
    if (auto d = DirectiveBatch::deserialize(b)) replies.push_back(std::move(*d));
  }
  if (batches.empty() || replies.empty()) return;
  const double decode_ns = time_per_op_ns([&] {
    for (const ew::Bytes& b : loop.recorded_batches_) keep(ReportBatch::deserialize(b)->reports.size());
    return unit_reports;
  });
  const double encode_ns = time_per_op_ns([&] {
    for (const ReportBatch& b : batches) keep(b.serialize().size());
    return unit_reports;
  });
  const double directive_decode_ns = time_per_op_ns([&] {
    for (const ew::Bytes& b : loop.recorded_replies_) keep(DirectiveBatch::deserialize(b)->assign.size());
    return loop.recorded_replies_.size();
  });
  const double directive_encode_ns = time_per_op_ns([&] {
    for (const DirectiveBatch& d : replies) keep(d.serialize().size());
    return replies.size();
  });
  out.set("core.protocol.report_decode_ns", decode_ns, "ns");
  out.set("core.protocol.report_encode_ns", encode_ns, "ns");
  out.set("core.protocol.directive_codec_us", (directive_decode_ns + directive_encode_ns) / 1e3,
          "us");
  // The pool and policy share: the scheduler's delivery self time less the
  // codec work it does on the same bytes (decode the batch, encode the reply).
  const double per_batch = static_cast<double>(unit_reports) / static_cast<double>(batches.size());
  out.set("core.scheduler.absorb_us",
          out.metrics["core.scheduler.handle_us"].value -
              (decode_ns * per_batch + directive_encode_ns) / 1e3,
          "us");
}

}  // namespace

RunResult run_sched_batch(const RunArgs& args) {
  RunResult out;
  std::vector<double> setups;
  std::unique_ptr<LoopbackRig> rig;
  std::unique_ptr<SchedLoop> loop;
  for (int k = 0; k < kSetupRepeats; ++k) {
    const double s = set_up(rig, loop, args);
    if (s < 0) {
      out.check(false, "sched: set-up failed");
      return out;
    }
    setups.push_back(s);
  }
  loop->start_reports();
  rig->run_for(1 * ew::kSecond);  // warm-up: first-touch pages, forecasters

  // Too few batches per slice for a p99: latency quantiles over the calls
  // of the fastest quarter of the slices, pooled.
  LoopbackWindow w(kSliceSeconds, /*pooled_latency=*/true);
  loop->window_ = &w.slices;
  measure(*rig, w, args.seconds, [&] { return loop->completed_; });
  loop->drain();
  loop->check(out);
  out.attempted = loop->issued_ + kClients * kSetupRepeats;
  out.failed = loop->failures_;
  report(out, "sched_batch", *rig, w, kClients, setups, args);
  if (args.trace) report_scheduler_layers(out, *loop);
  return out;
}

}  // namespace eb
