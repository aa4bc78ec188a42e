// The model checker's protocol fixtures: three small deterministic worlds
// (3-node clique election, 3-server gossip anti-entropy, scheduler batch
// delivery with 1 server + 2 clients) rebuilt from a seed for every explored
// branch. Each runs the production protocol code on the BaseWorld scaffold
// (base_world.hpp), whose network has no loss or jitter, so the only
// nondeterminism left is the one the Explorer controls: the firing order of
// same-time events and the placement of crash/restart faults.
#pragma once

#include <cstdint>
#include <memory>

#include "sim/mc/explorer.hpp"

namespace ew::sim::mc {

/// Three CliqueMembers (g0..g2) electing and re-electing a leader. Explored
/// from t=0: the join/merge races ARE the protocol under test. Faults:
/// crash g2, restart g2. Checks: trace invariants, live members converge on
/// one identical view containing exactly the live set, exactly one leader.
std::unique_ptr<World> make_clique_world(std::uint64_t seed);

/// Three GossipServers (s0..s2) with deliberately divergent pre-seeded
/// stores running digest/delta anti-entropy. Warmup forms the clique FIFO;
/// exploration permutes the sync rounds. Faults: crash s2, restart s2 (a
/// restarted server rejoins empty and must re-absorb). Checks: trace
/// invariants, live stores pairwise identical, freshest surviving versions
/// won.
std::unique_ptr<World> make_gossip_world(std::uint64_t seed);

/// The production core::SchedulerServer (2-shard pool, timers fast enough
/// to sweep and migrate inside settle()) and two clients c0, c1 whose report
/// batches are hedged: every tick sends the batch as a call plus a one-way
/// copy whose reply is dropped, and raises the lease target so each reply
/// carries a top-up. `dedupe` picks the clients' seq: nonzero seqs use the
/// scheduler's reply cache, so a duplicate replays the top-up to the call;
/// seq 0 opts out, and delivering the one-way copy first hands the top-up
/// to the reply nobody applies — the deliberately seeded bug the Explorer
/// must catch with a minimized repro. Faults: crash c0, restart c0. Checks:
/// trace invariants; no unit held by two live clients; the live clients'
/// leases together equal the scheduler's assigned set.
std::unique_ptr<World> make_sched_world(std::uint64_t seed, bool dedupe);

}  // namespace ew::sim::mc
