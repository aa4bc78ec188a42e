#include "wish/mc_world.hpp"

#include <algorithm>
#include <array>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.hpp"
#include "net/node.hpp"
#include "sim/mc/base_world.hpp"
#include "wish/daemon.hpp"

namespace ew::wish {
namespace {

using sim::EventQueue;
using sim::mc::BaseWorld;

class WishWorld final : public BaseWorld {
 public:
  static constexpr int kDaemons = 3;
  static constexpr std::uint64_t kEpoch = 1;

  explicit WishWorld(std::uint64_t seed) : BaseWorld(seed) {
    for (int i = 0; i < kDaemons; ++i) {
      peers_.push_back(Endpoint{host(i), 701});
    }
    // Pick primitive names whose coordinator hashes onto the host the fault
    // menu crashes, so the faults hit the interesting process.
    bar_name_ = pick_name("bar", kDaemons - 1);
    lead_name_ = pick_name("lead", kDaemons - 1);
    for (int i = 0; i < kDaemons; ++i) start_daemon(i);
    set_fault_target(host(kDaemons - 1),
                     {[this] { kill_daemon(kDaemons - 1); },
                      [this] { restart_daemon(kDaemons - 1); }});
  }

  ~WishWorld() override {
    for (auto& d : daemons_) {
      if (d.daemon) d.daemon->stop();
      d.daemon.reset();
      if (d.node) d.node.reset();
    }
  }

  [[nodiscard]] std::string name() const override { return "wish"; }

  // Issue every enter and claim, but run nothing: the sends themselves are
  // the first events the Explorer gets to order.
  void warmup() override {
    for (int i = 0; i < kDaemons; ++i) {
      issue_enter(i);
      issue_claim(i);
    }
  }

  // Generous grace: covers several re-enter periods (2 s each) plus the
  // claim retry loop, so liveness checks measure the protocol, not the
  // clock budget.
  void settle() override { events_.run_for(2 * kMinute); }

  std::vector<std::string> check() override {
    std::vector<std::string> v;
    // --- Safety: at-most-once release per enter, on every host. -----------
    for (int i = 0; i < kDaemons; ++i) {
      if (released_[i] > enters_[i]) {
        v.push_back("wish: " + host(i) + " released " +
                    std::to_string(released_[i]) + "x for " +
                    std::to_string(enters_[i]) + " enters");
      }
    }
    // --- Safety: one leader per coordinator incarnation. ------------------
    for (const auto& [inc, winners] : winners_by_inc_) {
      if (winners.size() > 1) {
        v.push_back("wish: " + std::to_string(winners.size()) +
                    " distinct leader winners in coordinator incarnation " +
                    std::to_string(inc));
      }
    }
    for (const auto& [inc, wons] : won_by_inc_) {
      if (wons.size() > 1) {
        v.push_back("wish: " + std::to_string(wons.size()) +
                    " claimants won leader-once in incarnation " +
                    std::to_string(inc));
      }
    }
    // --- Liveness: needs the coordinator up at branch end. -----------------
    if (daemons_[kDaemons - 1].daemon) {
      for (int i = 0; i < kDaemons; ++i) {
        const auto& d = daemons_[i];
        if (!d.daemon) continue;
        if (released_[i] == 0) {
          v.push_back("wish: barrier hung on " + host(i) +
                      " with coordinator up");
        }
        if (d.daemon->open_barrier_waits() != 0) {
          v.push_back("wish: " + host(i) + " still re-entering after settle");
        }
        if (!claim_resolved_[i]) {
          v.push_back("wish: leader claim unresolved on " + host(i) +
                      " with coordinator up");
        }
      }
    }
    return v;
  }

  [[nodiscard]] std::uint64_t fingerprint() const override {
    std::uint64_t h = kFnvBasis;
    for (int i = 0; i < kDaemons; ++i) {
      const auto& d = daemons_[i];
      h = fnv_mix(h, d.daemon ? d.incarnation : 0);
      h = fnv_mix(h, released_[i]);
      h = fnv_mix(h, enters_[i]);
      h = fnv_mix(h, claim_resolved_[i] ? 1 : 0);
    }
    for (const auto& [inc, winners] : winners_by_inc_) {
      h = fnv_mix(h, inc);
      for (const auto& w : winners) h = fnv_mix(h, fnv1a64(w));
    }
    return h;
  }

 private:
  struct DaemonSlot {
    std::unique_ptr<Node> node;
    std::unique_ptr<WishDaemon> daemon;
    std::uint64_t incarnation = 0;  // last started incarnation
  };

  static std::string host(int i) { return 'w' + std::to_string(i); }

  /// Smallest "<stem><n>" whose coordinator hash lands on peers_[want].
  std::string pick_name(const std::string& stem, int want) const {
    for (int n = 0;; ++n) {
      std::string candidate = stem + std::to_string(n);
      if (fnv1a64(candidate) % peers_.size() ==
          static_cast<std::size_t>(want)) {
        return candidate;
      }
    }
  }

  void start_daemon(int i) {
    auto& d = daemons_[static_cast<std::size_t>(i)];
    EventQueue::LabelScope scope(events_, host(i));
    d.node = std::make_unique<Node>(events_, transport_,
                                    peers_[static_cast<std::size_t>(i)]);
    d.node->start();
    WishDaemon::Options o;
    o.incarnation = ++d.incarnation;
    o.peers = peers_;
    d.daemon = std::make_unique<WishDaemon>(*d.node, comparators_, o);
    d.daemon->start();
  }

  void kill_daemon(int i) {
    auto& d = daemons_[static_cast<std::size_t>(i)];
    if (d.daemon) d.daemon->stop();
    // Crash the node while the stopped daemon is still allocated: pending
    // call callbacks must find running_ == false, not freed memory.
    if (d.node) d.node->crash();
    d.daemon.reset();
    d.node.reset();
  }

  void restart_daemon(int i) {
    start_daemon(i);
    // The client side of the crashed host: an unfinished barrier or an
    // unresolved claim is re-issued against the fresh incarnation, exactly
    // as the storm bench's clients respawn kLost jobs.
    EventQueue::LabelScope scope(events_, host(i));
    if (released_[i] == 0) issue_enter(i);
    if (!claim_resolved_[i]) issue_claim(i);
  }

  void issue_enter(int i) {
    auto& d = daemons_[static_cast<std::size_t>(i)];
    if (!d.daemon) return;
    ++enters_[i];
    d.daemon->enter_barrier(bar_name_, kEpoch, kDaemons,
                            [this, i] { ++released_[i]; });
  }

  void issue_claim(int i) {
    auto& d = daemons_[static_cast<std::size_t>(i)];
    if (!d.daemon) return;
    d.daemon->leader_once(
        lead_name_, kEpoch, host(i),
        [this, i](bool won, const std::string& winner, std::uint64_t inc) {
          if (winner.empty() && inc == 0) {
            // Call failed (coordinator down): retry after a beat, like a
            // real client. The guard keeps dead daemons quiet.
            events_.schedule(2 * kSecond, [this, i] {
              if (daemons_[static_cast<std::size_t>(i)].daemon &&
                  !claim_resolved_[i]) {
                issue_claim(i);
              }
            });
            return;
          }
          claim_resolved_[i] = true;
          winners_by_inc_[inc].insert(winner);
          if (won) won_by_inc_[inc].insert(host(i));
        });
  }

  gossip::ComparatorRegistry comparators_;
  std::vector<Endpoint> peers_;
  std::string bar_name_;
  std::string lead_name_;
  std::array<DaemonSlot, kDaemons> daemons_;
  std::array<std::uint64_t, kDaemons> enters_{};
  std::array<std::uint64_t, kDaemons> released_{};
  std::array<bool, kDaemons> claim_resolved_{};
  std::map<std::uint64_t, std::set<std::string>> winners_by_inc_;
  std::map<std::uint64_t, std::set<std::string>> won_by_inc_;
};

}  // namespace

std::unique_ptr<sim::mc::World> make_wish_world(std::uint64_t seed) {
  return std::make_unique<WishWorld>(seed);
}

}  // namespace ew::wish
