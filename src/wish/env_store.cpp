#include "wish/env_store.hpp"

#include <algorithm>

#include "common/hash.hpp"
#include "gossip/state.hpp"
#include "wish/protocol.hpp"

namespace ew::wish {

std::uint64_t EnvStore::set(const std::string& key, const std::string& value) {
  Entry& e = map_[key];
  // Mint above whatever version this replica has seen for the key —
  // including a merged-in ghost from a previous incarnation — so the write
  // dominates everything known locally.
  e.version = e.version + 1;
  e.value = value;
  e.writer = writer_;
  e.own = true;
  ++sets_;
  ++mint_;
  return e.version;
}

std::optional<std::string> EnvStore::get(const std::string& key) const {
  auto it = map_.find(key);
  if (it == map_.end()) return std::nullopt;
  return it->second.value;
}

std::optional<EnvStore::Entry> EnvStore::entry(const std::string& key) const {
  auto it = map_.find(key);
  if (it == map_.end()) return std::nullopt;
  return it->second;
}

Bytes EnvStore::snapshot() const {
  return gossip::versioned_blob(mint_, body());
}

Status EnvStore::apply(const Bytes& blob) {
  auto version = gossip::blob_version(blob);
  if (!version) return version.error();
  auto body_bytes = gossip::blob_body(blob);
  if (!body_bytes) return body_bytes.error();

  // Parse the whole incoming entry list before touching the map: a
  // malformed blob must not leave a half-merged replica. Entries arrive in
  // wire order, repeats included.
  auto in = wire::decode<std::vector<std::pair<std::string, Entry>>>(
      *body_bytes, wire::Format{.max_list = kMaxWishBatch});
  if (!in) return in.error();

  for (auto& [key, inc] : *in) {
    Entry& e = map_[key];  // default-constructs version 0 when absent
    if (inc.writer == writer_ && !e.own && e.version == 0) {
      // Our own entry echoed back for a key this incarnation never wrote
      // and never merged: adopt it (it IS our latest surviving write).
      e.value = std::move(inc.value);
      e.version = inc.version;
      e.writer = inc.writer;
      continue;
    }
    if (inc.writer == writer_ && e.own && inc.version > e.version) {
      // The pre-crash ghost: an entry stamped with OUR id, above a version
      // we wrote this incarnation. Keep the current value and re-mint it
      // past the ghost so the live write dominates grid-wide instead of
      // being silently shadowed forever (see the StateStore ghost pin).
      e.version = inc.version + 1;
      ++ghost_remints_;
      continue;
    }
    if (inc.version > e.version ||
        (inc.version == e.version && inc.writer > e.writer)) {
      e.value = std::move(inc.value);
      e.version = inc.version;
      e.writer = inc.writer;
      e.own = e.own && inc.writer == writer_;
    }
    // Else: ours is fresher (or the deterministic tie-break kept it); the
    // union we re-publish below carries it back out.
  }

  // Blob-level re-mint-above-floor: never publish under a version the grid
  // has already passed. If the merge left us bit-identical to the incoming
  // snapshot, adopt its mint so replicas reach a kEqual fixpoint instead of
  // version-racing forever; otherwise mint one past the max so our union
  // wins the next digest exchange.
  const std::uint64_t floor = std::max(mint_, *version);
  mint_ = (body() == *body_bytes) ? floor : floor + 1;
  ++merges_;
  return Status{};
}

std::uint64_t EnvStore::content_digest() const {
  std::uint64_t sum = 0;
  for (const auto& [key, e] : map_) {
    std::uint64_t h = fnv1a64(key);
    h = h * 1099511628211ULL ^ fnv1a64(e.value);
    h = h * 1099511628211ULL ^ e.version;
    h = h * 1099511628211ULL ^ e.writer;
    sum += h;  // commutative fold: map order cannot matter
  }
  return sum;
}

}  // namespace ew::wish
