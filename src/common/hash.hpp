// Stable (process-independent) hashing.
//
// Gossips partition synchronization responsibility among themselves by
// rendezvous hashing (Section 2.3: responsibility is "dynamically
// partitioned ... amongst themselves"). Every gossip must compute identical
// hashes, so std::hash (implementation-defined) is out; FNV-1a is fixed.
#pragma once

#include <cstdint>
#include <string_view>

namespace ew {

/// FNV-1a offset basis (14695981039346656037): the start of every chain.
inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

/// Fold the bytes of `s` into the FNV-1a state `h`.
constexpr std::uint64_t fnv_mix(std::uint64_t h, std::string_view s) {
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Fold the eight bytes of `v` into `h`, low byte first — shifts, not a
/// memory view, so the value is the same on every byte order.
constexpr std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// 64-bit FNV-1a.
constexpr std::uint64_t fnv1a64(std::string_view s) {
  return fnv_mix(kFnvBasis, s);
}

/// Rendezvous weight of `owner` for `item`: the owner with the highest
/// weight is responsible for the item.
constexpr std::uint64_t rendezvous_weight(std::string_view owner,
                                          std::string_view item) {
  std::uint64_t h = fnv1a64(owner);
  // Mix the two hashes (splitmix64 finalizer).
  std::uint64_t z = h ^ fnv1a64(item);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace ew
