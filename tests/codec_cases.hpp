// The codec property suite: every message from wire_samples.hpp as one
// type-erased case, and the properties every decoder must have. test_fuzz
// runs them over the gossip, scheduler, NWS and directory families, and
// test_wish over the WISH family.
#pragma once

#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "common/wire.hpp"
#include "wire_samples.hpp"

namespace ew::codec_cases {

struct CodecCase {
  std::string name;
  Bytes valid;  // the sample's encoding
  /// Decode, then re-encode; nullopt when the decoder rejects.
  std::function<std::optional<Bytes>(const Bytes&)> reencode;
  std::vector<std::size_t> counts;  // byte offsets of every list count in `valid`
  wire::Format format;              // envelope and list ceiling
};

template <class T>
void describe(const T& msg, CodecCase& c) {
  c.counts = wire::count_offsets(msg);
  if constexpr (requires { T::kWire; }) c.format = T::kWire;
}
inline void describe(const wire_samples::TypeList& s, CodecCase& c) {
  c.counts = wire::count_offsets(s.types);
  c.format = gossip::kGossipWire;
}
inline void describe(const wire_samples::BlobList& s, CodecCase& c) {
  c.counts = wire::count_offsets(s.blobs);
  c.format = gossip::kGossipWire;
}
inline void describe(const wire_samples::EnvBlob&, CodecCase& c) {
  c.counts = {8};  // the entry count follows the blob's u64 mint
  c.format.max_list = wish::kMaxWishBatch;
}

/// The cases of the WISH family (`wish`) or of every other family.
inline std::vector<CodecCase> cases(bool wish) {
  std::vector<CodecCase> out;
  wire_samples::for_each_sample([&](const char* name, const auto& sample) {
    using T = std::decay_t<decltype(sample)>;
    if (std::string(name).starts_with("wish.") != wish) return;
    CodecCase c{name, sample.serialize(),
                [](const Bytes& b) -> std::optional<Bytes> {
                  auto d = T::deserialize(b);
                  if (!d.ok()) return std::nullopt;
                  return d->serialize();
                },
                {}, {}};
    describe(sample, c);
    out.push_back(std::move(c));
  });
  return out;
}

inline Bytes prefix(const Bytes& b, std::size_t len) {
  return Bytes(b.begin(), b.begin() + static_cast<std::ptrdiff_t>(len));
}

inline void expect_round_trips(const std::vector<CodecCase>& cs) {
  for (const auto& c : cs) {
    const auto back = c.reencode(c.valid);
    ASSERT_TRUE(back.has_value()) << c.name;
    EXPECT_EQ(*back, c.valid) << c.name;
  }
}

inline void expect_strict_prefixes_rejected(const std::vector<CodecCase>& cs) {
  for (const auto& c : cs) {
    for (std::size_t len = 0; len < c.valid.size(); ++len) {
      EXPECT_FALSE(c.reencode(prefix(c.valid, len))) << c.name << " prefix " << len;
    }
  }
}

/// Version 0, a future version and a wrong kind are each rejected.
inline void expect_envelope_enforced(const std::vector<CodecCase>& cs) {
  int enveloped = 0;
  for (const auto& c : cs) {
    if (c.format.version == 0) continue;
    ++enveloped;
    Bytes v0 = c.valid;
    v0[0] = 0;
    EXPECT_FALSE(c.reencode(v0)) << c.name << " version 0";
    Bytes future = c.valid;
    future[0] = static_cast<std::uint8_t>(c.format.version + 1);
    EXPECT_FALSE(c.reencode(future)) << c.name << " future version";
    Bytes wrong_kind = c.valid;
    wrong_kind[1] ^= 0xff;  // low byte of the u16 kind
    EXPECT_FALSE(c.reencode(wrong_kind)) << c.name << " wrong kind";
  }
  EXPECT_GT(enveloped, 0);
}

/// At every list count: one past the family ceiling and the largest u32
/// are rejected with the rest of the encoding intact, and any count with
/// no elements behind it is rejected before a vector is sized.
inline void expect_hostile_counts_rejected(const std::vector<CodecCase>& cs) {
  std::size_t lists = 0;
  for (const auto& c : cs) {
    lists += c.counts.size();
    for (std::size_t at : c.counts) {
      for (std::uint32_t count : {c.format.max_list + 1, 0xFFFF'FFFFu, 1000u}) {
        Bytes m = c.valid;
        for (int i = 0; i < 4; ++i) m[at + i] = static_cast<std::uint8_t>(count >> (8 * i));
        if (count != 1000u) {
          EXPECT_FALSE(c.reencode(m)) << c.name << " @" << at << " " << count;
        }
        EXPECT_FALSE(c.reencode(prefix(m, at + 4))) << c.name << " @" << at << " bare " << count;
      }
    }
  }
  EXPECT_GT(lists, 0u);
}

/// Random bytes decode to ok-or-error, never a crash, and are rarely valid.
inline void expect_random_bytes_survived(const std::vector<CodecCase>& cs, std::uint64_t seed) {
  Rng rng(seed);
  for (const auto& c : cs) {
    int accepted = 0;
    for (int i = 0; i < 2000; ++i) {
      Bytes junk(rng.below(257));
      for (auto& b : junk) b = static_cast<std::uint8_t>(rng.below(256));
      accepted += c.reencode(junk) ? 1 : 0;
    }
    EXPECT_LT(accepted, 400) << c.name;
  }
}

/// Every single-byte corruption and every truncation of a valid encoding
/// decodes to ok-or-error, never a crash.
inline void expect_bit_flips_survived(const std::vector<CodecCase>& cs) {
  for (const auto& c : cs) {
    for (std::size_t pos = 0; pos < c.valid.size(); ++pos) {
      for (std::uint8_t flip : {0x01, 0x80, 0xFF}) {
        Bytes mutated = c.valid;
        mutated[pos] ^= flip;
        c.reencode(mutated);
      }
    }
    for (std::size_t len = 0; len < c.valid.size(); ++len) c.reencode(prefix(c.valid, len));
  }
}

}  // namespace ew::codec_cases
