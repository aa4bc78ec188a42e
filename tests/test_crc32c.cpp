// Tests for the CRC32C kernels behind the wire frame checksum: the RFC 3720
// vectors, agreement between the SSE4.2 and slice-by-8 kernels (up to a
// maximum-size frame, across the SSE4.2 kernel's interleaved block rounds),
// chaining, and the burst-error guarantee the frame relies on.
#include <gtest/gtest.h>

#include <algorithm>
#include <string_view>
#include <vector>

#include "common/crc32c.hpp"
#include "common/rng.hpp"
#include "common/serialize.hpp"
#include "net/packet.hpp"

namespace ew {
namespace {

using Kernel = std::uint32_t (*)(std::span<const std::uint8_t>, std::uint32_t);

struct NamedKernel {
  std::string_view name;
  Kernel fn;
};

/// The SSE4.2 kernel, or null where this build or this CPU has none.
Kernel sse42_kernel() {
#if defined(EW_CRC32C_SSE42)
  if (__builtin_cpu_supports("sse4.2")) return &detail::Crc32cKernels::sse42;
#endif
  return nullptr;
}

std::vector<NamedKernel> kernels() {
  std::vector<NamedKernel> ks{
      {"dispatched", [](std::span<const std::uint8_t> d, std::uint32_t c) {
         return crc32c(d, c);
       }},
      {"slice8", &detail::Crc32cKernels::slice8}};
  if (const Kernel k = sse42_kernel()) ks.push_back({"sse4.2", k});
  return ks;
}

Bytes random_buffer(Rng& rng, std::size_t n) {
  Bytes b(n);
  for (auto& x : b) x = static_cast<std::uint8_t>(rng.below(256));
  return b;
}

TEST(Crc32c, Rfc3720Vectors) {
  // RFC 3720 §B.4 (iSCSI) test vectors, plus the conventional check value.
  const Bytes zeros(32, 0x00);
  const Bytes ones(32, 0xFF);
  Bytes ascending(32);
  for (std::size_t i = 0; i < ascending.size(); ++i) {
    ascending[i] = static_cast<std::uint8_t>(i);
  }
  const std::string_view check = "123456789";
  const Bytes digits(check.begin(), check.end());
  for (const auto& k : kernels()) {
    SCOPED_TRACE(k.name);
    EXPECT_EQ(k.fn(zeros, 0), 0x8A9136AAu);
    EXPECT_EQ(k.fn(ones, 0), 0x62A8AB43u);
    EXPECT_EQ(k.fn(ascending, 0), 0x46DD794Eu);
    EXPECT_EQ(k.fn(digits, 0), 0xE3069283u);
    EXPECT_EQ(k.fn({}, 0), 0u);
  }
}

TEST(Crc32c, KernelNameMatchesTheDispatchedKernel) {
  const std::string_view name = crc32c_kernel();
#if defined(EW_CRC32C_SSE42)
  EXPECT_EQ(name, __builtin_cpu_supports("sse4.2") ? "sse4.2" : "slice8");
#else
  EXPECT_EQ(name, "slice8");
#endif
}

TEST(Crc32c, KernelsAgreeOnEveryLengthAndAlignment) {
  // Every length 0..9000 at all eight start offsets, so both kernels' word
  // loops and byte tails see every phase.
  Rng rng(0xC3C3);
  const Bytes buf = random_buffer(rng, 9000 + 8);
  const auto ks = kernels();
  for (std::size_t align = 0; align < 8; ++align) {
    for (std::size_t len = 0; len <= 9000; ++len) {
      const auto piece = std::span<const std::uint8_t>(buf).subspan(align, len);
      const auto seed = static_cast<std::uint32_t>(len * 2654435761u);
      const std::uint32_t want = detail::Crc32cKernels::slice8(piece, seed);
      for (const auto& k : ks) {
        ASSERT_EQ(k.fn(piece, seed), want)
            << k.name << " align " << align << " len " << len;
      }
    }
  }
}

TEST(Crc32c, KernelsAgreeAcrossInterleavedBlockBoundaries) {
  // The SSE4.2 kernel runs three crc32 streams over adjacent 8 KiB blocks
  // while 24 KiB remain, then over 256 B blocks while 768 B remain, and
  // folds the streams together with "append N zero bytes" tables. Hold it
  // to slice-by-8 around every round boundary, up to a maximum-size frame.
  // Each length runs at all eight start offsets with a nonzero incoming crc,
  // except 16 MiB, which runs at one odd offset: the test is in the
  // sanitizer lane, so the total hashed stays within 64 MiB.
  const Kernel fast = sse42_kernel();
  if (fast == nullptr) GTEST_SKIP() << "no SSE4.2 kernel in this build or on this CPU";
  constexpr std::size_t kShortRound = 3 * 256;
  constexpr std::size_t kLongRound = 3 * 8192;
  std::vector<std::size_t> lengths;
  for (std::size_t k = 1; k <= 4; ++k) {
    for (std::size_t d = 0; d <= 16; ++d) lengths.push_back(k * kShortRound + d - 8);
  }
  for (std::size_t d = 0; d <= 16; ++d) lengths.push_back(kLongRound + d - 8);
  lengths.push_back(2 * kLongRound + kShortRound - 1);
  lengths.push_back(std::size_t{1} << 20);

  Rng rng(0x5EED);
  const Bytes buf = random_buffer(rng, wire::kMaxPayload + 8);
  const std::span<const std::uint8_t> all(buf);
  std::size_t hashed = 0;
  const auto agree = [&](std::span<const std::uint8_t> piece, std::uint32_t seed) {
    hashed += 2 * piece.size();
    return fast(piece, seed) == detail::Crc32cKernels::slice8(piece, seed);
  };
  for (const std::size_t len : lengths) {
    const auto seed = static_cast<std::uint32_t>(len * 2654435761u) | 1u;
    for (std::size_t align = 0; align < 8; ++align) {
      ASSERT_TRUE(agree(all.subspan(align, len), seed))
          << "align " << align << " len " << len;
    }
  }
  ASSERT_TRUE(agree(all.subspan(3, wire::kMaxPayload), 0x9E3779B9u))
      << "len " << wire::kMaxPayload;

  // crc32c(a ++ b), chained, with the cut on every 256 B block boundary of a
  // buffer one long round, two short rounds and a word long, so each piece
  // starts and ends its rounds somewhere different from the whole.
  const auto whole = all.subspan(5, kLongRound + 2 * kShortRound + 8);
  const std::uint32_t want = detail::Crc32cKernels::slice8(whole, 0x01234567u);
  hashed += whole.size();
  for (std::size_t cut = 0; cut <= whole.size(); cut += 256) {
    ASSERT_EQ(fast(whole.subspan(cut), fast(whole.first(cut), 0x01234567u)), want)
        << "cut " << cut;
    hashed += whole.size();
  }
  EXPECT_LE(hashed, std::size_t{64} << 20);
}

TEST(Crc32c, ChainsAcrossPieces) {
  Rng rng(0xABCD);
  const Bytes buf = random_buffer(rng, 777);
  const std::span<const std::uint8_t> all(buf);
  for (const auto& k : kernels()) {
    SCOPED_TRACE(k.name);
    const std::uint32_t whole = k.fn(all, 0);
    for (std::size_t cut = 0; cut <= buf.size(); ++cut) {
      ASSERT_EQ(k.fn(all.subspan(cut), k.fn(all.first(cut), 0)), whole)
          << "cut " << cut;
    }
  }
}

TEST(Crc32c, CatchesEveryBurstUpTo32BitsIn4KiB) {
  // A burst of length L flips its first and last bit and any bits between.
  // A degree-32 CRC with a nonzero constant term detects every burst of
  // L <= 32 (FNV-1a, the v2 frame sum, promises nothing of the kind). For
  // every start bit and every length, flip one such burst — first and last
  // bit set, interior seeded — and require a different CRC. The prefix
  // state is reused so each trial only re-hashes the damaged tail.
  Rng rng(0xB0B0);
  const Bytes clean = random_buffer(rng, 4096);
  const std::span<const std::uint8_t> all(clean);
  const std::uint32_t want = crc32c(all);
  std::vector<std::uint32_t> prefix(clean.size() + 1);
  for (std::size_t i = 0; i < clean.size(); ++i) {
    prefix[i + 1] = crc32c(all.subspan(i, 1), prefix[i]);
  }
  const std::size_t bits = clean.size() * 8;
  std::size_t trials = 0;
  for (std::size_t start = 0; start < bits; ++start) {
    for (std::size_t len = 1; len <= 32 && start + len <= bits; ++len) {
      std::uint64_t burst = 1;  // bit 0 = the burst's first bit
      if (len > 1) {
        const std::uint64_t inner = rng.below(std::uint64_t{1} << (len - 1));
        burst |= (inner << 1) | (std::uint64_t{1} << (len - 1));
      }
      // Lay the burst onto bytes [first, first + 5) of a local copy.
      const std::size_t first = start / 8;
      const std::size_t span = std::min<std::size_t>(5, clean.size() - first);
      std::uint8_t window[5];
      const std::uint64_t shifted = burst << (start % 8);
      for (std::size_t i = 0; i < span; ++i) {
        window[i] = clean[first + i] ^ static_cast<std::uint8_t>(shifted >> (8 * i));
      }
      const std::uint32_t crc = crc32c(
          all.subspan(first + span),
          crc32c(std::span<const std::uint8_t>(window, span), prefix[first]));
      ASSERT_NE(crc, want) << "start bit " << start << " len " << len;
      ++trials;
    }
  }
  EXPECT_GT(trials, 1'000'000u);
}

}  // namespace
}  // namespace ew
