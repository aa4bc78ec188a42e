// SSE4.2 build of the CRC32C kernel. This translation unit is the only one
// compiled with -msse4.2 (see CMakeLists.txt); crc32c.cpp dispatches here
// at load time only when the CPU reports SSE4.2.
//
// One crc32 instruction chain is bound by the instruction's latency (three
// cycles per 8 bytes on current x86), so long inputs run three independent
// chains over adjacent blocks: 8 KiB blocks while 24 KiB remain, then 256 B
// blocks while 768 B remain. Each round folds the three block CRCs into one
// with "append N zero bytes" tables (the scheme of Intel's iSCSI CRC white
// paper and Mark Adler's crc32c.c). What is left, and every input under
// 768 B, runs the single chain over 8-byte words and then the 0..7 byte
// tail. Unaligned words are read through memcpy.
#include "common/crc32c.hpp"

#if defined(EW_CRC32C_SSE42)

#include <nmmintrin.h>

#include <array>
#include <cstring>

namespace ew {

namespace {

constexpr std::uint32_t kPoly = 0x82F63B78u;  // Castagnoli, bit-reflected
constexpr std::size_t kLongBlock = 8192;
constexpr std::size_t kShortBlock = 256;

// A linear map on the (uninverted) 32-bit CRC register, given by the images
// of its 32 basis bits.
using Gf2Matrix = std::array<std::uint32_t, 32>;

constexpr std::uint32_t apply(const Gf2Matrix& m, std::uint32_t v) {
  std::uint32_t r = 0;
  for (std::size_t i = 0; v != 0; ++i, v >>= 1) {
    if ((v & 1u) != 0) r ^= m[i];
  }
  return r;
}

// The register after feeding it `bytes` zero bytes, a power of two: start
// from one zero bit and square the map until it covers 8 * bytes bits.
constexpr Gf2Matrix zeros_operator(std::size_t bytes) {
  Gf2Matrix m{};
  m[0] = kPoly;
  for (std::size_t i = 1; i < m.size(); ++i) m[i] = 1u << (i - 1);
  for (std::size_t bits = 1; bits < 8 * bytes; bits *= 2) {
    Gf2Matrix sq{};
    for (std::size_t i = 0; i < m.size(); ++i) sq[i] = apply(m, m[i]);
    m = sq;
  }
  return m;
}

// The same map as four byte-indexed tables: shift() advances a register
// over `bytes` zero bytes with four lookups.
using ZerosTable = std::array<std::array<std::uint32_t, 256>, 4>;

constexpr ZerosTable make_zeros_table(std::size_t bytes) {
  const Gf2Matrix m = zeros_operator(bytes);
  ZerosTable t{};
  for (std::size_t k = 0; k < t.size(); ++k) {
    for (std::uint32_t b = 0; b < 256; ++b) t[k][b] = apply(m, b << (8 * k));
  }
  return t;
}

constexpr ZerosTable kLongZeros = make_zeros_table(kLongBlock);
constexpr ZerosTable kShortZeros = make_zeros_table(kShortBlock);

std::uint64_t shift(const ZerosTable& t, std::uint64_t crc) {
  return t[0][crc & 0xff] ^ t[1][(crc >> 8) & 0xff] ^ t[2][(crc >> 16) & 0xff] ^
         t[3][(crc >> 24) & 0xff];
}

std::uint64_t load64(const std::uint8_t* p) {
  std::uint64_t w;
  std::memcpy(&w, p, sizeof w);
  return w;
}

// Rounds of three adjacent Block-byte blocks while 3 * Block bytes remain.
// The CRC register is linear in (start state, data), so the register over
// a ++ b is the register over a advanced by |b| zero bytes, XOR the
// register over b from zero.
template <std::size_t Block>
void three_way(const std::uint8_t*& p, std::size_t& n, std::uint64_t& c,
               const ZerosTable& zeros) {
  for (; n >= 3 * Block; p += 3 * Block, n -= 3 * Block) {
    std::uint64_t c1 = 0;
    std::uint64_t c2 = 0;
    for (std::size_t i = 0; i < Block; i += 8) {
      c = _mm_crc32_u64(c, load64(p + i));
      c1 = _mm_crc32_u64(c1, load64(p + Block + i));
      c2 = _mm_crc32_u64(c2, load64(p + 2 * Block + i));
    }
    c = shift(zeros, c) ^ c1;
    c = shift(zeros, c) ^ c2;
  }
}

}  // namespace

std::uint32_t detail::Crc32cKernels::sse42(std::span<const std::uint8_t> data,
                                           std::uint32_t crc) {
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  std::uint64_t c = ~crc;
  three_way<kLongBlock>(p, n, c, kLongZeros);
  three_way<kShortBlock>(p, n, c, kShortZeros);
  for (; n >= 8; p += 8, n -= 8) c = _mm_crc32_u64(c, load64(p));
  auto c32 = static_cast<std::uint32_t>(c);
  for (; n > 0; ++p, --n) c32 = _mm_crc32_u8(c32, *p);
  return ~c32;
}

}  // namespace ew

#endif  // EW_CRC32C_SSE42
