#include "common/crc32c.hpp"

#include <array>

namespace ew {

namespace {

constexpr std::uint32_t kPoly = 0x82F63B78u;  // Castagnoli, bit-reflected

// kTable[k][b] is the CRC register after byte b followed by k zero bytes,
// so eight table lookups advance the register over one 8-byte word.
using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr Tables make_tables() {
  Tables t{};
  for (std::uint32_t b = 0; b < 256; ++b) {
    std::uint32_t c = b;
    for (int i = 0; i < 8; ++i) c = (c >> 1) ^ ((c & 1u) != 0 ? kPoly : 0u);
    t[0][b] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::size_t b = 0; b < 256; ++b) {
      t[k][b] = (t[k - 1][b] >> 8) ^ t[0][t[k - 1][b] & 0xffu];
    }
  }
  return t;
}

constexpr Tables kTable = make_tables();

// Little-endian load of 8 bytes; compiles to one unaligned load on x86.
std::uint64_t load_le64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

}  // namespace

std::uint32_t detail::Crc32cKernels::slice8(std::span<const std::uint8_t> data,
                                            std::uint32_t crc) {
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  std::uint32_t c = ~crc;
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint64_t w = load_le64(p) ^ c;
    c = kTable[7][w & 0xff] ^ kTable[6][(w >> 8) & 0xff] ^
        kTable[5][(w >> 16) & 0xff] ^ kTable[4][(w >> 24) & 0xff] ^
        kTable[3][(w >> 32) & 0xff] ^ kTable[2][(w >> 40) & 0xff] ^
        kTable[1][(w >> 48) & 0xff] ^ kTable[0][w >> 56];
  }
  for (; n > 0; ++p, --n) c = (c >> 8) ^ kTable[0][(c ^ *p) & 0xff];
  return ~c;
}

namespace {

// The kernel chosen for this CPU, picked once at load time. The SSE4.2
// translation unit exists only where the compiler could build it;
// __builtin_cpu_supports keeps the binary runnable on any x86-64.
using Crc32cFn = std::uint32_t (*)(std::span<const std::uint8_t>, std::uint32_t);

Crc32cFn pick_kernel() {
#if defined(EW_CRC32C_SSE42)
  if (__builtin_cpu_supports("sse4.2")) return &detail::Crc32cKernels::sse42;
#endif
  return &detail::Crc32cKernels::slice8;
}

const Crc32cFn g_kernel = pick_kernel();

}  // namespace

std::uint32_t crc32c(std::span<const std::uint8_t> data, std::uint32_t crc) {
  return g_kernel(data, crc);
}

std::string_view crc32c_kernel() {
  return g_kernel == &detail::Crc32cKernels::slice8 ? "slice8" : "sse4.2";
}

}  // namespace ew
