// SSE4.2 build of the CRC32C kernel. This translation unit is the only one
// compiled with -msse4.2 (see CMakeLists.txt); crc32c.cpp dispatches here
// at load time only when the CPU reports SSE4.2. One crc32 instruction
// stream over 8-byte words, then the 0..7 byte tail; unaligned words are
// read through memcpy.
#include "common/crc32c.hpp"

#if defined(EW_CRC32C_SSE42)

#include <nmmintrin.h>

#include <cstring>

namespace ew {

std::uint32_t detail::Crc32cKernels::sse42(std::span<const std::uint8_t> data,
                                           std::uint32_t crc) {
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  std::uint64_t c = ~crc;
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t w;
    std::memcpy(&w, p, sizeof w);
    c = _mm_crc32_u64(c, w);
  }
  auto c32 = static_cast<std::uint32_t>(c);
  for (; n > 0; ++p, --n) c32 = _mm_crc32_u8(c32, *p);
  return ~c32;
}

}  // namespace ew

#endif  // EW_CRC32C_SSE42
