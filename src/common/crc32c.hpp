// CRC32C (Castagnoli polynomial 0x1EDC6F41, reflected 0x82F63B78) — the
// iSCSI/ext4 checksum, used for the wire frame (net/packet.hpp).
//
// One entry point, dispatched once at load time by CPU capability (the
// same scheme as the OrderedWindow kernels in stats.cpp): the SSE4.2
// crc32 instruction where the CPU has it, a portable slice-by-8 table
// kernel elsewhere. The SSE4.2 kernel runs three interleaved instruction
// streams over inputs of 768 B and more and folds them with "append N zero
// bytes" tables (crc32c_sse42.cpp). Both kernels compute the same
// function; tests hold them to each other up to a 16 MiB frame.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

namespace ew {

/// CRC32C of `data`. `crc` is the CRC of the bytes that precede `data`
/// (0 for none), so a checksum extends across pieces:
/// crc32c(a ++ b) == crc32c(b, crc32c(a)).
std::uint32_t crc32c(std::span<const std::uint8_t> data, std::uint32_t crc = 0);

/// Name of the kernel crc32c() dispatches to: "sse4.2" or "slice8".
std::string_view crc32c_kernel();

namespace detail {
/// Backdoor to the individual kernels, for tests that hold them to each
/// other. Same contract as crc32c().
struct Crc32cKernels {
  static std::uint32_t slice8(std::span<const std::uint8_t> data,
                              std::uint32_t crc);
#if defined(EW_CRC32C_SSE42)
  static std::uint32_t sse42(std::span<const std::uint8_t> data,
                             std::uint32_t crc);
#endif
};
}  // namespace detail

}  // namespace ew
