// AVX2 build of the ordered-window rebuild kernel. This translation
// unit is the only one compiled with -mavx2 (see CMakeLists.txt); the rest
// of the library stays at the baseline ISA and stats.cpp dispatches here at
// load time only when the CPU reports AVX2. The algorithm is the same
// branchless two-sweep rebuild as sorted_slide_generic — fused rank count,
// then a fixed-trip blend into the spare buffer — just four lanes wide, so
// read that function first. Results are bit-identical: both kernels only
// move values, never compute with them.
#include "common/stats.hpp"

#if defined(EW_ORDERED_WINDOW_AVX2)

#include <immintrin.h>

#include <cstdint>

namespace ew {

void detail::sorted_slide_avx2(const double* in, double* out, std::size_t n,
                               double evicted, double x) {
  // Sweep 1: fused rank count.
  const __m256d va = _mm256_set1_pd(evicted);
  const __m256d vb = _mm256_set1_pd(x);
  __m256i clt = _mm256_setzero_si256();
  __m256i cle = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_loadu_pd(in + i);
    clt = _mm256_sub_epi64(clt,
                           _mm256_castpd_si256(_mm256_cmp_pd(v, va, _CMP_LT_OQ)));
    cle = _mm256_sub_epi64(cle,
                           _mm256_castpd_si256(_mm256_cmp_pd(v, vb, _CMP_LE_OQ)));
  }
  const __m128i hlt = _mm_add_epi64(_mm256_castsi256_si128(clt),
                                    _mm256_extracti128_si256(clt, 1));
  const __m128i hle = _mm_add_epi64(_mm256_castsi256_si128(cle),
                                    _mm256_extracti128_si256(cle, 1));
  std::size_t epos = static_cast<std::uint64_t>(
      _mm_cvtsi128_si64(_mm_add_epi64(hlt, _mm_unpackhi_epi64(hlt, hlt))));
  std::size_t ipos = static_cast<std::uint64_t>(
      _mm_cvtsi128_si64(_mm_add_epi64(hle, _mm_unpackhi_epi64(hle, hle))));
  for (; i < n; ++i) {
    epos += in[i] < evicted ? 1u : 0u;
    ipos += in[i] <= x ? 1u : 0u;
  }

  // Sweep 2: fixed-trip rebuild into the spare buffer.
  const bool leftward = epos < ipos;
  const std::ptrdiff_t d = leftward ? 1 : -1;
  const std::size_t lo = leftward ? epos : ipos + 1;
  const std::size_t hi = leftward ? ipos - 1 : epos + 1;
  const std::size_t slot = leftward ? ipos - 1 : ipos;
  const __m256d vlo = _mm256_set1_pd(static_cast<double>(lo));
  const __m256d vhi = _mm256_set1_pd(static_cast<double>(hi));
  __m256d iota = _mm256_set_pd(3.0, 2.0, 1.0, 0.0);
  const __m256d four = _mm256_set1_pd(4.0);
  for (std::size_t j = 0; j < n; j += 4) {
    const __m256d plain = _mm256_loadu_pd(in + j);
    const __m256d shifted = _mm256_loadu_pd(in + j + d);
    const __m256d m = _mm256_and_pd(_mm256_cmp_pd(iota, vlo, _CMP_GE_OQ),
                                    _mm256_cmp_pd(iota, vhi, _CMP_LT_OQ));
    _mm256_storeu_pd(out + j, _mm256_blendv_pd(plain, shifted, m));
    iota = _mm256_add_pd(iota, four);
  }
  out[slot] = x;
}

}  // namespace ew

#endif  // EW_ORDERED_WINDOW_AVX2
