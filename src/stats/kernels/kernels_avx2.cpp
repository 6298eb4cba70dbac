// AVX2 kernel variants (four double / four 64-bit integer lanes).
//
// This translation unit is compiled with -mavx2 when the compiler
// supports it. To keep AVX2 code from leaking into other TUs through
// COMDAT folding, nothing here touches shared inline/template code: the
// bodies are raw pointers and intrinsics only (see kernels_impl.h for
// the rationale). kernels.cpp runs these functions only after
// __builtin_cpu_supports("avx2") returned true.
//
// Bit-exactness notes:
//  - fft_stage: _mm256_addsub_pd yields exactly the scalar expressions
//    vr = xr·tr − xi·ti and vi = xi·tr + xr·ti per lane.
//  - hash_normal_fill: 64-bit lane multiplies are emulated exactly from
//    32-bit partial products, and u64→f64 uses an exact split
//    conversion, so the SplitMix64 stream is bit-identical per lane.
#include "stats/kernels/kernels_impl.h"

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace cloudlens::stats::kernels::detail {

#if defined(__AVX2__)

namespace {

/// Exact 64×64→low-64 multiply from 32-bit partial products.
inline __m256i mul64(__m256i a, __m256i b) {
  const __m256i a_hi = _mm256_srli_epi64(a, 32);
  const __m256i b_hi = _mm256_srli_epi64(b, 32);
  const __m256i lo = _mm256_mul_epu32(a, b);
  const __m256i cross =
      _mm256_add_epi64(_mm256_mul_epu32(a_hi, b), _mm256_mul_epu32(a, b_hi));
  return _mm256_add_epi64(lo, _mm256_slli_epi64(cross, 32));
}

/// Exact u64→f64 for values < 2^53 (32-bit halves via the 2^52
/// magic-number trick; recombination is exact below 2^53).
inline __m256d u64_to_f64(__m256i x) {
  const __m256d magic = _mm256_set1_pd(0x1.0p52);
  const __m256i magic_bits = _mm256_castpd_si256(magic);
  const __m256i lo32 = _mm256_and_si256(x, _mm256_set1_epi64x(0xFFFFFFFFLL));
  const __m256i hi32 = _mm256_srli_epi64(x, 32);
  const __m256d d_lo =
      _mm256_sub_pd(_mm256_castsi256_pd(_mm256_or_si256(lo32, magic_bits)),
                    magic);
  const __m256d d_hi =
      _mm256_sub_pd(_mm256_castsi256_pd(_mm256_or_si256(hi32, magic_bits)),
                    magic);
  return _mm256_add_pd(_mm256_mul_pd(d_hi, _mm256_set1_pd(0x1.0p32)), d_lo);
}

/// One SplitMix64 output per lane; advances the state in place.
inline __m256i splitmix_next(__m256i& state) {
  state = _mm256_add_epi64(state, _mm256_set1_epi64x(0x9e3779b97f4a7c15LL));
  __m256i z = state;
  z = mul64(
      _mm256_xor_si256(z, _mm256_srli_epi64(z, 30)),
      _mm256_set1_epi64x(static_cast<long long>(0xbf58476d1ce4e5b9ULL)));
  z = mul64(
      _mm256_xor_si256(z, _mm256_srli_epi64(z, 27)),
      _mm256_set1_epi64x(static_cast<long long>(0x94d049bb133111ebULL)));
  return _mm256_xor_si256(z, _mm256_srli_epi64(z, 31));
}

/// Uniform [0,1) from one SplitMix64 draw (same bits as Rng::uniform).
inline __m256d splitmix_uniform(__m256i& state) {
  return _mm256_mul_pd(u64_to_f64(_mm256_srli_epi64(splitmix_next(state), 11)),
                       _mm256_set1_pd(0x1.0p-53));
}

}  // namespace

void fft_stage_avx2(double* data, std::size_t n, std::size_t len,
                    const double* twiddle) {
  if (len < 4) {
    // half == 1: a ymm vector would span two butterflies' worth of
    // non-adjacent data. The scalar loop is already optimal here.
    fft_stage_scalar(data, n, len, twiddle);
    return;
  }
  const std::size_t half = len / 2;  // >= 2, always even below
  for (std::size_t i = 0; i < n; i += len) {
    for (std::size_t k = 0; k < half; k += 2) {
      double* pa = data + 2 * (i + k);
      double* pb = data + 2 * (i + k + half);
      const __m256d u = _mm256_loadu_pd(pa);
      const __m256d xv = _mm256_loadu_pd(pb);
      const __m256d t = _mm256_loadu_pd(twiddle + 2 * k);
      const __m256d t_re = _mm256_movedup_pd(t);       // [tr0 tr0 tr1 tr1]
      const __m256d t_im = _mm256_permute_pd(t, 0xF);  // [ti0 ti0 ti1 ti1]
      const __m256d x_sw = _mm256_permute_pd(xv, 0x5);  // swap re/im pairs
      // addsub: even lanes subtract, odd lanes add →
      // [xr·tr − xi·ti, xi·tr + xr·ti] per complex: exactly vr, vi.
      const __m256d v = _mm256_addsub_pd(_mm256_mul_pd(xv, t_re),
                                         _mm256_mul_pd(x_sw, t_im));
      _mm256_storeu_pd(pa, _mm256_add_pd(u, v));
      _mm256_storeu_pd(pb, _mm256_sub_pd(u, v));
    }
  }
}

void gather_columns_avx2(const double* const* rows, std::size_t nrows,
                         std::size_t c0, std::size_t bw, double* colbuf) {
  if (bw != kBandBlockCols) {
    gather_columns_scalar(rows, nrows, c0, bw, colbuf);
    return;
  }
  std::size_t r = 0;
  for (; r + 4 <= nrows; r += 4) {
    // 4×4 in-register transpose: four row fragments → four column slices.
    const __m256d r0 = _mm256_loadu_pd(rows[r] + c0);
    const __m256d r1 = _mm256_loadu_pd(rows[r + 1] + c0);
    const __m256d r2 = _mm256_loadu_pd(rows[r + 2] + c0);
    const __m256d r3 = _mm256_loadu_pd(rows[r + 3] + c0);
    const __m256d t0 = _mm256_unpacklo_pd(r0, r1);  // [r0c0 r1c0 r0c2 r1c2]
    const __m256d t1 = _mm256_unpackhi_pd(r0, r1);  // [r0c1 r1c1 r0c3 r1c3]
    const __m256d t2 = _mm256_unpacklo_pd(r2, r3);
    const __m256d t3 = _mm256_unpackhi_pd(r2, r3);
    _mm256_storeu_pd(colbuf + 0 * nrows + r,
                     _mm256_permute2f128_pd(t0, t2, 0x20));
    _mm256_storeu_pd(colbuf + 1 * nrows + r,
                     _mm256_permute2f128_pd(t1, t3, 0x20));
    _mm256_storeu_pd(colbuf + 2 * nrows + r,
                     _mm256_permute2f128_pd(t0, t2, 0x31));
    _mm256_storeu_pd(colbuf + 3 * nrows + r,
                     _mm256_permute2f128_pd(t1, t3, 0x31));
  }
  for (; r < nrows; ++r) {
    const double* row = rows[r] + c0;
    for (std::size_t j = 0; j < 4; ++j) colbuf[j * nrows + r] = row[j];
  }
}

void hash_normal_fill_avx2(std::uint64_t seed, const std::int64_t* keys,
                           std::size_t n, double* out) {
  const __m256i vseed = _mm256_set1_epi64x(static_cast<long long>(seed));
  const __m256i mix =
      _mm256_set1_epi64x(static_cast<long long>(0x2545f4914f6cdd1dULL));
  const __m256d two = _mm256_set1_pd(2.0);
  const __m256d sqrt3 = _mm256_set1_pd(1.7320508075688772);  // sqrt(3.0)
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i k = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(keys + i));
    __m256i state = _mm256_xor_si256(vseed, mul64(k, mix));
    __m256d sum = splitmix_uniform(state);
    sum = _mm256_add_pd(sum, splitmix_uniform(state));
    sum = _mm256_add_pd(sum, splitmix_uniform(state));
    sum = _mm256_add_pd(sum, splitmix_uniform(state));
    _mm256_storeu_pd(out + i, _mm256_mul_pd(_mm256_sub_pd(sum, two), sqrt3));
  }
  if (i < n) hash_normal_fill_scalar(seed, keys + i, n - i, out + i);
}

#else  // compiler cannot target AVX2: forward to the oracle, so the
       // AVX2 path of this build runs the scalar bytes.

void fft_stage_avx2(double* data, std::size_t n, std::size_t len,
                    const double* twiddle) {
  fft_stage_scalar(data, n, len, twiddle);
}
void gather_columns_avx2(const double* const* rows, std::size_t nrows,
                         std::size_t c0, std::size_t bw, double* colbuf) {
  gather_columns_scalar(rows, nrows, c0, bw, colbuf);
}
void hash_normal_fill_avx2(std::uint64_t seed, const std::int64_t* keys,
                           std::size_t n, double* out) {
  hash_normal_fill_scalar(seed, keys, n, out);
}

#endif

}  // namespace cloudlens::stats::kernels::detail
