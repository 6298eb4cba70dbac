// Scalar reference: the byte-level oracle for the vectorized kernel
// families, and the only path off x86.
//
// These loops are verbatim the code the callers ran before the kernel
// seam existed (series.cpp's column gather, fft.cpp's butterfly inner
// loop, patterns.cpp's hash_normal); the AVX2 variants are pinned to
// these bytes.
#include <cmath>

#include "common/rng.h"
#include "stats/kernels/kernels.h"
#include "stats/kernels/kernels_impl.h"

namespace cloudlens::stats::kernels {

double hash_normal_one(std::uint64_t seed, std::int64_t key) {
  // Irwin–Hall with n = 4: mean 2, variance 4/12; rescale to N(0,1) approx.
  SplitMix64 sm(seed ^
                (static_cast<std::uint64_t>(key) * 0x2545f4914f6cdd1dULL));
  double sum = 0;
  for (int i = 0; i < 4; ++i)
    sum += static_cast<double>(sm.next() >> 11) * 0x1.0p-53;
  return (sum - 2.0) * std::sqrt(3.0);
}

namespace detail {

void fft_stage_scalar(double* data, std::size_t n, std::size_t len,
                      const double* twiddle) {
  const std::size_t half = len / 2;
  for (std::size_t i = 0; i < n; i += len) {
    for (std::size_t k = 0; k < half; ++k) {
      const std::size_t a = 2 * (i + k);
      const std::size_t b = 2 * (i + k + half);
      const double ur = data[a], ui = data[a + 1];
      const double xr = data[b], xi = data[b + 1];
      const double tr = twiddle[2 * k], ti = twiddle[2 * k + 1];
      const double vr = xr * tr - xi * ti;
      const double vi = xr * ti + xi * tr;
      data[a] = ur + vr;
      data[a + 1] = ui + vi;
      data[b] = ur - vr;
      data[b + 1] = ui - vi;
    }
  }
}

void gather_columns_scalar(const double* const* rows, std::size_t nrows,
                           std::size_t c0, std::size_t bw, double* colbuf) {
  for (std::size_t r = 0; r < nrows; ++r) {
    const double* row = rows[r] + c0;
    for (std::size_t j = 0; j < bw; ++j) colbuf[j * nrows + r] = row[j];
  }
}

void hash_normal_fill_scalar(std::uint64_t seed, const std::int64_t* keys,
                             std::size_t n, double* out) {
  for (std::size_t i = 0; i < n; ++i) out[i] = hash_normal_one(seed, keys[i]);
}

}  // namespace detail
}  // namespace cloudlens::stats::kernels
