#include "stats/fft.h"

#include <cmath>
#include <numbers>

#include "common/check.h"
#include "stats/descriptive.h"
#include "stats/kernels/kernels.h"

namespace cloudlens::stats {

std::size_t next_pow2(std::size_t n) {
  CL_CHECK(n >= 1);
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

void fft_inplace(std::vector<std::complex<double>>& data, bool inverse) {
  const std::size_t n = data.size();
  CL_CHECK_MSG(n > 0 && (n & (n - 1)) == 0, "FFT size must be a power of two");

  // Bit-reversal permutation.
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(data[i], data[j]);
  }

  // Butterflies on raw components (std::complex<double> is
  // layout-compatible with double[2]). Two wins over the operator-based
  // loop, with bit-identical results: the per-stage twiddle recurrence is
  // hoisted into a table (each block used to re-run the same serial
  // w *= wlen chain, which also stalled the butterfly pipeline), and the
  // manual multiply avoids the library complex-multiply call while
  // computing the exact same (ac - bd, ad + bc) expressions.
  auto* d = reinterpret_cast<double*>(data.data());
  std::vector<double> twiddle(n);  // interleaved re/im, sized for len == n
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    const double angle =
        2.0 * std::numbers::pi / static_cast<double>(len) * (inverse ? 1 : -1);
    const double wr0 = std::cos(angle);
    const double wi0 = std::sin(angle);
    double wr = 1.0, wi = 0.0;
    for (std::size_t k = 0; k < half; ++k) {
      twiddle[2 * k] = wr;
      twiddle[2 * k + 1] = wi;
      const double next_wr = wr * wr0 - wi * wi0;
      wi = wr * wi0 + wi * wr0;
      wr = next_wr;
    }
    // Butterfly stage kernel; the AVX2 path computes the exact scalar
    // expressions per lane, so the transform is bit-identical on both
    // kernel paths.
    kernels::fft_stage(d, n, len, twiddle.data());
  }
  if (inverse) {
    const double inv = static_cast<double>(n);
    for (std::size_t i = 0; i < 2 * n; ++i) d[i] /= inv;
  }
}

std::vector<double> periodogram(std::span<const double> xs) {
  CL_CHECK(xs.size() >= 2);
  const double m = mean(xs);
  const std::size_t n = next_pow2(xs.size());
  std::vector<std::complex<double>> buf(n, {0.0, 0.0});
  for (std::size_t i = 0; i < xs.size(); ++i) buf[i] = xs[i] - m;
  fft_inplace(buf, /*inverse=*/false);
  std::vector<double> p(n / 2 + 1);
  for (std::size_t k = 0; k <= n / 2; ++k)
    p[k] = std::norm(buf[k]) / static_cast<double>(n);
  return p;
}

std::vector<double> autocorrelation(std::span<const double> xs) {
  CL_CHECK(xs.size() >= 2);
  const double m = mean(xs);
  const std::size_t n = xs.size();
  // Zero-pad to 2n to avoid circular wrap-around.
  const std::size_t padded = next_pow2(2 * n);
  std::vector<std::complex<double>> buf(padded, {0.0, 0.0});
  for (std::size_t i = 0; i < n; ++i) buf[i] = xs[i] - m;
  fft_inplace(buf, false);
  for (auto& x : buf) x = std::complex<double>(std::norm(x), 0.0);
  fft_inplace(buf, true);

  std::vector<double> acf(n, 0.0);
  const double denom = buf[0].real();
  if (denom <= 0.0) {
    acf[0] = 1.0;  // constant series: define ACF as delta
    return acf;
  }
  for (std::size_t lag = 0; lag < n; ++lag)
    acf[lag] = buf[lag].real() / denom;
  return acf;
}

}  // namespace cloudlens::stats
