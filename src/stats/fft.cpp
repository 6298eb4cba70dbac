#include "stats/fft.h"

#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <mutex>
#include <numbers>
#include <utility>

#include "common/check.h"
#include "stats/descriptive.h"
#include "stats/kernels/kernels.h"

namespace cloudlens::stats {
namespace {

/// What a transform of one power-of-two size needs that depends only on
/// the size: the bit-reversal permutation as its disjoint swaps, and each
/// stage's twiddle table for both directions.
struct FftPlan {
  std::vector<std::pair<std::size_t, std::size_t>> swaps;
  /// twiddles[inverse] holds the stage tables back to back, len = 2, 4,
  /// …, n: stage len's len/2 interleaved (re, im) factors start at
  /// double offset len - 2 (n - 1 factors in all).
  std::array<std::vector<double>, 2> twiddles;
};

FftPlan build_plan(std::size_t n) {
  FftPlan plan;
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) plan.swaps.emplace_back(i, j);
  }
  for (const bool inverse : {false, true}) {
    std::vector<double>& twiddle = plan.twiddles[inverse];
    twiddle.reserve(2 * (n - 1));
    for (std::size_t len = 2; len <= n; len <<= 1) {
      // Each stage's factors come from its own cos/sin seed through the
      // serial recurrence w ← w·w₀, not from per-k cos/sin or a stride of
      // the largest table: the transform's bits depend on these exact
      // factors.
      const double angle = 2.0 * std::numbers::pi /
                           static_cast<double>(len) * (inverse ? 1 : -1);
      const double wr0 = std::cos(angle);
      const double wi0 = std::sin(angle);
      double wr = 1.0, wi = 0.0;
      for (std::size_t k = 0; k < len / 2; ++k) {
        twiddle.push_back(wr);
        twiddle.push_back(wi);
        const double next_wr = wr * wr0 - wi * wi0;
        wi = wr * wi0 + wi * wr0;
        wr = next_wr;
      }
    }
  }
  return plan;
}

/// The plan for power-of-two size n, built on first use and kept for the
/// process (one slot per size; the 4096-point plan is about 160 KB).
const FftPlan& plan_for(std::size_t n) {
  struct Slot {
    std::once_flag built;
    FftPlan plan;
  };
  static std::array<Slot, std::numeric_limits<std::size_t>::digits> slots;
  Slot& slot = slots[std::countr_zero(n)];
  std::call_once(slot.built, [&] { slot.plan = build_plan(n); });
  return slot.plan;
}

}  // namespace

std::size_t next_pow2(std::size_t n) {
  CL_CHECK(n >= 1);
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

void fft_inplace(std::vector<std::complex<double>>& data, bool inverse) {
  const std::size_t n = data.size();
  CL_CHECK_MSG(n > 0 && (n & (n - 1)) == 0, "FFT size must be a power of two");
  const FftPlan& plan = plan_for(n);

  for (const auto& [i, j] : plan.swaps) std::swap(data[i], data[j]);

  // Butterflies on raw components (std::complex<double> is
  // layout-compatible with double[2]). The stage kernel computes the
  // (ac - bd, ad + bc) products directly rather than through the library
  // complex multiply, and its AVX2 path computes the exact scalar
  // expressions per lane, so the transform is bit-identical on both
  // kernel paths.
  auto* d = reinterpret_cast<double*>(data.data());
  const double* twiddle = plan.twiddles[inverse].data();
  for (std::size_t len = 2; len <= n; len <<= 1) {
    kernels::fft_stage(d, n, len, twiddle);
    twiddle += len;
  }
  if (inverse) {
    // n is 2^k, so 1/n is exact and x·2^-k rounds to the same double as
    // x / 2^k, subnormal results included.
    const double scale = 1.0 / static_cast<double>(n);
    for (std::size_t i = 0; i < 2 * n; ++i) d[i] *= scale;
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
