// Differential harness for the kernel families: each AVX2 variant is
// called directly and checked against the scalar reference on the same
// inputs — random spans and adversarial edge shapes: empty, length one,
// lengths straddling the 2- and 4-wide lane boundaries, NaN/Inf
// payloads, and denormals. No test here switches the kernel path or
// reads the environment; on a CPU without AVX2 the AVX2 comparisons skip
// with a message.
//
// The contract being enforced (see stats/kernels/kernels.h):
//   * fft_stage, the band gather, hash_normal_fill: the AVX2 variant is
//     bit-identical to the scalar reference.
//   * band_percentiles: bit-identical to an independent gather + sort.
//   * pearson_sums: bit-identical to the serial left-to-right loop.
//
// NaN payloads may legitimately differ between variants (x86 min/add
// NaN selection depends on operand order, and lanes swap operands), so
// byte comparisons treat "both NaN" as equal.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "stats/descriptive.h"
#include "stats/kernels/kernels.h"
#include "stats/kernels/kernels_impl.h"

namespace cloudlens::stats::kernels {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kDenormal = std::numeric_limits<double>::denorm_min();

constexpr const char* kNoAvx2 =
    "this CPU has no AVX2; only the scalar reference was checked";

bool have_avx2() { return cpu_tier() == Tier::kAvx2; }

/// Bitwise equality, except any-NaN-vs-any-NaN counts as equal.
::testing::AssertionResult BitsEqual(double a, double b) {
  if (std::isnan(a) && std::isnan(b)) return ::testing::AssertionSuccess();
  std::uint64_t ba = 0, bb = 0;
  std::memcpy(&ba, &a, sizeof a);
  std::memcpy(&bb, &b, sizeof b);
  if (ba == bb) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << a << " (0x" << std::hex << ba << ") != " << b << " (0x" << bb
         << ")";
}

/// Deterministic pseudo-random series in [0, 1), like telemetry rows.
std::vector<double> random_series(std::uint64_t seed, std::size_t n) {
  SplitMix64 sm(seed);
  std::vector<double> out(n);
  for (auto& v : out) v = static_cast<double>(sm.next() >> 11) * 0x1.0p-53;
  return out;
}

/// Lengths chosen to straddle every lane boundary: empty, one, below /
/// at / above 2- and 4-wide multiples, and a full telemetry week (2016).
const std::size_t kEdgeLengths[] = {0,  1,  2,  3,  4,  5,   7,   8,
                                    9,  15, 16, 17, 31, 33,  64,  100,
                                    2016};

// --- Family 1: pearson_sums ---------------------------------------------

void check_pearson(std::span<const double> x, std::span<const double> y) {
  // The byte contract is the serial left-to-right accumulation order.
  PearsonSums serial;
  for (std::size_t i = 0; i < x.size(); ++i) {
    serial.sx += x[i];
    serial.sy += y[i];
    serial.sxx += x[i] * x[i];
    serial.syy += y[i] * y[i];
    serial.sxy += x[i] * y[i];
  }
  const PearsonSums got = pearson_sums(x, y);
  EXPECT_TRUE(BitsEqual(got.sx, serial.sx));
  EXPECT_TRUE(BitsEqual(got.sy, serial.sy));
  EXPECT_TRUE(BitsEqual(got.sxx, serial.sxx));
  EXPECT_TRUE(BitsEqual(got.syy, serial.syy));
  EXPECT_TRUE(BitsEqual(got.sxy, serial.sxy));
}

TEST(KernelDifferential, PearsonRandomSpans) {
  for (const std::size_t n : kEdgeLengths) {
    const auto x = random_series(0x9E3779B9 + n, n);
    const auto y = random_series(0xC0FFEE00 + n, n);
    SCOPED_TRACE("n=" + std::to_string(n));
    check_pearson(x, y);
  }
}

TEST(KernelDifferential, PearsonCorrelatedAndConstant) {
  const std::size_t n = 2016;
  const auto x = random_series(1, n);
  std::vector<double> y(n), constant(n, 0.25);
  for (std::size_t i = 0; i < n; ++i) y[i] = 0.75 * x[i] + 0.1;
  check_pearson(x, y);
  check_pearson(x, constant);
  check_pearson(constant, constant);
}

TEST(KernelDifferential, PearsonSpecialValues) {
  for (const std::size_t n : {3ul, 5ul, 9ul, 33ul}) {
    auto x = random_series(7 + n, n);
    auto y = random_series(11 + n, n);
    x[0] = kNaN;
    y[n / 2] = kInf;
    if (n > 4) x[n - 1] = -kInf;
    SCOPED_TRACE("n=" + std::to_string(n));
    check_pearson(x, y);
  }
}

TEST(KernelDifferential, PearsonDenormals) {
  for (const std::size_t n : {2ul, 6ul, 17ul}) {
    std::vector<double> x(n, kDenormal), y(n);
    for (std::size_t i = 0; i < n; ++i)
      y[i] = (i % 2 != 0 ? -1.0 : 1.0) * kDenormal * double(i + 1);
    check_pearson(x, y);
  }
}

// --- Family 3: fft_stage -------------------------------------------------

/// Runs the full stage sweep (len = 2, 4, ..., n) the way fft_inplace
/// does on the AVX2 variant and on the oracle, comparing the buffers
/// after every stage.
void check_fft_sweep(const std::vector<double>& data) {
  const std::size_t n = data.size() / 2;
  ASSERT_TRUE(n > 0 && (n & (n - 1)) == 0);
  std::vector<double> mine = data;
  std::vector<double> reference = data;
  for (std::size_t len = 2; len <= n; len <<= 1) {
    // The same twiddle recurrence fft_inplace uses.
    const std::size_t half = len / 2;
    std::vector<double> twiddle(2 * half);
    const double angle =
        -2.0 * 3.141592653589793238462643 / static_cast<double>(len);
    double wr = 1.0, wi = 0.0;
    const double wr0 = std::cos(angle), wi0 = std::sin(angle);
    for (std::size_t k = 0; k < half; ++k) {
      twiddle[2 * k] = wr;
      twiddle[2 * k + 1] = wi;
      const double next_wr = wr * wr0 - wi * wi0;
      wi = wr * wi0 + wi * wr0;
      wr = next_wr;
    }
    detail::fft_stage_avx2(mine.data(), n, len, twiddle.data());
    detail::fft_stage_scalar(reference.data(), n, len, twiddle.data());
    for (std::size_t i = 0; i < mine.size(); ++i) {
      ASSERT_TRUE(BitsEqual(mine[i], reference[i]))
          << "len=" << len << " i=" << i;
    }
  }
}

TEST(KernelDifferential, FftStageBitExactRandom) {
  if (!have_avx2()) GTEST_SKIP() << kNoAvx2;
  for (const std::size_t n : {1ul, 2ul, 4ul, 8ul, 16ul, 64ul, 256ul, 4096ul}) {
    auto data = random_series(0xFF7 + n, 2 * n);
    for (auto& v : data) v = 2.0 * v - 1.0;
    check_fft_sweep(data);
  }
}

TEST(KernelDifferential, FftStageSpecialValues) {
  if (!have_avx2()) GTEST_SKIP() << kNoAvx2;
  auto data = random_series(0xF00, 2 * 64);
  data[3] = kNaN;
  data[17] = kInf;
  data[40] = -kInf;
  data[77] = kDenormal;
  check_fft_sweep(data);
}

// --- Family 2: band_percentiles -----------------------------------------

void check_bands(std::uint64_t seed, std::size_t nrows, std::size_t cols) {
  std::vector<std::vector<double>> matrix(nrows);
  std::vector<const double*> rows(nrows);
  for (std::size_t r = 0; r < nrows; ++r) {
    matrix[r] = random_series(seed + r, cols);
    if (cols > 2 && r == 0) matrix[r][cols / 2] = kDenormal;
    rows[r] = matrix[r].data();
  }

  // Independent reference: per-column gather + sort + quantiles, exactly
  // the pre-kernel percentile_bands loop.
  std::vector<double> e25(cols), e50(cols), e75(cols), e95(cols);
  std::vector<double> column(nrows);
  for (std::size_t c = 0; c < cols; ++c) {
    for (std::size_t r = 0; r < nrows; ++r) column[r] = matrix[r][c];
    std::sort(column.begin(), column.end());
    e25[c] = quantile_sorted(column, 0.25);
    e50[c] = quantile_sorted(column, 0.50);
    e75[c] = quantile_sorted(column, 0.75);
    e95[c] = quantile_sorted(column, 0.95);
  }

  std::vector<double> p25(cols), p50(cols), p75(cols), p95(cols);
  band_percentiles(rows, cols, BandOutputs{p25, p50, p75, p95});
  for (std::size_t c = 0; c < cols; ++c) {
    ASSERT_TRUE(BitsEqual(p25[c], e25[c])) << "nrows=" << nrows << " c=" << c;
    ASSERT_TRUE(BitsEqual(p50[c], e50[c])) << "c=" << c;
    ASSERT_TRUE(BitsEqual(p75[c], e75[c])) << "c=" << c;
    ASSERT_TRUE(BitsEqual(p95[c], e95[c])) << "c=" << c;
  }
  if (!have_avx2()) return;

  // The only path-dependent step is the column gather: the AVX2 block
  // transpose must copy exactly the scalar gather's bytes, block by block.
  std::vector<double> mine(detail::kBandBlockCols * nrows);
  std::vector<double> reference(mine.size());
  for (std::size_t c0 = 0; c0 < cols; c0 += detail::kBandBlockCols) {
    const std::size_t bw = std::min(detail::kBandBlockCols, cols - c0);
    std::fill(mine.begin(), mine.end(), kNaN);
    std::fill(reference.begin(), reference.end(), kNaN);
    detail::gather_columns_avx2(rows.data(), nrows, c0, bw, mine.data());
    detail::gather_columns_scalar(rows.data(), nrows, c0, bw,
                                  reference.data());
    for (std::size_t i = 0; i < bw * nrows; ++i) {
      ASSERT_TRUE(BitsEqual(mine[i], reference[i]))
          << "nrows=" << nrows << " c0=" << c0 << " i=" << i;
    }
  }
}

TEST(KernelDifferential, BandPercentilesBitExact) {
  for (const std::size_t nrows : {1ul, 2ul, 3ul, 5ul, 8ul, 17ul}) {
    for (const std::size_t cols : {1ul, 2ul, 3ul, 4ul, 5ul, 7ul, 8ul, 129ul}) {
      check_bands(nrows * 1000 + cols, nrows, cols);
    }
  }
  check_bands(42, 100, 2016);  // a realistic population × week
  if (!have_avx2()) GTEST_SKIP() << kNoAvx2;
}

TEST(KernelDifferential, BandPercentilesZeroColumns) {
  std::vector<double> row{0.5};
  std::vector<const double*> rows{row.data()};
  band_percentiles(rows, 0, BandOutputs{{}, {}, {}, {}});
}

// --- Family 4: hash_normal_fill -----------------------------------------

TEST(KernelDifferential, HashNormalFillBitExact) {
  const std::uint64_t seeds[] = {0, 1, 42, 0xDEADBEEFCAFEULL};
  for (const std::uint64_t seed : seeds) {
    for (const std::size_t n : kEdgeLengths) {
      std::vector<std::int64_t> keys(n);
      SplitMix64 sm(seed + n);
      for (std::size_t i = 0; i < n; ++i)
        keys[i] = static_cast<std::int64_t>(sm.next());  // full i64 range
      std::vector<double> expected(n), got(n);
      detail::hash_normal_fill_scalar(seed, keys.data(), n, expected.data());
      // The scalar fill must itself agree with the per-element oracle.
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_TRUE(BitsEqual(expected[i], hash_normal_one(seed, keys[i])));
      if (!have_avx2()) continue;
      std::fill(got.begin(), got.end(), kNaN);
      detail::hash_normal_fill_avx2(seed, keys.data(), n, got.data());
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_TRUE(BitsEqual(got[i], expected[i]))
            << "n=" << n << " i=" << i;
      }
    }
  }
  if (!have_avx2()) GTEST_SKIP() << kNoAvx2;
}

TEST(KernelDifferential, HashNormalFillExtremeKeys) {
  const std::vector<std::int64_t> keys = {
      0,  1,  -1, std::numeric_limits<std::int64_t>::max(),
      std::numeric_limits<std::int64_t>::min(),
      6048,  // a telemetry-week tick key
      -6048};
  std::vector<double> expected(keys.size()), got(keys.size());
  detail::hash_normal_fill_scalar(99, keys.data(), keys.size(),
                                  expected.data());
  for (std::size_t i = 0; i < keys.size(); ++i)
    ASSERT_TRUE(BitsEqual(expected[i], hash_normal_one(99, keys[i]))) << i;
  if (!have_avx2()) GTEST_SKIP() << kNoAvx2;
  detail::hash_normal_fill_avx2(99, keys.data(), keys.size(), got.data());
  for (std::size_t i = 0; i < keys.size(); ++i)
    ASSERT_TRUE(BitsEqual(got[i], expected[i])) << i;
}

}  // namespace
}  // namespace cloudlens::stats::kernels
