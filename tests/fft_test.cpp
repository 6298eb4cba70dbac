#include "stats/fft.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <complex>
#include <cstdint>
#include <exception>
#include <latch>
#include <numbers>
#include <span>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "stats/descriptive.h"
#include "stats/kernels/kernels.h"

namespace cloudlens::stats {
namespace {

/// The transform with no per-size plan: the bit-reversal loop and each
/// stage's serial twiddle recurrence run on every call, and the inverse
/// divides by n. fft_inplace must reproduce its bits.
void per_call_fft(std::vector<std::complex<double>>& data, bool inverse) {
  const std::size_t n = data.size();
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(data[i], data[j]);
  }
  auto* d = reinterpret_cast<double*>(data.data());
  std::vector<double> twiddle(n);
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
    kernels::fft_stage(d, n, len, twiddle.data());
  }
  if (inverse) {
    const double inv = static_cast<double>(n);
    for (std::size_t i = 0; i < 2 * n; ++i) d[i] /= inv;
  }
}

/// autocorrelation() computed through per_call_fft.
std::vector<double> per_call_acf(std::span<const double> xs) {
  const double m = mean(xs);
  const std::size_t n = xs.size();
  std::vector<std::complex<double>> buf(next_pow2(2 * n), {0.0, 0.0});
  for (std::size_t i = 0; i < n; ++i) buf[i] = xs[i] - m;
  per_call_fft(buf, false);
  for (auto& x : buf) x = std::complex<double>(std::norm(x), 0.0);
  per_call_fft(buf, true);
  std::vector<double> acf(n, 0.0);
  const double denom = buf[0].real();
  if (denom <= 0.0) {
    acf[0] = 1.0;
    return acf;
  }
  for (std::size_t lag = 0; lag < n; ++lag) acf[lag] = buf[lag].real() / denom;
  return acf;
}

/// Bit equality of two double sequences, naming the first differing index.
testing::AssertionResult BitsEqual(std::span<const double> a,
                                   std::span<const double> b) {
  if (a.size() != b.size())
    return testing::AssertionFailure()
           << "sizes " << a.size() << " vs " << b.size();
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a[i]) !=
        std::bit_cast<std::uint64_t>(b[i]))
      return testing::AssertionFailure()
             << "first difference at double " << i << ": " << a[i] << " vs "
             << b[i];
  }
  return testing::AssertionSuccess();
}

std::span<const double> as_doubles(const std::vector<std::complex<double>>& v) {
  return {reinterpret_cast<const double*>(v.data()), 2 * v.size()};
}

/// O(n^2) reference DFT.
std::vector<std::complex<double>> naive_dft(
    const std::vector<std::complex<double>>& in) {
  const std::size_t n = in.size();
  std::vector<std::complex<double>> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    std::complex<double> acc{0, 0};
    for (std::size_t j = 0; j < n; ++j) {
      const double angle = -2.0 * std::numbers::pi * double(k) * double(j) /
                           double(n);
      acc += in[j] * std::complex<double>(std::cos(angle), std::sin(angle));
    }
    out[k] = acc;
  }
  return out;
}

TEST(FftTest, NextPow2) {
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(2), 2u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(1000), 1024u);
  EXPECT_EQ(next_pow2(1024), 1024u);
}

TEST(FftTest, MatchesNaiveDft) {
  cloudlens::Rng rng(1);
  std::vector<std::complex<double>> data(64);
  for (auto& x : data) x = {rng.normal(), rng.normal()};
  const auto expected = naive_dft(data);
  auto actual = data;
  fft_inplace(actual, false);
  for (std::size_t k = 0; k < data.size(); ++k) {
    EXPECT_NEAR(actual[k].real(), expected[k].real(), 1e-9);
    EXPECT_NEAR(actual[k].imag(), expected[k].imag(), 1e-9);
  }
}

TEST(FftTest, InverseRoundTrip) {
  cloudlens::Rng rng(2);
  std::vector<std::complex<double>> data(128);
  for (auto& x : data) x = {rng.uniform(), rng.uniform()};
  auto copy = data;
  fft_inplace(copy, false);
  fft_inplace(copy, true);
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_NEAR(copy[i].real(), data[i].real(), 1e-10);
    EXPECT_NEAR(copy[i].imag(), data[i].imag(), 1e-10);
  }
}

TEST(FftTest, NonPowerOfTwoThrows) {
  std::vector<std::complex<double>> data(6);
  EXPECT_THROW(fft_inplace(data, false), cloudlens::CheckError);
}

TEST(FftTest, ParsevalHolds) {
  cloudlens::Rng rng(3);
  std::vector<std::complex<double>> data(256);
  double time_energy = 0;
  for (auto& x : data) {
    x = {rng.normal(), 0.0};
    time_energy += std::norm(x);
  }
  auto freq = data;
  fft_inplace(freq, false);
  double freq_energy = 0;
  for (const auto& x : freq) freq_energy += std::norm(x);
  EXPECT_NEAR(freq_energy / double(data.size()), time_energy, 1e-6);
}

TEST(FftPlanTest, TransformBitEqualToPerCallReference) {
  // Every power-of-two size 1…8192, both directions. The tiny inputs make
  // the inverse's 1/n scale produce subnormals.
  cloudlens::Rng rng(6);
  for (std::size_t n = 1; n <= 8192; n <<= 1) {
    for (const double magnitude : {1.0, 0x1.0p-1060}) {
      std::vector<std::complex<double>> input(n);
      for (auto& x : input)
        x = {magnitude * rng.normal(), magnitude * rng.normal()};
      for (const bool inverse : {false, true}) {
        auto planned = input;
        auto reference = input;
        fft_inplace(planned, inverse);
        per_call_fft(reference, inverse);
        EXPECT_TRUE(BitsEqual(as_doubles(planned), as_doubles(reference)))
            << "n=" << n << " inverse=" << inverse
            << " magnitude=" << magnitude;
      }
    }
  }
}

TEST(FftPlanTest, AutocorrelationBitEqualToPerCallReference) {
  cloudlens::Rng rng(7);
  std::vector<std::vector<double>> rows;
  for (const std::size_t n : {2u, 13u, 288u, 2016u}) {
    // A diurnal-looking row: 288 five-minute ticks per day plus noise.
    std::vector<double> row(n);
    for (std::size_t i = 0; i < n; ++i)
      row[i] = 0.4 +
               0.2 * std::sin(2.0 * std::numbers::pi * double(i) / 288.0) +
               0.05 * rng.normal();
    rows.push_back(std::move(row));
  }
  rows.emplace_back(288, 0.37);  // constant
  for (const auto& row : rows) {
    EXPECT_TRUE(BitsEqual(autocorrelation(row), per_call_acf(row)))
        << "length " << row.size();
  }
}

TEST(FftPlanTest, ConcurrentFirstUseBitEqualToSerial) {
  // ctest runs each test in its own process, so no plan exists yet: eight
  // threads race to build every size's plan, each walking the sizes in its
  // own order. Every result must match a serial run made afterwards.
  constexpr std::size_t kThreads = 8;
  std::vector<std::size_t> sizes;
  for (std::size_t n = 2; n <= 8192; n <<= 1) sizes.push_back(n);
  cloudlens::Rng rng(8);
  std::vector<std::vector<std::complex<double>>> inputs;
  std::vector<std::vector<double>> rows;  // length n/2: ACF pads to n
  for (const std::size_t n : sizes) {
    std::vector<std::complex<double>> input(n);
    for (auto& x : input) x = {rng.normal(), rng.normal()};
    inputs.push_back(std::move(input));
    std::vector<double> row(std::max<std::size_t>(2, n / 2));
    for (auto& x : row) x = rng.uniform();
    rows.push_back(std::move(row));
  }

  struct Results {
    std::vector<std::vector<std::complex<double>>> forward, inverse;
    std::vector<std::vector<double>> acf;
    std::exception_ptr error;
  };
  std::vector<Results> results(kThreads);
  {
    std::latch start(static_cast<std::ptrdiff_t>(kThreads));
    std::vector<std::jthread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        Results& mine = results[t];
        try {
          start.arrive_and_wait();
          std::vector<std::size_t> order(sizes.size());
          for (std::size_t i = 0; i < order.size(); ++i)
            order[i] = (i + t) % order.size();
          if (t % 2) std::reverse(order.begin(), order.end());
          mine.forward.resize(sizes.size());
          mine.inverse.resize(sizes.size());
          mine.acf.resize(sizes.size());
          for (const std::size_t i : order) {
            mine.forward[i] = inputs[i];
            fft_inplace(mine.forward[i], false);
            mine.inverse[i] = inputs[i];
            fft_inplace(mine.inverse[i], true);
            mine.acf[i] = autocorrelation(rows[i]);
          }
        } catch (...) {
          mine.error = std::current_exception();
        }
      });
    }
  }  // joins every thread

  for (std::size_t i = 0; i < sizes.size(); ++i) {
    auto forward = inputs[i];
    fft_inplace(forward, false);
    auto inverse = inputs[i];
    fft_inplace(inverse, true);
    const auto acf = autocorrelation(rows[i]);
    for (std::size_t t = 0; t < kThreads; ++t) {
      ASSERT_FALSE(results[t].error) << "thread " << t << " threw";
      EXPECT_TRUE(BitsEqual(as_doubles(results[t].forward[i]),
                            as_doubles(forward)))
          << "thread " << t << " n=" << sizes[i];
      EXPECT_TRUE(BitsEqual(as_doubles(results[t].inverse[i]),
                            as_doubles(inverse)))
          << "thread " << t << " n=" << sizes[i];
      EXPECT_TRUE(BitsEqual(results[t].acf[i], acf))
          << "thread " << t << " n=" << sizes[i];
    }
  }
}

TEST(PeriodogramTest, PeakAtPlantedFrequency) {
  // 512 samples, 8 cycles -> padded size 512, peak at bin 8.
  std::vector<double> xs(512);
  for (std::size_t i = 0; i < xs.size(); ++i)
    xs[i] = std::sin(2.0 * std::numbers::pi * 8.0 * double(i) / 512.0);
  const auto p = periodogram(xs);
  std::size_t argmax = 1;
  for (std::size_t k = 1; k < p.size(); ++k) {
    if (p[k] > p[argmax]) argmax = k;
  }
  EXPECT_EQ(argmax, 8u);
}

TEST(PeriodogramTest, MeanRemovedNoDcPeak) {
  std::vector<double> xs(128, 5.0);  // constant series
  const auto p = periodogram(xs);
  for (double v : p) EXPECT_NEAR(v, 0.0, 1e-9);
}

TEST(AutocorrelationTest, LagZeroIsOne) {
  cloudlens::Rng rng(4);
  std::vector<double> xs(200);
  for (auto& x : xs) x = rng.normal();
  const auto acf = autocorrelation(xs);
  EXPECT_NEAR(acf[0], 1.0, 1e-9);
}

TEST(AutocorrelationTest, SinusoidPeaksAtPeriod) {
  const std::size_t period = 24;
  std::vector<double> xs(24 * 14);
  for (std::size_t i = 0; i < xs.size(); ++i)
    xs[i] = std::sin(2.0 * std::numbers::pi * double(i) / double(period));
  const auto acf = autocorrelation(xs);
  EXPECT_GT(acf[period], 0.9);
  EXPECT_LT(acf[period / 2], -0.8);
}

TEST(AutocorrelationTest, WhiteNoiseDecorrelates) {
  cloudlens::Rng rng(5);
  std::vector<double> xs(4096);
  for (auto& x : xs) x = rng.normal();
  const auto acf = autocorrelation(xs);
  for (std::size_t lag = 1; lag < 50; ++lag)
    EXPECT_NEAR(acf[lag], 0.0, 0.08);
}

TEST(AutocorrelationTest, ConstantSeriesIsDelta) {
  std::vector<double> xs(64, 3.0);
  const auto acf = autocorrelation(xs);
  EXPECT_DOUBLE_EQ(acf[0], 1.0);
  for (std::size_t lag = 1; lag < acf.size(); ++lag)
    EXPECT_DOUBLE_EQ(acf[lag], 0.0);
}

}  // namespace
}  // namespace cloudlens::stats
