// Kernel path selection and the public entry points.
//
// This TU is compiled with baseline flags and owns everything that is
// not pure lane arithmetic: the CPU check, per-family call counters, the
// Pearson loop, and — for the band family — the selection + quantile
// driver that runs over the gathered column blocks (std::nth_element
// must never be instantiated in an ISA-flagged TU; see kernels_impl.h).
#include "stats/kernels/kernels.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <vector>

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/phase_timer.h"
#include "stats/descriptive.h"
#include "stats/kernels/kernels_impl.h"

namespace cloudlens::stats::kernels {
namespace {

/// The active Tier as an int, so the hot-path read is one relaxed atomic
/// load. -1 means "not yet resolved from the CPU".
std::atomic<int> g_tier{-1};

}  // namespace

Tier cpu_tier() {
#if defined(__x86_64__) || defined(__i386__)
  // CPUID, cached by the builtin after the first query.
  if (__builtin_cpu_supports("avx2") != 0) return Tier::kAvx2;
#endif
  return Tier::kScalar;
}

Tier active() {
  int tier = g_tier.load(std::memory_order_relaxed);
  if (tier < 0) {
    // First use: racing threads resolve to the same value, so the store
    // order is benign.
    tier = static_cast<int>(cpu_tier());
    g_tier.store(tier, std::memory_order_relaxed);
  }
  // Stamped on every use rather than once, so a snapshot records the path
  // even when metrics were enabled or reset after it resolved.
  obs::MetricsRegistry::global().set(obs::Gauge::kKernelTier,
                                     static_cast<double>(tier));
  return static_cast<Tier>(tier);
}

ScopedTier::ScopedTier(Tier tier) : previous_(active()) {
  CL_CHECK_MSG(tier == Tier::kScalar || cpu_tier() == Tier::kAvx2,
               "ScopedTier: this CPU cannot run the AVX2 kernels");
  g_tier.store(static_cast<int>(tier), std::memory_order_relaxed);
}

ScopedTier::~ScopedTier() {
  g_tier.store(static_cast<int>(previous_), std::memory_order_relaxed);
}

PearsonSums pearson_sums(std::span<const double> x,
                         std::span<const double> y) {
  CL_CHECK_MSG(x.size() == y.size(), "pearson_sums: length mismatch");
  obs::MetricsRegistry::global().add(obs::Counter::kKernelPearsonCalls);
  PearsonSums s;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double xi = x[i];
    const double yi = y[i];
    s.sx += xi;
    s.sy += yi;
    s.sxx += xi * xi;
    s.syy += yi * yi;
    s.sxy += xi * yi;
  }
  return s;
}

void band_percentiles(std::span<const double* const> rows, std::size_t cols,
                      const BandOutputs& out) {
  CL_CHECK_MSG(!rows.empty(), "band_percentiles: need at least one row");
  CL_CHECK_MSG(out.p25.size() >= cols && out.p50.size() >= cols &&
                   out.p75.size() >= cols && out.p95.size() >= cols,
               "band_percentiles: output spans too short");
  obs::PhaseTimer timer("kernels.band_percentiles",
                        obs::Histogram::kKernelBandSeconds,
                        obs::Counter::kKernelBandCalls);
  const std::size_t nrows = rows.size();
  const auto gather = active() == Tier::kAvx2 ? detail::gather_columns_avx2
                                              : detail::gather_columns_scalar;

  // quantile_sorted(p) reads only order statistics floor(h) and
  // floor(h)+1 with h = p*(n-1), so the four fixed quantiles need at most
  // eight exact positions per column — an nth_element cascade instead of
  // a full O(n log n) sort. Each nth_element places an exact order
  // statistic and partitions everything smaller below it, so later calls
  // run on the shrinking upper range only.
  std::array<std::size_t, 8> need{};
  std::size_t nneed = 0;
  for (const double p : {0.25, 0.50, 0.75, 0.95}) {
    const double h = p * static_cast<double>(nrows - 1);
    const auto lo = static_cast<std::size_t>(h);
    need[nneed++] = lo;
    if (lo + 1 < nrows) need[nneed++] = lo + 1;
  }
  // Tiny insertion sort + dedup over the <= 8 positions (std::sort on the
  // sub-array trips GCC's -Warray-bounds via its insertion threshold).
  for (std::size_t i = 1; i < nneed; ++i) {
    const std::size_t v = need[i];
    std::size_t j = i;
    for (; j > 0 && need[j - 1] > v; --j) need[j] = need[j - 1];
    need[j] = v;
  }
  std::size_t uniq = 0;
  for (std::size_t i = 0; i < nneed; ++i) {
    if (uniq == 0 || need[i] != need[uniq - 1]) need[uniq++] = need[i];
  }
  nneed = uniq;

  std::vector<double> colbuf(detail::kBandBlockCols * nrows);
  for (std::size_t c0 = 0; c0 < cols; c0 += detail::kBandBlockCols) {
    const std::size_t bw = std::min(detail::kBandBlockCols, cols - c0);
    gather(rows.data(), nrows, c0, bw, colbuf.data());
    for (std::size_t j = 0; j < bw; ++j) {
      double* col = colbuf.data() + j * nrows;
      // Selecting exact order statistics erases gather order (the k-th
      // smallest value is the same whatever order the path gathered in),
      // which is what keeps this family bit-exact on both paths — same
      // property the full sort used to provide.
      std::size_t from = 0;
      for (std::size_t i = 0; i < nneed; ++i) {
        const std::size_t idx = need[i];
        std::nth_element(col + from, col + idx, col + nrows);
        from = idx + 1;
      }
      const std::span<const double> sorted(col, nrows);
      out.p25[c0 + j] = quantile_sorted(sorted, 0.25);
      out.p50[c0 + j] = quantile_sorted(sorted, 0.50);
      out.p75[c0 + j] = quantile_sorted(sorted, 0.75);
      out.p95[c0 + j] = quantile_sorted(sorted, 0.95);
    }
  }
}

void fft_stage(double* data, std::size_t n, std::size_t len,
               const double* twiddle) {
  obs::MetricsRegistry::global().add(obs::Counter::kKernelFftStages);
  if (active() == Tier::kAvx2) {
    detail::fft_stage_avx2(data, n, len, twiddle);
  } else {
    detail::fft_stage_scalar(data, n, len, twiddle);
  }
}

void hash_normal_fill(std::uint64_t seed, std::span<const std::int64_t> keys,
                      std::span<double> out) {
  CL_CHECK_MSG(out.size() >= keys.size(),
               "hash_normal_fill: output span too short");
  obs::MetricsRegistry::global().add(obs::Counter::kKernelNoiseFills);
  if (active() == Tier::kAvx2) {
    detail::hash_normal_fill_avx2(seed, keys.data(), keys.size(), out.data());
  } else {
    detail::hash_normal_fill_scalar(seed, keys.data(), keys.size(),
                                    out.data());
  }
}

}  // namespace cloudlens::stats::kernels
