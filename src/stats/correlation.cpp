#include "stats/correlation.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "common/check.h"
#include "stats/kernels/kernels.h"

namespace cloudlens::stats {
namespace {

std::vector<double> fractional_ranks(std::span<const double> xs) {
  const std::size_t n = xs.size();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return xs[a] < xs[b]; });
  std::vector<double> rank(n, 0.0);
  std::size_t i = 0;
  while (i < n) {
    std::size_t j = i;
    while (j + 1 < n && xs[order[j + 1]] == xs[order[i]]) ++j;
    const double avg = 0.5 * static_cast<double>(i + j) + 1.0;
    for (std::size_t k = i; k <= j; ++k) rank[order[k]] = avg;
    i = j + 1;
  }
  return rank;
}

}  // namespace

double pearson(std::span<const double> x, std::span<const double> y) {
  CL_CHECK_MSG(x.size() == y.size(), "pearson requires equal-length series");
  const std::size_t n = x.size();
  if (n < 2) return 0.0;

  double mx = 0, my = 0;
  for (std::size_t i = 0; i < n; ++i) {
    mx += x[i];
    my += y[i];
  }
  mx /= static_cast<double>(n);
  my /= static_cast<double>(n);

  double sxy = 0, sxx = 0, syy = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = x[i] - mx;
    const double dy = y[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx == 0.0 || syy == 0.0) return 0.0;
  const double r = sxy / std::sqrt(sxx * syy);
  // Clamp tiny numerical excursions outside [-1, 1].
  return std::min(1.0, std::max(-1.0, r));
}

double pearson_fused(std::span<const double> x, std::span<const double> y) {
  CL_CHECK_MSG(x.size() == y.size(), "pearson requires equal-length series");
  const std::size_t n = x.size();
  if (n < 2) return 0.0;

  // Single fused pass: five co-moment accumulators, one load of each
  // operand per tick, no temporary series, accumulated in serial order.
  const kernels::PearsonSums s = kernels::pearson_sums(x, y);
  const double dn = static_cast<double>(n);
  const double cxx = s.sxx - s.sx * s.sx / dn;
  const double cyy = s.syy - s.sy * s.sy / dn;
  const double cxy = s.sxy - s.sx * s.sy / dn;
  if (cxx <= 0.0 || cyy <= 0.0) return 0.0;
  const double r = cxy / std::sqrt(cxx * cyy);
  return std::min(1.0, std::max(-1.0, r));
}

double spearman(std::span<const double> x, std::span<const double> y) {
  CL_CHECK_MSG(x.size() == y.size(), "spearman requires equal-length series");
  if (x.size() < 2) return 0.0;
  const auto rx = fractional_ranks(x);
  const auto ry = fractional_ranks(y);
  return pearson(rx, ry);
}

}  // namespace cloudlens::stats
