#include "stats/periodicity.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "stats/descriptive.h"
#include "stats/fft.h"

namespace cloudlens::stats {
namespace {

/// Hill-climb on the ACF from `lag` to the nearest local maximum.
std::size_t climb_to_hill(const std::vector<double>& acf, std::size_t lag) {
  const std::size_t n = acf.size();
  if (lag >= n) lag = n - 1;
  if (lag == 0) lag = 1;
  bool moved = true;
  while (moved) {
    moved = false;
    if (lag + 1 < n && acf[lag + 1] > acf[lag]) {
      ++lag;
      moved = true;
    } else if (lag > 1 && acf[lag - 1] > acf[lag]) {
      --lag;
      moved = true;
    }
  }
  return lag;
}

/// ACF value at the valley between lag 0 and the hill (minimum over
/// (0, hill)). A true periodicity has a pronounced valley before the hill.
double valley_before(const std::vector<double>& acf, std::size_t hill) {
  double lo = 1.0;
  for (std::size_t i = 1; i < hill; ++i) lo = std::min(lo, acf[i]);
  return hill > 1 ? lo : acf[hill];
}

}  // namespace

PeriodDetection detect_period(const TimeSeries& series,
                              const PeriodDetectorOptions& opts) {
  PeriodDetection best;
  const std::size_t n = series.size();
  if (n < 8) return best;
  const SimDuration step = series.grid().step;

  const auto pgram = periodogram(series.values());
  const auto acf = autocorrelation(series.values());
  const std::size_t padded = (pgram.size() - 1) * 2;

  // Mean periodogram power (excluding DC) for the significance threshold.
  double mean_power = 0.0;
  for (std::size_t k = 1; k < pgram.size(); ++k) mean_power += pgram[k];
  if (pgram.size() > 1) mean_power /= static_cast<double>(pgram.size() - 1);
  if (mean_power <= 0.0) return best;  // constant series

  // Collect candidate frequencies above the power threshold, strongest first.
  std::vector<std::size_t> candidates;
  for (std::size_t k = 1; k < pgram.size(); ++k) {
    if (pgram[k] > opts.power_threshold * mean_power) candidates.push_back(k);
  }
  std::sort(candidates.begin(), candidates.end(),
            [&](std::size_t a, std::size_t b) { return pgram[a] > pgram[b]; });
  if (candidates.size() > opts.max_candidates)
    candidates.resize(opts.max_candidates);

  for (const std::size_t k : candidates) {
    // Periodogram bin k ↔ period padded/k samples.
    const double period_samples =
        static_cast<double>(padded) / static_cast<double>(k);
    const auto period_seconds =
        static_cast<SimDuration>(std::llround(period_samples * double(step)));
    if (period_seconds < opts.min_period || period_seconds > opts.max_period)
      continue;
    auto lag = static_cast<std::size_t>(std::llround(period_samples));
    if (lag < 1 || lag >= n) continue;

    // Validate on the ACF: climb to the nearest hill and require both a
    // sufficient hill height and a hill-vs-valley contrast.
    const std::size_t hill = climb_to_hill(acf, lag);
    const double height = acf[hill];
    const double contrast = height - valley_before(acf, hill);
    if (height < opts.min_strength || contrast < opts.min_strength / 2)
      continue;

    const auto refined =
        static_cast<SimDuration>(hill) * static_cast<SimDuration>(step);
    if (refined < opts.min_period || refined > opts.max_period) continue;
    if (!best.periodic || height > best.strength) {
      best.periodic = true;
      best.period = refined;
      best.strength = height;
    }
  }
  return best;
}

double periodicity_score(const TimeSeries& series, SimDuration period) {
  CL_CHECK(period > 0);
  const SimDuration step = series.grid().step;
  CL_CHECK(step > 0);
  const auto lag0 = static_cast<std::size_t>(period / step);
  const std::size_t n = series.size();
  // A period of one sample has no hill/valley structure to assess, and a
  // period beyond half the series cannot repeat enough to validate.
  if (lag0 < 2 || lag0 * 2 >= n) return 0.0;
  return periodicity_score_acf(autocorrelation(series.values()), step,
                               period);
}

double periodicity_score_acf(std::span<const double> acf, SimDuration step,
                             SimDuration period) {
  CL_CHECK(period > 0);
  CL_CHECK(step > 0);
  const auto lag0 = static_cast<std::size_t>(period / step);
  const std::size_t n = acf.size();
  // Same guards as periodicity_score (n equals the series length: the ACF
  // carries one value per lag 0..n-1).
  if (lag0 < 2 || lag0 * 2 >= n) return 0.0;

  // Hill: the ACF maximum within ±10% of the nominal lag.
  const std::size_t slack = std::max<std::size_t>(1, lag0 / 10);
  double hill = -1.0;
  for (std::size_t l = lag0 > slack ? lag0 - slack : 1;
       l <= lag0 + slack && l < n; ++l)
    hill = std::max(hill, acf[l]);

  // Valley: the ACF minimum over (lag/4, lag). A genuinely periodic series
  // dips between repetitions; a merely *smooth* series (e.g. a diurnal
  // curve probed at a 1-hour lag) stays high throughout this window, which
  // correctly drives the hill-minus-valley score to ~0.
  double valley = 1.0;
  const std::size_t v_lo = std::max<std::size_t>(1, lag0 / 4);
  for (std::size_t l = v_lo; l < lag0 && l < n; ++l)
    valley = std::min(valley, acf[l]);

  return hill - valley;
}

}  // namespace cloudlens::stats
