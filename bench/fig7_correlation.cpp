// Fig. 7 — spatial utilization similarity:
//   (a) CDFs of Pearson correlation between each VM and its host node
//       (paper medians: 0.55 private vs 0.02 public);
//   (b) CDFs of cross-region utilization correlation per subscription
//       (US regions, ~9 time zones);
//   (c) the ServiceX case study: per-region daily utilization of a
//       region-agnostic service peaks at the same instants everywhere.
#include "analysis/context.h"
#include "analysis/spatial.h"
#include "bench_common.h"
#include "common/ascii_chart.h"
#include "common/table.h"
#include "stats/descriptive.h"
#include "stats/ecdf.h"

using namespace cloudlens;

int main(int argc, char** argv) {
  const auto args = bench::parse_args(argc, argv);
  const auto scenario = bench::make_bench_scenario(args);
  const TraceStore& trace = *scenario.trace;

  // ---- Fig. 7(a): VM-node correlation CDFs ------------------------------
  bench::banner("Fig. 7(a): CDF of VM-to-host-node utilization correlation");
  const auto priv_corr =
      analysis::node_vm_correlations(AnalysisContext(trace), CloudType::kPrivate, 250);
  const auto pub_corr =
      analysis::node_vm_correlations(AnalysisContext(trace), CloudType::kPublic, 250);
  const stats::Ecdf priv_cdf(priv_corr), pub_cdf(pub_corr);

  std::vector<double> priv_curve, pub_curve;
  for (double x = -1.0; x <= 1.0; x += 0.04) {
    priv_curve.push_back(priv_cdf.at(x));
    pub_curve.push_back(pub_cdf.at(x));
  }
  ChartOptions chart;
  chart.fixed_y_range = true;
  chart.y_max = 1;
  chart.title = "CDF vs correlation (x = -1 .. 1)";
  std::printf("%s", render_lines({{"private", priv_curve},
                                  {"public", pub_curve}},
                                 chart)
                        .c_str());

  const double priv_median = stats::quantile_sorted(priv_corr, 0.5);
  const double pub_median = stats::quantile_sorted(pub_corr, 0.5);
  TextTable t1({"metric", "paper", "measured"});
  t1.row().add("private median VM-node corr").add("0.55").add(priv_median, 3);
  t1.row().add("public median VM-node corr").add("0.02").add(pub_median, 3);
  std::printf("\n%s", t1.to_string().c_str());

  // ---- Fig. 7(b): cross-region correlation CDFs ---------------------------
  bench::banner("Fig. 7(b): CDF of cross-region utilization correlation");
  const auto priv_xr =
      analysis::cross_region_correlations(AnalysisContext(trace), CloudType::kPrivate, 300);
  const auto pub_xr =
      analysis::cross_region_correlations(AnalysisContext(trace), CloudType::kPublic, 300);
  const stats::Ecdf priv_xr_cdf(priv_xr), pub_xr_cdf(pub_xr);
  std::vector<double> priv_xr_curve, pub_xr_curve;
  for (double x = -1.0; x <= 1.0; x += 0.04) {
    priv_xr_curve.push_back(priv_xr_cdf.at(x));
    pub_xr_curve.push_back(pub_xr_cdf.at(x));
  }
  chart.title = "CDF vs cross-region correlation (x = -1 .. 1)";
  std::printf("%s", render_lines({{"private", priv_xr_curve},
                                  {"public", pub_xr_curve}},
                                 chart)
                        .c_str());
  const double priv_xr_median = stats::quantile_sorted(priv_xr, 0.5);
  const double pub_xr_median = stats::quantile_sorted(pub_xr, 0.5);
  std::printf("\nregion pairs: private %zu, public %zu; medians: private "
              "%.3f, public %.3f\n",
              priv_xr.size(), pub_xr.size(), priv_xr_median, pub_xr_median);

  // ---- Fig. 7(c): ServiceX per-region profiles ----------------------------
  bench::banner("Fig. 7(c): 'ServiceX' daily utilization across regions");
  const auto verdicts =
      analysis::detect_region_agnostic_services(AnalysisContext(trace), CloudType::kPrivate);
  // Pick the region-agnostic service spanning the most regions.
  const analysis::RegionAgnosticVerdict* service_x = nullptr;
  for (const auto& v : verdicts) {
    if (!v.region_agnostic) continue;
    if (service_x == nullptr || v.regions > service_x->regions) service_x = &v;
  }
  bench::ShapeChecks checks;
  if (service_x == nullptr) {
    std::printf("no region-agnostic service detected (increase --scale)\n");
    checks.expect(false, "a ServiceX candidate exists");
    return checks.exit_code();
  }

  // Per-region hour-of-day profiles of one of its subscriptions.
  std::vector<std::pair<std::string, std::vector<double>>> profiles;
  for (const auto& sub : trace.subscriptions()) {
    if (sub.service != service_x->service) continue;
    for (const auto& profile :
         analysis::subscription_region_profiles(AnalysisContext(trace), sub.id)) {
      if (profiles.size() >= 4) break;
      profiles.emplace_back(
          trace.topology().region(profile.region).name,
          profile.hourly_utilization.hour_of_day_profile());
    }
    break;
  }
  ChartOptions daily;
  daily.fixed_y_range = true;
  daily.y_max = 0.6;
  daily.height = 12;
  daily.title = "average CPU utilization vs hour of day (sim clock), "
                "one curve per region";
  std::printf("%s", render_lines(profiles, daily).c_str());
  std::printf("\nServiceX = %s: %zu regions, min pairwise corr %.3f "
              "(confirmed geo-load-balanced: aligned peaks despite "
              "different time zones)\n",
              trace.service(service_x->service).name.c_str(),
              service_x->regions, service_x->min_pair_correlation);

  // Peak-hour alignment across regions.
  std::vector<int> peak_hours;
  for (const auto& [_, profile] : profiles) {
    int best = 0;
    for (int h = 1; h < 24; ++h)
      if (profile[h] > profile[best]) best = h;
    peak_hours.push_back(best);
  }
  int max_gap = 0;
  for (std::size_t i = 1; i < peak_hours.size(); ++i) {
    int gap = std::abs(peak_hours[i] - peak_hours[0]);
    gap = std::min(gap, 24 - gap);
    max_gap = std::max(max_gap, gap);
  }

  bench::banner("Shape checks");
  checks.expect(priv_median > 0.35, "private node correlation high");
  checks.expect(pub_median < 0.30, "public node correlation near zero");
  checks.expect(priv_median - pub_median > 0.25,
                "node correlation gap (paper: 0.55 vs 0.02)");
  checks.expect(priv_xr_median > pub_xr_median + 0.2,
                "private cross-region correlation higher (Fig. 7(b))");
  checks.expect(max_gap <= 2,
                "ServiceX peaks aligned across regions (Fig. 7(c))");
  return checks.exit_code();
}
