// Policy bench — the spot capacity market on the generated public cloud
// (Sec. III-B implication: adopt spot VMs for short-lived workloads to
// improve platform utilization, "especially during valley hours"; refs
// [15] eviction prediction and [16] Snape spot/on-demand mixture).
#include "bench_common.h"
#include "common/ascii_chart.h"
#include "common/table.h"
#include "policies/spot_market.h"

using namespace cloudlens;

int main(int argc, char** argv) {
  const auto args = bench::parse_args(argc, argv);
  const auto scenario = bench::make_bench_scenario(args);
  const TraceStore& trace = *scenario.trace;

  policies::SpotMarketOptions options;
  options.region = RegionId(0);
  options.jobs_per_hour = 60;
  options.job_cores = 4;
  options.job_duration = 4 * kHour;
  options.seed = args.seed;

  bench::banner("Spot market simulation (public cloud, one region)");
  const auto report = policies::simulate_spot_market(trace, options);

  TextTable t({"metric", "value"});
  t.row().add("spot jobs submitted").add(report.jobs_submitted);
  t.row().add("completed").add(report.jobs_completed);
  t.row().add("evicted").add(report.jobs_evicted);
  t.row().add("rejected at submission").add(report.jobs_rejected);
  t.row().add("eviction rate").add(report.eviction_rate, 4);
  t.row().add("spot core-hours served").add(report.spot_core_hours, 0);
  t.row().add("valley share of spot core-hours").add(report.valley_share, 3);
  t.row()
      .add("region utilization without spot")
      .add(report.utilization_before, 3);
  t.row()
      .add("region utilization with spot")
      .add(report.utilization_with_spot, 3);
  std::printf("%s", t.to_string().c_str());

  ChartOptions chart;
  chart.height = 10;
  chart.title = "\ncores over the week: spare capacity vs spot usage";
  std::printf("%s",
              render_lines({{"free", {report.free_cores.values().begin(),
                                      report.free_cores.values().end()}},
                            {"spot", {report.spot_cores.values().begin(),
                                      report.spot_cores.values().end()}}},
                           chart)
                  .c_str());

  bench::banner("Learned eviction risk by submission hour (ref [15])");
  std::vector<std::pair<std::string, double>> bars;
  for (int h = 0; h < 24; h += 2) {
    // Appending (not "h" + to_string) sidesteps a GCC 12 -Wrestrict false
    // positive that breaks the -Werror Release build.
    std::string label = "h";
    label += std::to_string(h);
    bars.emplace_back(std::move(label), report.eviction_risk_by_hour[h]);
  }
  std::printf("%s", render_bars(bars, 40).c_str());

  bench::banner("Snape-style mixture policy (ref [16])");
  const auto cmp = policies::compare_mixture_policy(trace, options, 0.10);
  TextTable t2({"policy", "normalized cost", "completion"});
  t2.row().add("all on-demand").add(cmp.all_ondemand_cost, 0).add("1.000");
  t2.row()
      .add("all spot")
      .add(cmp.all_spot_cost, 0)
      .add(cmp.all_spot_completion, 3);
  t2.row()
      .add("risk-aware mixture")
      .add(cmp.mixture_cost, 0)
      .add(cmp.mixture_completion, 3);
  std::printf("%s", t2.to_string().c_str());

  bench::banner("Shape checks");
  bench::ShapeChecks checks;
  checks.expect(report.utilization_with_spot > report.utilization_before,
                "spot adoption lifts platform utilization");
  checks.expect(cmp.mixture_cost < cmp.all_ondemand_cost,
                "mixture is cheaper than all on-demand");
  checks.expect(cmp.mixture_completion >= cmp.all_spot_completion,
                "mixture completes at least as much as all-spot");
  checks.expect(report.eviction_rate < 0.5,
                "most admitted spot jobs survive");
  return checks.exit_code();
}
