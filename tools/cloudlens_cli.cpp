// cloudlens — command-line front end for the file-based workflow:
//
//   cloudlens generate --out DIR [--scale F] [--seed N] [--util-vms N]
//       synthesize a one-week dual-cloud trace and write topology.csv,
//       vmtable.csv, utilization.csv, and kb.csv into DIR.
//   cloudlens import --in DIR [--backend cloudlens|azure|google]
//       import a raw trace directory through an ingest backend.
//   cloudlens analyze --in DIR
//       load a trace directory and print the full characterization.
//   cloudlens insights --in DIR
//       evaluate the paper's four insights against the trace.
//   cloudlens figures --in DIR
//       write the data series behind each paper figure as fig*.csv.
//   cloudlens fit --in DIR
//       estimate generative CloudProfile parameters from the trace.
//   cloudlens advise --in DIR [--cloud private|public]
//       run the workload-aware advisor from the stored knowledge base.
//   cloudlens stream --in DIR
//       print the trace as the time-ordered event stream serve ingests.
//   cloudlens serve [--window-weeks N] [--listen SOCK]
//       ingest an event stream on stdin and answer queries mid-stream.
//
// Any directory holding CSVs in the documented schema — including
// preprocessed external traces — can be analyzed the same way.
//
// Every command runs through the shared run plan (pipeline/run_plan.h):
// the trace and knowledge-base prefixes are content-keyed artifacts whose
// binary snapshots land in an artifact cache, so a warm rerun loads them
// instead of regenerating/reimporting — bit-identically, at any --threads
// setting. The telemetry panel is rebuilt in memory by the commands that
// read many rows (analyze, insights, figures), never cached. The analysis
// commands also run without --in, resolving the generated scenario for
// (--scale, --seed) straight from the cache that `generate` populated.
// `--cache-dir DIR` relocates the cache (default: `<dir>/.cloudlens-cache`),
// `--no-cache` disables it, and each run prints a per-stage hit/miss +
// timing table.
//
// Observability: every command honours `--metrics-out FILE.json` (counter /
// gauge / histogram snapshot of the run plus an end-of-run summary table on
// stdout) and `--trace-out FILE.json` (Chrome Trace Event spans, loadable
// in chrome://tracing or ui.perfetto.dev). Both are write-only side
// channels: enabling them never changes any output.
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#ifdef __unix__
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#endif

#include "analysis/context.h"
#include "analysis/deployment.h"
#include "common/args.h"
#include "analysis/figures.h"
#include "analysis/insights.h"
#include "analysis/report.h"
#include "cloudsim/trace_io.h"
#include "common/parallel.h"
#include "common/table.h"
#include "ingest/backend.h"
#include "kb/extractor.h"
#include "kb/store.h"
#include "obs/metrics.h"
#include "obs/trace_sink.h"
#include "pipeline/run_plan.h"
#include "policies/advisor.h"
#include "serve/engine.h"
#include "serve/stream.h"
#include "workloads/fit.h"
#include "workloads/generator.h"

using namespace cloudlens;

namespace {

struct CliArgs {
  std::string command;
  std::string dir;
  bool in_given = false;  ///< dir came from --in (CSV source mode)
  std::string report_path;
  std::string metrics_out;
  std::string trace_out;
  std::string cache_dir;  ///< empty = default <dir>/.cloudlens-cache
  bool no_cache = false;
  /// Ingest backend for --in directories: cloudlens|azure|google.
  std::string backend;
  bool help = false;
  double scale = 0.3;
  std::uint64_t seed = 42;
  std::size_t util_vms = 1500;
  /// Worker threads for generation and analysis: 0 = all hardware threads,
  /// 1 = serial. Outputs are bit-identical at any setting.
  std::size_t threads = 0;
  /// Out-of-core mode: record shard count (0 = resident). Outputs are
  /// byte-identical either way.
  std::uint32_t record_shards = 0;
  /// Residency budget for the decoded record shards.
  std::uint64_t shard_budget_mib = 256;
  CloudType cloud = CloudType::kPublic;
  bool cloud_given = false;
  /// serve: optional AF_UNIX listen socket (empty = stdin/stdout only),
  /// rolling-window width in weeks, and checkpoint snapshot directory.
  std::string listen_path;
  std::uint64_t window_weeks = 2;
  std::string checkpoint_dir;

  ParallelConfig parallel() const {
    return ParallelConfig::with_threads(threads);
  }

  /// Artifact-cache root: --cache-dir wins, else hidden dir next to the
  /// trace (or the working directory when no trace dir is involved).
  std::string effective_cache_dir() const {
    if (!cache_dir.empty()) return cache_dir;
    if (!dir.empty()) return dir + "/.cloudlens-cache";
    return ".cloudlens-cache";
  }
};

constexpr const char* kCommonFlagHelp =
    "  --threads N         worker threads (0 = all cores, 1 = serial);\n"
    "                      output is bit-identical at any setting\n"
    "  --cache-dir DIR     artifact cache location (default:\n"
    "                      <dir>/.cloudlens-cache); safe to delete anytime\n"
    "  --no-cache          neither read nor write the artifact cache\n"
    "  --metrics-out FILE  write a metrics JSON snapshot and print\n"
    "                      an end-of-run summary table\n"
    "  --trace-out FILE    write Chrome Trace Event spans (load in\n"
    "                      chrome://tracing or ui.perfetto.dev)\n"
    "  --record-shards N   out-of-core mode: spill the VM and\n"
    "                      subscription records as N CLSN shards keyed by\n"
    "                      subscription hash, and compute telemetry rows\n"
    "                      on demand instead of holding a panel; output is\n"
    "                      byte-identical (0 = resident, default;\n"
    "                      generate, advise, fit and stream\n"
    "                      refuse it)\n"
    "  --shard-budget-mib N  residency budget for --record-shards\n"
    "                      (default 256; execution knob, never cached)\n"
    "  --backend B         ingest backend for --in directories:\n"
    "                      cloudlens (default) | azure | google\n"
    "flags also accept the --flag=VALUE spelling\n";

/// Prints the top-level usage text. Exit code 2 on the error paths
/// (unknown command/flag, missing value); 0 when help was asked for.
int usage(int rc = 2) {
  (rc == 0 ? std::cout : std::cerr)
      << "usage: cloudlens "
               "<generate|import|analyze|insights|figures|fit|advise|"
               "stream|serve>\n"
               "  generate --out DIR [--scale F] [--seed N] [--util-vms N]\n"
               "  import   --in DIR [--backend cloudlens|azure|google]\n"
               "  analyze  [--in DIR] [--report out.md]\n"
               "  insights [--in DIR]\n"
               "  figures  --in DIR | --out DIR  (writes fig*.csv there)\n"
               "  fit      [--in DIR]   (estimate generative parameters)\n"
               "  advise   [--in DIR] [--cloud private|public]\n"
               "  stream   [--in DIR]   (print the trace as an event stream)\n"
               "  serve    [--window-weeks N] [--listen SOCK]\n"
               "           (ingest an event stream on stdin; answer queries)\n"
               "analysis commands without --in resolve the generated\n"
               "scenario for (--scale, --seed) through the artifact cache.\n"
               "run `cloudlens <command> --help` for per-command flags.\n"
            << kCommonFlagHelp;
  return rc;
}

int command_help(const std::string& command) {
  if (command == "generate") {
    std::cout
        << "usage: cloudlens generate --out DIR [flags]\n"
           "synthesize a one-week dual-cloud trace; write topology.csv,\n"
           "vmtable.csv, utilization.csv, kb.csv into DIR and populate the\n"
           "artifact cache (trace + kb) for later commands.\n"
           "  --out DIR           output directory (required)\n"
           "  --scale F           population scale (default 0.3)\n"
           "  --seed N            generator seed (default 42)\n"
           "  --util-vms N        cap on VMs with utilization.csv rows\n"
           "                      (default 1500; 0 = all; excess VMs are\n"
           "                      dropped with a stderr note)\n";
  } else if (command == "import") {
    std::cout
        << "usage: cloudlens import --in DIR [--backend B] [flags]\n"
           "import a raw trace directory through an ingest backend and\n"
           "print the import + fidelity summary. Decode is parallel\n"
           "(--threads) and bit-identical at any thread count; the\n"
           "resulting trace is cached by the input files' raw bytes, so\n"
           "a following analyze/figures run over the same directory is\n"
           "a warm cache hit.\n"
           "  --in DIR            trace directory (required)\n"
           "  --backend B         cloudlens (default): topology.csv,\n"
           "                      vmtable.csv, utilization.csv\n"
           "                      azure: vmtable.csv, vm_cpu_readings.csv\n"
           "                      (Azure Public Dataset v1/v2 schema)\n"
           "                      google: task_events.csv, task_usage.csv\n"
           "                      (Google cluster-trace schema)\n"
           "  --report FILE.md    also write the full characterization\n"
           "                      report for the imported trace\n";
  } else if (command == "analyze") {
    std::cout
        << "usage: cloudlens analyze [--in DIR] [flags]\n"
           "print the full characterization (or write --report markdown).\n"
           "  --in DIR            trace directory (omit to analyze the\n"
           "                      generated scenario for --scale/--seed)\n"
           "  --report FILE.md    write the markdown report instead\n"
           "  --scale F --seed N  generated-mode scenario parameters\n";
  } else if (command == "insights") {
    std::cout
        << "usage: cloudlens insights [--in DIR] [flags]\n"
           "evaluate the paper's four insights; exit 0 iff all hold.\n"
           "  --in DIR            trace directory (omit for generated mode)\n"
           "  --scale F --seed N  generated-mode scenario parameters\n";
  } else if (command == "figures") {
    std::cout
        << "usage: cloudlens figures --in DIR | --out DIR [flags]\n"
           "write the data series behind each paper figure as fig*.csv.\n"
           "  --in DIR            trace directory; figures land next to it\n"
           "  --out DIR           generated mode: figure output directory\n"
           "  --scale F --seed N  generated-mode scenario parameters\n";
  } else if (command == "fit") {
    std::cout
        << "usage: cloudlens fit [--in DIR] [flags]\n"
           "estimate generative CloudProfile parameters from the trace.\n"
           "  --in DIR            trace directory (omit for generated mode)\n"
           "  --scale F --seed N  generated-mode scenario parameters\n";
  } else if (command == "advise") {
    std::cout
        << "usage: cloudlens advise [--in DIR] [--cloud private|public]\n"
           "run the workload-aware advisor from the knowledge base\n"
           "(DIR/kb.csv when present, else extracted via the kb stage).\n"
           "The platform evaluations fan out over --threads workers.\n"
           "  --in DIR            trace directory (omit for generated mode)\n"
           "  --cloud C           advise one cloud only\n"
           "  --scale F --seed N  generated-mode scenario parameters\n";
  } else if (command == "stream") {
    std::cout
        << "usage: cloudlens stream [--in DIR] [flags]\n"
           "render the trace as the line-delimited event stream `serve`\n"
           "ingests (VM lifecycle + 5-minute samples, time-ordered) on\n"
           "stdout. Progress goes to stderr, so stdout pipes cleanly.\n"
           "  --in DIR            trace directory (omit for generated mode)\n"
           "  --scale F --seed N  generated-mode scenario parameters\n";
  } else if (command == "serve") {
    std::cout
        << "usage: cloudlens serve [flags]\n"
           "ingest an event stream on stdin. Lines of the form\n"
           "`query,<what>` are answered on stdout mid-stream; everything\n"
           "else is ingested. Query kinds: report, insights,\n"
           "shares,private|public, figures, kb, kb-longterm, stats,\n"
           "checkpoint. Results are byte-identical to the batch pipeline\n"
           "over the same data, at any --threads setting.\n"
           "  --window-weeks N    rolling analysis window (default 2;\n"
           "                      0 = never roll). Evicted weeks fold into\n"
           "                      the long-term knowledge base\n"
           "  --listen SOCK      also answer one-query-per-connection\n"
           "                      requests on an AF_UNIX socket\n"
           "  --checkpoint-dir D  where `query,checkpoint` writes binary\n"
           "                      snapshots (disabled when empty)\n";
  } else {
    return usage();
  }
  std::cout << "common flags:\n" << kCommonFlagHelp;
  return 0;
}

/// Declarative flag table over common/args.h. Every command shares one
/// table: per-command validation (required flags, flags that only make
/// sense for one command) stays in the cmd_* functions.
bool parse(int argc, char** argv, CliArgs& args) {
  if (argc < 2) return false;
  args.command = argv[1];
  if (args.command == "--help" || args.command == "-h") {
    args.help = true;
    args.command.clear();
    return true;
  }
  bool out_given = false;
  args::FlagSet flags;
  flags.flag("--help", &args.help)
      .flag("-h", &args.help)
      .flag("--no-cache", &args.no_cache)
      .value("--out", &args.dir, &out_given)
      .value("--in", &args.dir, &args.in_given)
      .value("--scale", &args.scale)
      .value("--seed", &args.seed)
      .value("--util-vms", &args.util_vms)
      .value("--threads", &args.threads)
      .value("--record-shards", &args.record_shards)
      .value("--shard-budget-mib", &args.shard_budget_mib)
      .value("--report", &args.report_path)
      .value("--metrics-out", &args.metrics_out)
      .value("--trace-out", &args.trace_out)
      .value("--cache-dir", &args.cache_dir)
      .value(
          "--backend",
          [&args](const std::string& v) {
            if (ingest::find_backend(v) == nullptr) return false;
            args.backend = v;
            return true;
          },
          "want cloudlens|azure|google")
      .value("--listen", &args.listen_path)
      .value("--window-weeks", &args.window_weeks)
      .value("--checkpoint-dir", &args.checkpoint_dir)
      .value(
          "--cloud",
          [&args](const std::string& v) {
            if (v != "private" && v != "public") return false;
            args.cloud =
                v == "private" ? CloudType::kPrivate : CloudType::kPublic;
            args.cloud_given = true;
            return true;
          },
          "want private|public");
  if (!flags.parse(argc, argv, /*start=*/2)) {
    std::cerr << flags.error() << "\n";
    return false;
  }
  if (out_given && args.in_given) {
    std::cerr << "--in and --out are mutually exclusive\n";
    return false;
  }
  return true;
}

/// Shared run-plan scaffolding: CSV mode when --in was given, generated
/// mode (same scenario parameters as `generate`) otherwise.
pipeline::RunPlanOptions make_plan(const CliArgs& args) {
  pipeline::RunPlanOptions plan;
  if (args.in_given) {
    plan.trace_dir = args.dir;
    plan.trace_backend = args.backend;
  } else {
    plan.scenario.scale = args.scale;
    plan.scenario.seed = args.seed;
  }
  plan.parallel = args.parallel();
  plan.record_shards = args.record_shards;
  plan.shard_budget_mib = args.shard_budget_mib;
  plan.cache_dir = args.effective_cache_dir();
  plan.cache_enabled = !args.no_cache;
  return plan;
}

/// generate, advise, fit and stream read the resident record vector, which
/// a record-sharded trace does not have: refuse the flag before any work.
/// They also read too few telemetry rows to pay for a panel, so their
/// plans set want_panel = false.
bool rejects_record_shards(const CliArgs& args) {
  if (args.record_shards == 0) return false;
  std::cerr << args.command
            << ": --record-shards is not supported (this command reads "
               "resident records)\n";
  return true;
}

void print_stage_reports(const pipeline::ResolvedRun& run) {
  std::cout << "pipeline stages (cache: "
            << "hit = loaded, miss+stored = computed and cached):\n"
            << pipeline::render_stage_table(run.reports) << "\n";
}

pipeline::ResolvedRun resolve_and_report(const pipeline::RunPlanOptions& plan,
                                         const CliArgs& args) {
  if (plan.trace_dir.empty()) {
    std::cout << "resolving generated scenario (scale=" << args.scale
              << ", seed=" << args.seed << ")...\n";
  }
  auto run = pipeline::run_trace_plan(plan);
  print_stage_reports(run);
  return run;
}

int cmd_generate(const CliArgs& args) {
  if (args.dir.empty()) {
    std::cerr << "generate requires --out DIR\n";
    return 2;
  }
  if (rejects_record_shards(args)) return 2;
  pipeline::RunPlanOptions plan = make_plan(args);
  plan.trace_dir.clear();  // generate is always generated-mode
  plan.want_panel = false;
  plan.want_kb = true;
  plan.kb_options.max_classified_vms = 4;
  std::cout << "generating scenario (scale=" << args.scale
            << ", seed=" << args.seed << ")...\n";
  auto run = pipeline::run_trace_plan(plan);
  const TraceStore& trace = *run.trace->trace;
  std::cout << "  " << trace.vm_count() << " VMs, "
            << trace.subscription_count() << " subscriptions\n";

  {
    std::ofstream out(args.dir + "/topology.csv");
    if (!out) {
      std::cerr << "cannot write to " << args.dir << "\n";
      return 1;
    }
    export_topology(*run.trace->topology, out);
  }
  {
    std::ofstream out(args.dir + "/vmtable.csv");
    export_vm_table(trace, out);
  }
  {
    std::ofstream out(args.dir + "/utilization.csv");
    TraceExportOptions ex;
    ex.max_vms_with_utilization = args.util_vms;
    export_utilization(trace, out, ex);
  }
  {
    std::ofstream out(args.dir + "/kb.csv");
    out << run.knowledge->to_csv();
    std::cout << "  " << run.knowledge->size() << " knowledge records\n";
  }
  std::cout << "wrote topology.csv, vmtable.csv, utilization.csv, kb.csv to "
            << args.dir << "\n";
  print_stage_reports(run);
  return 0;
}

/// Import a raw trace directory through an ingest backend: resolve the
/// trace stage (which caches the decoded trace by input bytes), print
/// the import + fidelity report, and optionally write the full
/// characterization report.
int cmd_import(const CliArgs& args) {
  if (!args.in_given) {
    std::cerr << "import requires --in DIR\n";
    return 2;
  }
  pipeline::RunPlanOptions plan = make_plan(args);
  plan.want_panel = false;  // decode + cache; --report rows come on demand
  const ingest::IngestBackend& backend =
      *ingest::find_backend(plan.trace_backend);
  std::cout << "importing " << args.dir << " via the " << backend.name()
            << " backend (" << backend.description() << ")...\n";
  const auto run = pipeline::run_trace_plan(plan);
  const TraceStore& trace = *run.trace->trace;
  std::cout << "loaded " << trace.vm_count() << " VMs, "
            << trace.subscription_count() << " subscriptions, "
            << trace.topology().nodes().size() << " nodes\n\n";
  if (run.trace->ingest.rows > 0) {
    std::cout << ingest::render_ingest_report(run.trace->ingest) << "\n";
  } else {
    std::cout << "(trace stage was a warm cache hit; files were not "
                 "re-decoded)\n";
  }
  print_stage_reports(run);
  if (!args.report_path.empty()) {
    const AnalysisContext ctx(trace, args.parallel());
    std::ofstream out(args.report_path);
    CL_CHECK_MSG(out.good(), "cannot write " << args.report_path);
    analysis::write_characterization_report(ctx, out);
    std::cout << "markdown report written to " << args.report_path << "\n";
  }
  return 0;
}

int cmd_analyze(const CliArgs& args) {
  const auto run = resolve_and_report(make_plan(args), args);
  const TraceStore& trace = *run.trace->trace;
  std::cout << "loaded " << trace.vm_count() << " VMs over "
            << trace.topology().regions().size() << " regions\n\n";
  const AnalysisContext ctx(trace, args.parallel());
  if (!args.report_path.empty()) {
    std::ofstream out(args.report_path);
    CL_CHECK_MSG(out.good(), "cannot write " << args.report_path);
    analysis::write_characterization_report(ctx, out);
    std::cout << "markdown report written to " << args.report_path << "\n";
    return 0;
  }
  const auto verdicts = analysis::evaluate_insights(ctx);
  std::cout << analysis::render_insights(verdicts);
  return 0;
}

int cmd_insights(const CliArgs& args) {
  const auto run = resolve_and_report(make_plan(args), args);
  const AnalysisContext ctx(*run.trace->trace, args.parallel());
  const auto verdicts = analysis::evaluate_insights(ctx);
  std::cout << analysis::render_insights(verdicts);
  std::cout << "\noverall: "
            << (verdicts.all() ? "all four insights hold"
                               : "some insights not observed")
            << "\n";
  return verdicts.all() ? 0 : 1;
}

/// Write the raw data series behind each paper figure as CSVs, ready for
/// external plotting (the series themselves come from analysis/figures.h).
int cmd_figures(const CliArgs& args) {
  if (args.dir.empty()) {
    std::cerr << "figures requires --in DIR (CSV mode) or --out DIR "
                 "(generated mode)\n";
    return 2;
  }
  const auto run = resolve_and_report(make_plan(args), args);
  const AnalysisContext ctx(*run.trace->trace, args.parallel());

  std::ofstream fig_out;
  const auto open = [&](const std::string& name) -> std::ostream& {
    if (fig_out.is_open()) fig_out.close();
    fig_out.clear();
    fig_out.open(args.dir + "/" + name);
    CL_CHECK_MSG(fig_out.good(), "cannot write " << args.dir << "/" << name);
    return fig_out;
  };
  analysis::write_figure_csvs(ctx, open);
  fig_out.close();
  std::cout << "figure data written to " << args.dir << "/fig*.csv\n";
  return 0;
}

/// Estimate generative CloudProfile parameters from a trace directory (the
/// inverse problem; see workloads/fit.h). Prints the fitted parameter set
/// for each cloud present in the trace.
int cmd_fit(const CliArgs& args) {
  if (rejects_record_shards(args)) return 2;
  pipeline::RunPlanOptions plan = make_plan(args);
  plan.want_panel = false;
  const auto run = resolve_and_report(plan, args);
  const TraceStore& trace = *run.trace->trace;
  for (const CloudType cloud : {CloudType::kPrivate, CloudType::kPublic}) {
    bool present = false;
    for (const auto& sub : trace.subscriptions()) {
      if (sub.cloud == cloud) {
        present = true;
        break;
      }
    }
    if (!present) continue;
    const auto base = cloud == CloudType::kPrivate
                          ? workloads::CloudProfile::azure_private()
                          : workloads::CloudProfile::azure_public();
    workloads::FitOptions fit_options;
    fit_options.parallel = args.parallel();
    const auto fit = workloads::fit_profile(trace, cloud, base, fit_options);
    const auto& p = fit.profile;
    std::cout << "\n--- fitted profile: " << p.name << " ---\n";
    TextTable t({"parameter", "value"});
    t.row().add("first_party_services").add(p.first_party_services);
    t.row().add("third_party_subscriptions").add(p.third_party_subscriptions);
    t.row().add("subs_per_service_mean").add(p.subs_per_service_mean, 2);
    t.row().add("deploy_size_mu (log VMs)").add(p.deploy_size_mu, 3);
    t.row().add("deploy_size_sigma").add(p.deploy_size_sigma, 3);
    t.row().add("deploy_size_mu_decay_per_region")
        .add(p.deploy_size_mu_decay_per_region, 3);
    t.row().add("single-region weight").add(p.region_count_weights[0], 3);
    t.row().add("region_agnostic_prob").add(p.region_agnostic_prob, 2);
    t.row().add("shortest lifetime bin share")
        .add(p.lifetime.shortest_bin_share(), 3);
    t.row().add("pattern mix d/s/i/h")
        .add(format_double(p.pattern_mix.diurnal, 2) + "/" +
             format_double(p.pattern_mix.stable, 2) + "/" +
             format_double(p.pattern_mix.irregular, 2) + "/" +
             format_double(p.pattern_mix.hourly_peak, 2));
    t.row().add("diurnal churn peak (per hour per region)")
        .add(p.diurnal_churn.base_per_hour, 1);
    t.row().add("weekend scale").add(p.diurnal_churn.weekend_scale, 2);
    t.row().add("bursts per week per region")
        .add(p.burst_churn.bursts_per_week, 2);
    t.row().add("standing_end_prob").add(p.standing_end_prob, 3);
    std::cout << t;
    std::cout << "(from " << fit.deployments_observed << " deployments, "
              << fit.ended_vms_observed << " ended VMs, "
              << fit.classified_vms << " classified VMs)\n";
  }
  return 0;
}

int cmd_advise(const CliArgs& args) {
  if (rejects_record_shards(args)) return 2;
  pipeline::RunPlanOptions plan = make_plan(args);
  plan.want_panel = false;
  // CSV mode keeps the historical contract: DIR/kb.csv is the knowledge
  // base when present. Generated mode resolves the kb stage (same options
  // as `generate`, so a prior generate run is a cache hit).
  std::ifstream kb_file(args.in_given ? args.dir + "/kb.csv" : "");
  const bool kb_from_file = args.in_given && kb_file.good();
  if (!args.in_given) {
    plan.want_kb = true;
    plan.kb_options.max_classified_vms = 4;
  } else if (!kb_from_file) {
    plan.want_kb = true;
  }
  const auto run = resolve_and_report(plan, args);

  kb::KnowledgeBase knowledge;
  if (kb_from_file) {
    std::stringstream buffer;
    buffer << kb_file.rdbuf();
    knowledge = kb::KnowledgeBase::from_csv(buffer.str());
    std::cout << "loaded knowledge base: " << knowledge.size()
              << " records\n";
  } else {
    if (args.in_given) std::cout << "no kb.csv found; using kb stage...\n";
    knowledge = *run.knowledge;
  }
  const auto clouds =
      args.cloud_given
          ? std::vector<CloudType>{args.cloud}
          : std::vector<CloudType>{CloudType::kPrivate, CloudType::kPublic};
  for (const CloudType cloud : clouds) {
    const auto report =
        policies::advise(*run.trace->trace, knowledge, cloud, args.parallel());
    std::cout << "\n" << policies::render_report(*run.trace->trace, report);
  }
  return 0;
}

/// Print the trace as the serve event stream on stdout. Stage reports and
/// progress go to stderr so `cloudlens stream | cloudlens serve` carries
/// only stream bytes.
int cmd_stream(const CliArgs& args) {
  if (!args.metrics_out.empty() || !args.trace_out.empty()) {
    std::cerr << "stream: --metrics-out/--trace-out would interleave with "
                 "the stream; not supported\n";
    return 2;
  }
  if (!args.dir.empty() && !args.in_given) {
    std::cerr << "stream writes to stdout; --out makes no sense here\n";
    return 2;
  }
  if (rejects_record_shards(args)) return 2;
  pipeline::RunPlanOptions plan = make_plan(args);
  plan.want_panel = false;
  const auto run = pipeline::run_trace_plan(plan);
  std::cerr << "streaming " << run.trace->trace->vm_count() << " VMs over "
            << run.trace->trace->telemetry_grid().count << " ticks...\n";
  serve::write_event_stream(*run.trace->topology, *run.trace->trace,
                            std::cout);
  return 0;
}

/// Ingest an event stream on stdin; `query,<what>` lines are answered
/// inline on stdout. With --listen, an AF_UNIX socket answers one query
/// per connection concurrently with ingestion.
int cmd_serve(const CliArgs& args) {
  serve::ServeOptions options;
  options.window_weeks = args.window_weeks;
  options.parallel = args.parallel();
  options.checkpoint_dir = args.checkpoint_dir;
  serve::ServeEngine engine(options);

#ifdef __unix__
  int listen_fd = -1;
  std::thread listener;
  if (!args.listen_path.empty()) {
    listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    CL_CHECK_MSG(listen_fd >= 0, "cannot create socket");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    CL_CHECK_MSG(args.listen_path.size() < sizeof(addr.sun_path),
                 "--listen path too long: " << args.listen_path);
    std::strncpy(addr.sun_path, args.listen_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    ::unlink(args.listen_path.c_str());
    CL_CHECK_MSG(::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)) == 0,
                 "cannot bind " << args.listen_path);
    CL_CHECK_MSG(::listen(listen_fd, 8) == 0,
                 "cannot listen on " << args.listen_path);
    std::cerr << "listening on " << args.listen_path << "\n";
    listener = std::thread([&engine, listen_fd] {
      for (;;) {
        const int conn = ::accept(listen_fd, nullptr, nullptr);
        if (conn < 0) return;  // listen socket closed: shutting down
        std::string request;
        char ch;
        while (::read(conn, &ch, 1) == 1 && ch != '\n') request += ch;
        if (request.rfind("query,", 0) == 0) request = request.substr(6);
        std::string response;
        try {
          response = engine.query(request);
        } catch (const std::exception& e) {
          response = std::string("error: ") + e.what() + "\n";
        }
        const char* p = response.data();
        std::size_t left = response.size();
        while (left > 0) {
          const ssize_t wrote = ::write(conn, p, left);
          if (wrote <= 0) break;
          p += wrote;
          left -= static_cast<std::size_t>(wrote);
        }
        ::close(conn);
      }
    });
  }
#else
  if (!args.listen_path.empty()) {
    std::cerr << "--listen requires AF_UNIX sockets (unsupported here)\n";
    return 2;
  }
#endif

  std::string line;
  while (std::getline(std::cin, line)) {
    if (line.rfind("query,", 0) == 0) {
      std::cout << engine.query(line.substr(6)) << std::flush;
    } else {
      engine.ingest_line(line);
    }
  }
  std::cerr << "serve: " << engine.query("stats");

#ifdef __unix__
  if (listen_fd >= 0) {
    ::shutdown(listen_fd, SHUT_RDWR);
    ::close(listen_fd);
    listener.join();
    ::unlink(args.listen_path.c_str());
  }
#endif
  return 0;
}

/// Flush the observability side channels requested on the command line:
/// JSON snapshots to the given paths plus an end-of-run summary table on
/// stdout (non-zero counters, then per-phase latency from the histograms).
void write_obs_outputs(const CliArgs& args) {
  if (!args.metrics_out.empty()) {
    const auto snap = obs::MetricsRegistry::global().snapshot();
    {
      std::ofstream out(args.metrics_out);
      if (!out) {
        std::cerr << "cannot write " << args.metrics_out << "\n";
      } else {
        obs::MetricsRegistry::global().write_json(out);
      }
    }
    std::cout << "\n--- run metrics (written to " << args.metrics_out
              << ") ---\n";
    TextTable counters({"counter", "count"});
    for (const auto& [name, value] : snap.counters) {
      if (value > 0) counters.row().add(std::string(name)).add(value);
    }
    if (counters.row_count() > 0) std::cout << counters;
    TextTable phases({"phase", "count", "mean_ms", "total_ms"});
    for (const auto& h : snap.histograms) {
      if (h.count == 0) continue;
      phases.row()
          .add(std::string(h.name))
          .add(h.count)
          .add(h.mean_seconds() * 1e3, 2)
          .add(h.sum_seconds() * 1e3, 2);
    }
    if (phases.row_count() > 0) std::cout << "\n" << phases;
  }
  if (!args.trace_out.empty()) {
    std::ofstream out(args.trace_out);
    if (!out) {
      std::cerr << "cannot write " << args.trace_out << "\n";
      return;
    }
    obs::TraceSink::global().write_json(out);
    std::cout << "\ntrace spans written to " << args.trace_out << " ("
              << obs::TraceSink::global().event_count()
              << " events; load in chrome://tracing or ui.perfetto.dev)\n";
  }
}

int run_command(const CliArgs& args) {
  if (args.command == "generate") return cmd_generate(args);
  if (args.command == "import") return cmd_import(args);
  if (args.command == "analyze") return cmd_analyze(args);
  if (args.command == "insights") return cmd_insights(args);
  if (args.command == "figures") return cmd_figures(args);
  if (args.command == "fit") return cmd_fit(args);
  if (args.command == "advise") return cmd_advise(args);
  if (args.command == "stream") return cmd_stream(args);
  if (args.command == "serve") return cmd_serve(args);
  std::cerr << "unknown command: " << args.command << "\n";
  return -1;
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args;
  if (!parse(argc, argv, args)) return usage();
  if (args.help) {
    return args.command.empty() ? usage(0) : command_help(args.command);
  }
  // Observability is opt-in per run: the global registry and sink start
  // disabled, and enabling them never changes command output.
  if (!args.metrics_out.empty())
    obs::MetricsRegistry::global().set_enabled(true);
  if (!args.trace_out.empty()) obs::TraceSink::global().set_enabled(true);
  int rc = 0;
  try {
    // Scoped so the top-level span completes before the sink is written.
    const obs::Span span("cli." + args.command, nullptr, "cli");
    rc = run_command(args);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  if (rc < 0) return usage();
  write_obs_outputs(args);
  return rc;
}
