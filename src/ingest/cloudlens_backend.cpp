// The cloudlens CSV schema backend (topology/vmtable/utilization — the
// format `cloudlens generate` writes; docs/TRACE_FORMAT.md). This is the
// import half that historically lived in cloudsim/trace_io.cpp, rebuilt
// on the chunked parallel decode path with strict field parsing.
#include <cstdint>
#include <fstream>
#include <istream>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cloudsim/trace_io.h"
#include "common/check.h"
#include "ingest/backend.h"
#include "ingest/csv.h"
#include "ingest/ingest.h"
#include "obs/metrics.h"
#include "obs/phase_timer.h"

namespace cloudlens::ingest {

CloudType parse_cloud(const CsvRow& row, std::size_t col) {
  const std::string_view text = row.field(col);
  if (text == "private") return CloudType::kPrivate;
  if (text == "public") return CloudType::kPublic;
  row.fail(col, "private|public");
}

PartyType parse_party(const CsvRow& row, std::size_t col) {
  const std::string_view text = row.field(col);
  if (text == "first-party") return PartyType::kFirstParty;
  if (text == "third-party") return PartyType::kThirdParty;
  row.fail(col, "first-party|third-party");
}

std::uint32_t parse_id(const CsvRow& row, std::size_t col) {
  const std::uint64_t value = row.u64(col);
  if (value >= VmId::kInvalid) row.fail(col, "an id below 4294967295");
  return static_cast<std::uint32_t>(value);
}

void PlaceholderUniverse::add(SubscriptionId subscription, ServiceId service,
                              CloudType cloud, PartyType party) {
  const std::size_t s = subscription.value();
  if (s >= subscriptions_.size()) subscriptions_.resize(s + 1);
  subscriptions_[s].cloud = cloud;
  subscriptions_[s].party = party;
  if (!service.valid()) return;
  subscriptions_[s].service = service;
  const std::size_t v = service.value();
  if (v >= services_.size()) services_.resize(v + 1);
  services_[v].cloud = cloud;
  if (services_[v].name.empty()) services_[v].name = "svc-" + std::to_string(v);
}

void PlaceholderUniverse::install(TraceStore& trace) {
  for (auto& svc : services_) {
    if (svc.name.empty()) svc.name = "svc-unreferenced";
    trace.add_service(svc);
  }
  for (const auto& sub : subscriptions_) trace.add_subscription(sub);
}

namespace {

CsvDecodeOptions decode_options(const IngestOptions& options,
                                std::string file) {
  CsvDecodeOptions decode;
  decode.file = std::move(file);
  decode.parallel = options.parallel;
  decode.block_bytes = options.block_bytes;
  decode.chunk_lines = options.chunk_lines;
  decode.metrics = options.metrics;
  decode.first_line = 2;  // line 1 is the header, consumed by the caller
  return decode;
}

/// A 32-bit placement id (region, cluster, rack, node). Unlike parse_id
/// it accepts 4294967295, the invalid id export_vm_table writes for an
/// unplaced VM; anything wider fails like any other malformed field.
std::uint32_t parse_placement(const CsvRow& row, std::size_t col) {
  const std::uint64_t value = row.u64(col);
  if (value > NodeId::kInvalid) row.fail(col, "a 32-bit id");
  return static_cast<std::uint32_t>(value);
}

void check_header(std::istream& in, const std::string& file,
                  std::string_view prefix, std::string_view what) {
  std::string header;
  CL_CHECK_MSG(read_csv_line(in, header), "empty " << what << " CSV: " << file);
  CL_CHECK_MSG(header.rfind(prefix, 0) == 0,
               "unexpected " << what << " header in " << file << ": '"
                             << header << "'");
}

// --- typed rows (parsed in parallel; consumed serially in file order) ---

struct TopoRow {
  std::uint64_t node, rack, cluster, dc, region;
  std::string region_name;
  double tz, cores, memory_gb;
  CloudType cloud;
};

struct VmRow {
  std::uint64_t vm;
  SubscriptionId sub;
  ServiceId svc;  // invalid when the row names no service
  CloudType cloud;
  PartyType party;
  RegionId region;
  ClusterId cluster;
  RackId rack;
  NodeId node;
  double cores, memory_gb;
  SimTime created, deleted;
};

struct UtilRow {
  std::uint32_t vm;
  SimTime t;
  double cpu;
};

struct CloudlensImport {
  IngestResult result;
  const IngestOptions* options;

  void import(std::istream& topology_csv, const std::string& topology_name,
              std::istream& vm_csv, const std::string& vm_name,
              std::istream* utilization_csv,
              const std::string& utilization_name);
};

void CloudlensImport::import(std::istream& topology_csv,
                             const std::string& topology_name,
                             std::istream& vm_csv, const std::string& vm_name,
                             std::istream* utilization_csv,
                             const std::string& utilization_name) {
  const IngestOptions& opt = *options;
  result.report.backend = "cloudlens";
  result.topology = std::make_unique<Topology>();
  Topology& topo = *result.topology;

  // --- topology ----------------------------------------------------------
  check_header(topology_csv, topology_name, "node,", "topology");
  decode_csv<TopoRow>(
      topology_csv, decode_options(opt, topology_name),
      [](const CsvRow& row) {
        row.expect_fields(10);
        TopoRow r;
        r.node = row.u64(0);
        r.rack = row.u64(1);
        r.cluster = row.u64(2);
        r.dc = row.u64(3);
        r.region = row.u64(4);
        r.region_name = std::string(row.field(5));
        r.tz = row.f64(6);
        r.cloud = parse_cloud(row, 7);
        r.cores = row.f64(8);
        r.memory_gb = row.f64(9);
        return r;
      },
      [&](TopoRow&& r) {
        // Entities must appear in creation (id) order; create on first
        // sight.
        if (r.region == topo.regions().size()) {
          topo.add_region(r.region_name, r.tz);
        }
        CL_CHECK_MSG(r.region < topo.regions().size(),
                     "region ids out of order in topology CSV");
        if (r.dc == topo.datacenters().size()) {
          topo.add_datacenter(
              RegionId(static_cast<RegionId::underlying>(r.region)));
        }
        CL_CHECK(r.dc < topo.datacenters().size());
        if (r.cluster == topo.clusters().size()) {
          NodeSku sku;
          sku.cores = r.cores;
          sku.memory_gb = r.memory_gb;
          topo.add_cluster(
              DatacenterId(static_cast<DatacenterId::underlying>(r.dc)),
              r.cloud, sku);
        }
        CL_CHECK(r.cluster < topo.clusters().size());
        if (r.rack == topo.racks().size()) {
          topo.add_rack(
              ClusterId(static_cast<ClusterId::underlying>(r.cluster)));
        }
        CL_CHECK(r.rack < topo.racks().size());
        const NodeId created =
            topo.add_node(RackId(static_cast<RackId::underlying>(r.rack)));
        CL_CHECK_MSG(created.value() == r.node,
                     "node ids must be dense and in order");
        ++result.report.rows;
      });

  result.trace = std::make_unique<TraceStore>(result.topology.get(), opt.grid);
  TraceStore& trace = *result.trace;

  // --- vm table -----------------------------------------------------------
  check_header(vm_csv, vm_name, "vm,", "vmtable");
  std::vector<VmRow> rows;
  PlaceholderUniverse universe;
  decode_csv<VmRow>(
      vm_csv, decode_options(opt, vm_name),
      [](const CsvRow& row) {
        row.expect_fields(14);
        VmRow r;
        r.vm = row.u64(0);
        r.sub = SubscriptionId(parse_id(row, 1));
        if (!row.field(2).empty()) r.svc = ServiceId(parse_id(row, 2));
        r.cloud = parse_cloud(row, 3);
        r.party = parse_party(row, 4);
        r.region = RegionId(parse_placement(row, 5));
        r.cluster = ClusterId(parse_placement(row, 6));
        r.rack = RackId(parse_placement(row, 7));
        r.node = NodeId(parse_placement(row, 8));
        r.cores = row.f64(9);
        r.memory_gb = row.f64(10);
        r.created = row.i64(11);
        r.deleted = row.field(12).empty() ? kNoEnd : row.i64(12);
        // Column 14 is the informational pattern label; not validated.
        return r;
      },
      [&](VmRow&& r) {
        ++result.report.rows;
        universe.add(r.sub, r.svc, r.cloud, r.party);
        rows.push_back(std::move(r));
      });
  universe.install(trace);
  result.report.subscriptions = universe.subscription_count();

  // --- utilization (optional) --------------------------------------------
  std::unordered_map<std::uint32_t, std::shared_ptr<SampledUtilization>>
      samples;
  if (utilization_csv != nullptr) {
    check_header(*utilization_csv, utilization_name, "vm,", "utilization");
    std::unordered_map<std::uint32_t, std::vector<double>> buffers;
    const TimeGrid grid = opt.grid;
    decode_csv<UtilRow>(
        *utilization_csv, decode_options(opt, utilization_name),
        [](const CsvRow& row) {
          row.expect_fields(3);
          UtilRow r;
          r.vm = parse_id(row, 0);
          r.t = row.i64(1);
          r.cpu = row.f64(2);
          return r;
        },
        [&](UtilRow&& r) {
          ++result.report.rows;
          if (!grid.contains(r.t)) {
            ++result.report.skipped_rows;
            return;
          }
          auto& buf = buffers[r.vm];
          if (buf.empty()) buf.assign(grid.count, 0.0);
          buf[grid.index_of(r.t)] = r.cpu;
          ++result.report.samples;
        });
    for (auto& [vm, buf] : buffers) {
      samples.emplace(
          vm, std::make_shared<SampledUtilization>(grid, std::move(buf)));
    }
  }

  // --- materialize VM records (must be in id order) ------------------------
  // Every subscription is registered; stream the records out-of-core
  // from here when the caller asked for population sharding.
  begin_population_spill_if_configured(trace, opt);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const VmRow& r = rows[i];
    CL_CHECK_MSG(r.vm == i, "vm ids must be dense and in order");
    VmRecord rec;
    rec.subscription = r.sub;
    rec.service = r.svc;
    rec.cloud = r.cloud;
    rec.party = r.party;
    rec.region = r.region;
    rec.cluster = r.cluster;
    rec.rack = r.rack;
    rec.node = r.node;
    rec.cores = r.cores;
    rec.memory_gb = r.memory_gb;
    rec.created = r.created;
    rec.deleted = r.deleted;
    const auto it = samples.find(static_cast<std::uint32_t>(r.vm));
    if (it != samples.end()) rec.utilization = it->second;
    trace.add_vm(std::move(rec));
  }
  finish_population_spill_if_configured(trace, opt);
  result.report.vms = rows.size();

  obs::MetricsRegistry& metrics = opt.metrics != nullptr
                                      ? *opt.metrics
                                      : obs::MetricsRegistry::global();
  metrics.add(obs::Counter::kIngestVms, result.report.vms);
  metrics.add(obs::Counter::kIngestSamples, result.report.samples);
  metrics.add(obs::Counter::kIngestRowsSkipped, result.report.skipped_rows);
}

class CloudlensBackend final : public IngestBackend {
 public:
  std::string_view name() const override { return "cloudlens"; }
  std::string_view description() const override {
    return "cloudlens CSV schema (topology/vmtable/utilization, the format "
           "`cloudlens generate` writes)";
  }
  std::vector<std::string> input_files() const override {
    return {"topology.csv", "vmtable.csv", "utilization.csv"};
  }
  IngestResult import_dir(const std::string& dir,
                          const IngestOptions& options) const override {
    obs::PhaseTimer timer("ingest.cloudlens",
                          obs::Histogram::kIngestDecodeSeconds,
                          obs::Counter::kIngestImports, options.metrics,
                          options.sink);
    const std::string topo_path = dir + "/topology.csv";
    const std::string vm_path = dir + "/vmtable.csv";
    const std::string util_path = dir + "/utilization.csv";
    std::ifstream topo(topo_path, std::ios::binary);
    std::ifstream vms(vm_path, std::ios::binary);
    CL_CHECK_MSG(topo.good(), "missing " << topo_path);
    CL_CHECK_MSG(vms.good(), "missing " << vm_path);
    std::ifstream util(util_path, std::ios::binary);
    obs::MetricsRegistry& metrics = options.metrics != nullptr
                                        ? *options.metrics
                                        : obs::MetricsRegistry::global();
    metrics.add(obs::Counter::kIngestFiles, util.good() ? 3 : 2);
    CloudlensImport import;
    import.options = &options;
    import.import(topo, topo_path, vms, vm_path,
                  util.good() ? &util : nullptr, util_path);
    return std::move(import.result);
  }
};

}  // namespace

const IngestBackend& cloudlens_backend() {
  static const CloudlensBackend backend;
  return backend;
}

IngestResult import_cloudlens_streams(std::istream& topology_csv,
                                      std::istream& vm_csv,
                                      std::istream* utilization_csv,
                                      const IngestOptions& options) {
  CloudlensImport import;
  import.options = &options;
  import.import(topology_csv, "topology.csv", vm_csv, "vmtable.csv",
                utilization_csv, "utilization.csv");
  return std::move(import.result);
}

}  // namespace cloudlens::ingest

namespace cloudlens {

ImportedTrace import_trace(std::istream& topology_csv, std::istream& vm_csv,
                           std::istream* utilization_csv, TimeGrid grid) {
  ingest::IngestOptions options;
  options.grid = grid;
  options.parallel = ParallelConfig::serial();
  ingest::IngestResult result = ingest::import_cloudlens_streams(
      topology_csv, vm_csv, utilization_csv, options);
  ImportedTrace imported;
  imported.topology = std::move(result.topology);
  imported.trace = std::move(result.trace);
  return imported;
}

}  // namespace cloudlens
