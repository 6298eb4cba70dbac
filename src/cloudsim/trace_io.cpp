#include "cloudsim/trace_io.h"

#include <algorithm>
#include <array>
#include <iostream>
#include <ostream>

#include "common/check.h"
#include "common/rng.h"
#include "obs/metrics.h"

namespace cloudlens {
namespace {

std::string pattern_label(const UtilizationModel* model) {
  return model != nullptr ? std::string(model->kind()) : "unknown";
}

}  // namespace

SampledUtilization::SampledUtilization(TimeGrid grid,
                                       std::vector<double> samples)
    : grid_(grid),
      cells_(std::make_shared<const std::vector<double>>(std::move(samples))),
      offset_(0),
      valid_(grid.count) {
  CL_CHECK_MSG(cells_->size() == grid_.count,
               "sample count must match the grid");
}

SampledUtilization::SampledUtilization(
    TimeGrid grid, std::shared_ptr<const std::vector<double>> cells,
    std::size_t offset, std::size_t valid_ticks)
    : grid_(grid), cells_(std::move(cells)), offset_(offset),
      valid_(valid_ticks) {
  CL_CHECK_MSG(grid_.count > 0 && offset_ + grid_.count <= cells_->size() &&
                   valid_ <= grid_.count,
               "sample window must lie inside the cell buffer");
}

double SampledUtilization::at(SimTime t) const {
  if (t < grid_.start) return cell(0);
  if (t >= grid_.end()) return cell(grid_.count - 1);
  return cell(grid_.index_of(t));
}

void SampledUtilization::sample(const TimeGrid& grid,
                                std::span<double> out) const {
  CL_CHECK(out.size() == grid.count);
  if (grid.step == grid_.step && grid.start >= grid_.start &&
      (grid.start - grid_.start) % grid.step == 0) {
    const auto first =
        static_cast<std::size_t>((grid.start - grid_.start) / grid.step);
    for (std::size_t i = 0; i < grid.count; ++i)
      out[i] = cell(std::min(first + i, grid_.count - 1));
    return;
  }
  // Any other grid: split the request into the three monotone segments
  // (before / inside / after the window) once, instead of re-testing
  // every tick.
  std::size_t i = 0;
  while (i < grid.count && grid.at(i) < grid_.start) out[i++] = cell(0);
  const SimTime back_end = grid_.end();
  while (i < grid.count && grid.at(i) < back_end) {
    out[i] = cell(grid_.index_of(grid.at(i)));
    ++i;
  }
  while (i < grid.count) out[i++] = cell(grid_.count - 1);
}

void export_topology(const Topology& topology, std::ostream& out) {
  out << "node,rack,cluster,datacenter,region,region_name,tz_offset_hours,"
         "cloud,node_cores,node_memory_gb\n";
  for (const auto& node : topology.nodes()) {
    const Cluster& cluster = topology.cluster(node.cluster);
    const Region& region = topology.region(node.region);
    out << node.id.value() << ',' << node.rack.value() << ','
        << cluster.id.value() << ',' << cluster.datacenter.value() << ','
        << region.id.value() << ',' << region.name << ','
        << region.tz_offset_hours << ',' << to_string(node.cloud) << ','
        << node.total_cores << ',' << node.total_memory_gb << '\n';
  }
}

void export_vm_table(const TraceStore& trace, std::ostream& out) {
  out << "vm,subscription,service,cloud,party,region,cluster,rack,node,"
         "cores,memory_gb,created,deleted,pattern\n";
  for (const auto& vm : trace.vms()) {
    out << vm.id.value() << ',' << vm.subscription.value() << ',';
    if (vm.service.valid()) out << vm.service.value();
    out << ',' << to_string(vm.cloud) << ',' << to_string(vm.party) << ','
        << vm.region.value() << ',' << vm.cluster.value() << ','
        << vm.rack.value() << ',' << vm.node.value() << ',' << vm.cores << ','
        << vm.memory_gb << ',' << vm.created << ',';
    if (vm.ended()) out << vm.deleted;
    out << ',' << pattern_label(vm.utilization.get()) << '\n';
  }
}

void export_utilization(const TraceStore& trace, std::ostream& out,
                        const TraceExportOptions& options) {
  out << "vm,timestamp,avg_cpu\n";
  const TimeGrid& grid = trace.telemetry_grid();

  // Sample whole *node* populations, alternating clouds, so the export
  // preserves both the cross-cloud balance and the co-location structure
  // the node-correlation analysis (Fig. 7(a)) depends on.
  std::array<std::vector<std::pair<std::uint64_t, std::vector<VmId>>>, 2>
      node_groups;
  for (const auto& node : trace.topology().nodes()) {
    std::vector<VmId> group;
    for (const VmId id : trace.vms_on_node(node.id)) {
      if (trace.vm(id).utilization) group.push_back(id);
    }
    if (group.empty()) continue;
    // Deterministic shuffle key: without it the cap would exhaust on the
    // first region's racks and the sample would miss most regions and
    // services.
    const std::uint64_t key = SplitMix64(node.id.value() + 1).next();
    node_groups[node.cloud == CloudType::kPrivate ? 0 : 1].emplace_back(
        key, std::move(group));
  }
  for (auto& groups : node_groups) {
    std::sort(groups.begin(), groups.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
  }

  std::size_t eligible = 0;
  for (const auto& groups : node_groups) {
    for (const auto& [key, group] : groups) eligible += group.size();
  }

  std::vector<VmId> selected;
  const std::size_t cap = options.max_vms_with_utilization;
  std::array<std::size_t, 2> cursor{0, 0};
  bool progressed = true;
  while (progressed && (cap == 0 || selected.size() < cap)) {
    progressed = false;
    for (int cloud = 0; cloud < 2; ++cloud) {
      if (cursor[cloud] >= node_groups[cloud].size()) continue;
      if (cap != 0 && selected.size() >= cap) break;
      const auto& group = node_groups[cloud][cursor[cloud]++].second;
      selected.insert(selected.end(), group.begin(), group.end());
      progressed = true;
    }
  }

  // The cap drops VMs from the export; that loss used to be silent, which
  // made downstream "why does the imported trace disagree?" hunts long.
  // Surface it: a counter for tooling, a stderr note for humans.
  if (selected.size() < eligible) {
    const std::size_t dropped = eligible - selected.size();
    obs::MetricsRegistry::global().add(
        obs::Counter::kTraceIoUtilizationVmsDropped, dropped);
    std::cerr << "note: utilization export capped at " << selected.size()
              << " of " << eligible
              << " VMs with utilization models (" << dropped
              << " dropped); raise --util-vms / "
                 "TraceExportOptions.max_vms_with_utilization for full "
                 "coverage\n";
  }

  // Each VM's alive ticks, read from its telemetry row (the same bits as
  // the model's per-tick at()).
  std::vector<double> scratch;
  for (const VmId id : selected) {
    const std::span<const double> row = trace.telemetry_row(id, scratch);
    const VmRecord& vm = trace.vm(id);
    for (std::size_t i = 0; i < grid.count; ++i) {
      const SimTime t = grid.at(i);
      if (!vm.alive_at(t)) continue;
      out << id.value() << ',' << t << ',' << row[i] << '\n';
    }
  }
}

}  // namespace cloudlens
