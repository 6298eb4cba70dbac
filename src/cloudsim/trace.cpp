#include "cloudsim/trace.h"

#include <algorithm>
#include <utility>

#include "cloudsim/population.h"
#include "cloudsim/telemetry_panel.h"
#include "common/check.h"
#include "obs/metrics.h"

namespace cloudlens {

void UtilizationModel::sample(const TimeGrid& grid,
                              std::span<double> out) const {
  CL_CHECK(out.size() == grid.count);
  for (std::size_t i = 0; i < grid.count; ++i) out[i] = at(grid.at(i));
}

void ConstantUtilization::sample(const TimeGrid& grid,
                                 std::span<double> out) const {
  CL_CHECK(out.size() == grid.count);
  std::fill(out.begin(), out.end(), level_);
}

TraceStore::TraceStore(const Topology* topology, TimeGrid grid)
    : topology_(topology), grid_(grid) {
  CL_CHECK(topology_ != nullptr);
  CL_CHECK(grid_.count > 0);
}

TraceStore::~TraceStore() = default;

ServiceId TraceStore::add_service(ServiceInfo info) {
  const ServiceId id(static_cast<ServiceId::underlying>(services_.size()));
  info.id = id;
  services_.push_back(std::move(info));
  return id;
}

SubscriptionId TraceStore::add_subscription(SubscriptionInfo info) {
  CL_CHECK_MSG(!population_sharded(),
               "population-sharded trace is immutable");
  const SubscriptionId id(
      static_cast<SubscriptionId::underlying>(subscriptions_.size()));
  info.id = id;
  subscriptions_.push_back(std::move(info));
  return id;
}

VmId TraceStore::add_vm(VmRecord record) {
  CL_CHECK_MSG(record.created < record.deleted,
               "VM must be created before it is deleted");
  CL_CHECK_MSG(record.subscription.valid() &&
                   record.subscription.value() < subscriptions_.size(),
               "VM references unknown subscription");
  CL_CHECK_MSG(!population_sharded(),
               "population-sharded trace is immutable");
  if (pop_spilling_) {
    // Streaming spill: the record goes straight to its shard's spill log;
    // it never joins the resident vector.
    return pop_shards_->append_vm(std::move(record));
  }
  const VmId id(static_cast<VmId::underlying>(vms_.size()));
  record.id = id;
  vms_.push_back(std::move(record));
  invalidate_derived();
  return id;
}

void TraceStore::set_vm_deleted(VmId id, SimTime when) {
  CL_CHECK_MSG(pop_shards_ == nullptr,
               "population-sharded trace is immutable");
  CL_CHECK_MSG(id.value() < vms_.size(), "unknown " << id);
  VmRecord& rec = vms_[id.value()];
  CL_CHECK_MSG(when < rec.deleted && when > rec.created,
               "early termination must shorten the VM's life");
  rec.deleted = when;
  // Shortening a VM's life changes derived telemetry (its panel row is
  // zero outside [created, deleted)) and any liveness-derived index, so
  // drop the caches exactly the way add_vm does.
  invalidate_derived();
}

void TraceStore::invalidate_derived() {
  node_index_valid_ = false;
  sub_index_valid_ = false;
  panel_.reset();
}

void TraceStore::build_node_index() const {
  std::lock_guard<std::mutex> lock(index_mutex_);
  if (node_index_valid_.load(std::memory_order_relaxed)) return;
  node_index_.clear();
  for (const auto& vm : vms_) {
    if (vm.placed()) node_index_[vm.node].push_back(vm.id);
  }
  node_index_valid_.store(true, std::memory_order_release);
}

void TraceStore::build_subscription_index() const {
  std::lock_guard<std::mutex> lock(index_mutex_);
  if (sub_index_valid_.load(std::memory_order_relaxed)) return;
  sub_index_.clear();
  for (const auto& vm : vms_) sub_index_[vm.subscription].push_back(vm.id);
  sub_index_valid_.store(true, std::memory_order_release);
}

const TelemetryPanel* TraceStore::build_telemetry_panel(
    const ParallelConfig& parallel) {
  // Population-sharded mode holds no resident per-VM matrix of any kind:
  // consumers compute rows on demand with the same fill kernel (identical
  // bits).
  CL_CHECK_MSG(pop_shards_ == nullptr,
               "a population-sharded trace has no telemetry panel");
  if (panel_ == nullptr)
    panel_ = std::make_unique<TelemetryPanel>(*this, grid_, parallel);
  return panel_.get();
}

std::span<const SubscriptionInfo> TraceStore::subscriptions() const {
  // Subscriptions stay resident *during* a streaming spill (finish moves
  // them out-of-core), so only the sealed population mode rejects this.
  CL_CHECK_MSG(!population_sharded(),
               "subscriptions() is unavailable in population-sharded mode; "
               "use subscription_count()/subscription() or stream shards");
  return subscriptions_;
}

std::span<const VmRecord> TraceStore::vms() const {
  CL_CHECK_MSG(!population_sharded() && !pop_spilling_,
               "vms() is unavailable in population-sharded mode; use "
               "vm_count()/vm() or stream shards (record_stream.h)");
  return vms_;
}

std::size_t TraceStore::vm_count() const {
  if (pop_shards_ != nullptr) return pop_shards_->vm_count();
  return vms_.size();
}

std::size_t TraceStore::subscription_count() const {
  if (population_sharded()) return pop_shards_->subscription_count();
  return subscriptions_.size();
}

const SubscriptionInfo& TraceStore::subscription(SubscriptionId id) const {
  if (population_sharded()) return pop_shards_->subscription(id);
  CL_CHECK_MSG(id.value() < subscriptions_.size(), "unknown " << id);
  return subscriptions_[id.value()];
}

const VmRecord& TraceStore::vm(VmId id) const {
  if (population_sharded()) return pop_shards_->record(id);
  CL_CHECK_MSG(id.value() < vms_.size(), "unknown " << id);
  return vms_[id.value()];
}

std::span<const VmId> TraceStore::vms_on_node(NodeId node) const {
  if (population_sharded()) return pop_shards_->vms_on_node(node);
  if (!node_index_valid_.load(std::memory_order_acquire)) build_node_index();
  const auto it = node_index_.find(node);
  if (it == node_index_.end()) return {};
  return it->second;
}

std::span<const VmId> TraceStore::vms_of_subscription(
    SubscriptionId sub) const {
  if (population_sharded()) return pop_shards_->vms_of_subscription(sub);
  if (!sub_index_valid_.load(std::memory_order_acquire))
    build_subscription_index();
  const auto it = sub_index_.find(sub);
  if (it == sub_index_.end()) return {};
  return it->second;
}

void TraceStore::begin_population_spill(
    const PopulationShardingOptions& options) {
  CL_CHECK_MSG(pop_shards_ == nullptr, "population spill already active");
  CL_CHECK_MSG(vms_.empty(),
               "population spill must start before any VM is added");
  pop_shards_ = std::make_unique<PopulationShardStore>(grid_, options);
  pop_spilling_ = true;
}

void TraceStore::finish_population_spill() {
  CL_CHECK_MSG(pop_spilling_, "no population spill in progress");
  // Subscriptions stayed resident through the spill (add_vm validates
  // against them); seal them into the shard files and drop them.
  pop_shards_->finalize_spill(subscriptions_);
  subscriptions_.clear();
  subscriptions_.shrink_to_fit();
  pop_spilling_ = false;
  invalidate_derived();
}

std::span<const double> TraceStore::telemetry_row(
    VmId id, std::vector<double>& scratch) const {
  auto& metrics = obs::MetricsRegistry::global();
  if (panel_ != nullptr && id.value() < panel_->vm_count()) {
    metrics.add(obs::Counter::kPanelRowHits);
    return panel_->row(id);
  }
  metrics.add(obs::Counter::kPanelRowMisses);
  scratch.resize(grid_.count);
  TelemetryPanel::fill_row(vm(id), grid_, scratch);
  return scratch;
}

std::span<const double> TraceStore::hourly_row(
    VmId id, std::vector<double>& row_scratch,
    std::vector<double>& hourly_scratch) const {
  CL_CHECK(grid_.step > 0 && kHour % grid_.step == 0);
  const auto factor = static_cast<std::size_t>(kHour / grid_.step);
  const std::span<const double> row = telemetry_row(id, row_scratch);
  hourly_scratch.resize(row.size() / factor);
  stats::downsample_mean(row, factor, hourly_scratch);
  return hourly_scratch;
}

stats::TimeSeries TraceStore::node_utilization(NodeId id) const {
  const Node& node = topology_->node(id);
  stats::TimeSeries out(grid_);
  CL_CHECK(node.total_cores > 0);
  std::vector<double> scratch;
  auto& values = out.mutable_values();
  for (const VmId vm_id : vms_on_node(id)) {
    const VmRecord& rec = vm(vm_id);
    if (!rec.utilization) continue;
    const double weight = rec.cores / node.total_cores;
    // Weighted row sum: rows are zero outside the VM's life, so adding
    // every tick is bit-identical to an alive-gated accumulation.
    const std::span<const double> row = telemetry_row(vm_id, scratch);
    for (std::size_t i = 0; i < grid_.count; ++i) values[i] += weight * row[i];
  }
  out.clamp(0.0, 1.0);
  return out;
}

double TraceStore::node_used_cores(NodeId id, SimTime t) const {
  double used = 0;
  for (const VmId vm_id : vms_on_node(id)) {
    const VmRecord& rec = vm(vm_id);
    if (rec.alive_at(t)) used += rec.cores;
  }
  return used;
}

}  // namespace cloudlens
