#include "cloudsim/population.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string_view>

#include "cloudsim/snapshot.h"
#include "common/check.h"
#include "common/rng.h"
#include "obs/metrics.h"

namespace cloudlens {

namespace fs = std::filesystem;

std::uint32_t shard_of_subscription(SubscriptionId sub,
                                    std::uint32_t shard_count) {
  CL_CHECK(shard_count > 0);
  // SplitMix64 finalizer over the raw id: stable across platforms, runs,
  // and thread counts, and strong enough that sequentially assigned ids
  // spread evenly over any K.
  return static_cast<std::uint32_t>(
      SplitMix64(static_cast<std::uint64_t>(sub.value())).next() %
      shard_count);
}

namespace {

using snapshot_codec::append_f64;
using snapshot_codec::append_i64;
using snapshot_codec::append_u32;
using snapshot_codec::append_u64;
using snapshot_codec::append_u8;
using snapshot_codec::Reader;

/// One packed VM record in the POPULATION_VMS section. Fixed width so the
/// sealer can scan a spill log without decoding models.
constexpr std::size_t kRecordBytes = 64;

/// Spill-log staging buffer flush threshold.
constexpr std::size_t kStageBytes = 256u << 10;

/// FNV-1a over the router inputs, with the subscription table folded in.
/// Binds spill files to (record metadata, subscription metadata, grid, K).
/// Model *internals* are not hashed; directories that may be shared across
/// traces must be keyed by trace content, which the pipeline does.
class Fnv64 {
 public:
  Fnv64() = default;
  explicit Fnv64(std::uint64_t state) : h_(state) {}
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFF;
      h_ *= 0x100000001b3ULL;
    }
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  std::uint64_t digest() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

void digest_header(Fnv64& h, const TimeGrid& grid, std::uint32_t shards) {
  h.u64(0x636c2e706f70756cULL);  // "cl.popul" — format salt
  h.u64(shards);
  h.i64(grid.start);
  h.i64(grid.step);
  h.u64(grid.count);
}

void digest_vm(Fnv64& h, const VmRecord& vm) {
  h.u64(vm.subscription.value());
  h.i64(vm.created);
  h.i64(vm.deleted);
  h.f64(vm.cores);
  h.u64(vm.utilization == nullptr ? 0 : 1);
}

void digest_subscriptions(Fnv64& h,
                          std::span<const SubscriptionInfo> subs) {
  for (const SubscriptionInfo& s : subs) {
    h.u64(s.cloud == CloudType::kPrivate ? 0 : 1);
    h.u64(s.party == PartyType::kFirstParty ? 0 : 1);
    h.u64(s.service.value());
  }
  h.u64(subs.size());
}

/// The streaming digest in one pass, for the conversion path's warm check.
std::uint64_t compute_trace_digest(const TraceStore& trace,
                                   std::uint32_t shards) {
  Fnv64 h;
  digest_header(h, trace.telemetry_grid(), shards);
  for (const VmRecord& vm : trace.vms()) digest_vm(h, vm);
  h.u64(trace.vms().size());
  digest_subscriptions(h, trace.subscriptions());
  return h.digest();
}

std::string shard_file(const std::string& dir, std::uint32_t index) {
  return (fs::path(dir) / ("pop-shard-" + std::to_string(index) + ".clsn"))
      .string();
}

void append_record(std::string& out, const VmRecord& vm) {
  const std::size_t base = out.size();
  append_u32(out, vm.id.value());
  append_u32(out, vm.subscription.value());
  append_u32(out, vm.service.value());
  append_u8(out, vm.cloud == CloudType::kPrivate ? 0 : 1);
  append_u8(out, vm.party == PartyType::kFirstParty ? 0 : 1);
  append_u8(out, vm.utilization == nullptr ? 0 : 1);
  append_u8(out, 0);  // pad
  append_u32(out, vm.region.value());
  append_u32(out, vm.cluster.value());
  append_u32(out, vm.rack.value());
  append_u32(out, vm.node.value());
  append_f64(out, vm.cores);
  append_f64(out, vm.memory_gb);
  append_i64(out, vm.created);
  append_i64(out, vm.deleted);
  CL_CHECK_MSG(out.size() - base == kRecordBytes,
               "population: packed record layout drifted");
}

/// Decodes one packed record (sans utilization model, restored later from
/// the models section in record order).
VmRecord read_record(Reader& r, bool* has_model) {
  VmRecord vm;
  vm.id = VmId(r.u32());
  vm.subscription = SubscriptionId(r.u32());
  vm.service = ServiceId(r.u32());
  vm.cloud = r.u8() == 0 ? CloudType::kPrivate : CloudType::kPublic;
  vm.party = r.u8() == 0 ? PartyType::kFirstParty : PartyType::kThirdParty;
  *has_model = r.u8() != 0;
  r.u8();  // pad
  vm.region = RegionId(r.u32());
  vm.cluster = ClusterId(r.u32());
  vm.rack = RackId(r.u32());
  vm.node = NodeId(r.u32());
  vm.cores = r.f64();
  vm.memory_gb = r.f64();
  vm.created = r.i64();
  vm.deleted = r.i64();
  return vm;
}

void flush_stage(std::ofstream& out, std::string& buf, bool force) {
  if (buf.empty() || (!force && buf.size() < kStageBytes)) return;
  out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
  buf.clear();
}

struct PopulationMeta {
  TimeGrid grid;
  std::uint64_t shard_index = 0;
  std::uint64_t shard_count = 0;
  std::uint64_t global_vms = 0;
  std::uint64_t global_subs = 0;
  std::uint64_t shard_vms = 0;
  std::uint64_t shard_subs = 0;
  std::uint64_t model_count = 0;
  std::uint64_t router_digest = 0;
};

std::string encode_meta(const PopulationMeta& m) {
  std::string out;
  append_i64(out, m.grid.start);
  append_i64(out, m.grid.step);
  append_u64(out, m.grid.count);
  append_u64(out, m.shard_index);
  append_u64(out, m.shard_count);
  append_u64(out, m.global_vms);
  append_u64(out, m.global_subs);
  append_u64(out, m.shard_vms);
  append_u64(out, m.shard_subs);
  append_u64(out, m.model_count);
  append_u64(out, m.router_digest);
  return out;
}

PopulationMeta read_meta(const SnapshotMapping& mapping) {
  Reader r(mapping.section(snapshot_sections::kPopulationMeta));
  PopulationMeta m;
  m.grid.start = r.i64();
  m.grid.step = r.i64();
  m.grid.count = static_cast<std::size_t>(r.u64());
  m.shard_index = r.u64();
  m.shard_count = r.u64();
  m.global_vms = r.u64();
  m.global_subs = r.u64();
  m.shard_vms = r.u64();
  m.shard_subs = r.u64();
  m.model_count = r.u64();
  m.router_digest = r.u64();
  CL_CHECK_MSG(r.done(), "population shard: trailing meta bytes");
  CL_CHECK_MSG(m.shard_count > 0 && m.shard_index < m.shard_count,
               "population shard: bad shard index");
  return m;
}

}  // namespace

// --- PopulationShardView -------------------------------------------------

const VmRecord* PopulationShardView::find(VmId id) const {
  const auto it = std::lower_bound(
      vms_.begin(), vms_.end(), id,
      [](const VmRecord& vm, VmId key) { return vm.id.value() < key.value(); });
  if (it == vms_.end() || it->id != id) return nullptr;
  return &*it;
}

const SubscriptionInfo* PopulationShardView::find_subscription(
    SubscriptionId id) const {
  const auto it = std::lower_bound(
      subs_.begin(), subs_.end(), id,
      [](const SubscriptionInfo& s, SubscriptionId key) {
        return s.id.value() < key.value();
      });
  if (it == subs_.end() || it->id != id) return nullptr;
  return &*it;
}

std::span<const VmId> PopulationShardView::vms_of(SubscriptionId sub) const {
  const auto it = std::lower_bound(
      sub_index_.begin(), sub_index_.end(), sub,
      [](const auto& entry, SubscriptionId key) {
        return entry.first.value() < key.value();
      });
  if (it == sub_index_.end() || it->first != sub) return {};
  return it->second;
}

// --- PopulationShardStore ------------------------------------------------

PopulationShardStore::PopulationShardStore(
    TimeGrid grid, const PopulationShardingOptions& options)
    : PopulationShardStore(grid, options, /*open_logs=*/true) {}

PopulationShardStore::PopulationShardStore(
    TimeGrid grid, const PopulationShardingOptions& options, bool open_logs)
    : grid_(grid), options_(options) {
  CL_CHECK_MSG(!options_.spill_dir.empty(),
               "population store: spill_dir is required");
  shard_count_ = std::max<std::uint32_t>(1, options_.shards);
  CL_CHECK(grid_.count > 0);
  std::error_code dir_ec;
  created_spill_dir_ = fs::create_directories(options_.spill_dir, dir_ec);
  CL_CHECK_MSG(!dir_ec, "population store: cannot create spill dir "
                            << options_.spill_dir << ": " << dir_ec.message());
  shards_.reserve(shard_count_);
  for (std::uint32_t s = 0; s < shard_count_; ++s) {
    shards_.push_back(std::make_unique<Shard>());
    shards_[s]->path = shard_file(options_.spill_dir, s);
  }
  {
    Fnv64 h;
    digest_header(h, grid_, shard_count_);
    digest_state_ = h.digest();
  }
  if (!open_logs) return;
  builders_.reserve(shard_count_);
  for (std::uint32_t s = 0; s < shard_count_; ++s) {
    auto b = std::make_unique<BuilderShard>();
    b->records_path = shards_[s]->path + ".records.log";
    b->models_path = shards_[s]->path + ".models.log";
    b->records_out.open(b->records_path, std::ios::binary | std::ios::trunc);
    b->models_out.open(b->models_path, std::ios::binary | std::ios::trunc);
    CL_CHECK_MSG(b->records_out.good() && b->models_out.good(),
                 "population store: cannot open spill logs in "
                     << options_.spill_dir);
    builders_.push_back(std::move(b));
  }
}

PopulationShardStore::~PopulationShardStore() {
  evict_all();
  std::error_code ec;  // cleanup is best effort
  // Abandoned spill (finalize never ran or threw): drop the logs and any
  // half-written shard file.
  for (std::size_t s = 0; s < builders_.size(); ++s) {
    fs::remove(builders_[s]->records_path, ec);
    fs::remove(builders_[s]->models_path, ec);
    fs::remove(shards_[s]->path + ".tmp", ec);
  }
  if (!options_.keep_files) {
    for (const auto& s : shards_) fs::remove(s->path, ec);
    // Only an emptied directory goes, and only one this store created.
    if (created_spill_dir_) fs::remove(options_.spill_dir, ec);
  }
}

VmId PopulationShardStore::append_vm(VmRecord record) {
  CL_CHECK_MSG(!sealed_ && !builders_.empty(),
               "population store: append_vm outside a spill");
  const VmId id(static_cast<VmId::underlying>(vm_shards_.size()));
  record.id = id;
  const std::uint32_t s =
      shard_of_subscription(record.subscription, shard_count_);
  vm_shards_.push_back(s);
  {
    Fnv64 h(digest_state_);
    digest_vm(h, record);
    digest_state_ = h.digest();
  }
  BuilderShard& b = *builders_[s];
  append_record(b.records_buf, record);
  flush_stage(b.records_out, b.records_buf, /*force=*/false);
  if (record.utilization != nullptr) {
    encode_model_record(*record.utilization, grid_, options_.model_codec,
                        b.models_buf);
    flush_stage(b.models_out, b.models_buf, /*force=*/false);
    ++b.model_count;
  }
  ++b.vm_count;
  return id;
}

void PopulationShardStore::seal_shard(
    std::uint32_t s, std::span<const SubscriptionInfo> subs,
    std::span<const std::uint32_t> shard_sub_indices) {
  BuilderShard& b = *builders_[s];
  Shard& shard = *shards_[s];
  flush_stage(b.records_out, b.records_buf, /*force=*/true);
  flush_stage(b.models_out, b.models_buf, /*force=*/true);
  CL_CHECK_MSG(b.records_out.good() && b.models_out.good(),
               "population store: spill log write failed (disk full?)");
  b.records_out.close();
  b.models_out.close();
  CL_CHECK_MSG(b.records_out.good() && b.models_out.good(),
               "population store: spill log close failed");

  // The records log *is* the POPULATION_VMS payload; slurp it (64 bytes a
  // record — the models, which dominate for sampled traces, are streamed
  // below without staging).
  std::string records;
  {
    std::ifstream in(b.records_path, std::ios::binary);
    CL_CHECK_MSG(in.good(),
                 "population store: cannot reopen " << b.records_path);
    in.seekg(0, std::ios::end);
    const std::streampos end = in.tellg();
    in.seekg(0);
    records.resize(end == std::streampos(-1) ? 0
                                             : static_cast<std::size_t>(end));
    in.read(records.data(), static_cast<std::streamsize>(records.size()));
    CL_CHECK_MSG(static_cast<std::size_t>(in.gcount()) == records.size(),
                 "population store: short read of " << b.records_path);
  }
  CL_CHECK_MSG(records.size() == b.vm_count * kRecordBytes,
               "population store: spill log truncated: " << b.records_path);

  // Per-node membership from the packed records (node id at fixed offset;
  // appearance order == ascending vm id). Entries sorted by node so the
  // sealed bytes are deterministic.
  std::unordered_map<std::uint32_t, std::vector<std::uint32_t>> by_node;
  for (std::size_t i = 0; i < b.vm_count; ++i) {
    const char* rec = records.data() + i * kRecordBytes;
    std::uint32_t vm_id;
    std::uint32_t node;
    std::memcpy(&vm_id, rec, sizeof(vm_id));
    std::memcpy(&node, rec + 28, sizeof(node));
    if (node != NodeId::kInvalid) by_node[node].push_back(vm_id);
  }
  std::vector<std::uint32_t> nodes;
  nodes.reserve(by_node.size());
  for (const auto& [node, ids] : by_node) nodes.push_back(node);
  std::sort(nodes.begin(), nodes.end());
  std::string node_index;
  append_u64(node_index, nodes.size());
  for (const std::uint32_t node : nodes) {
    const auto& ids = by_node[node];
    append_u32(node_index, node);
    append_u32(node_index, static_cast<std::uint32_t>(ids.size()));
    for (const std::uint32_t id : ids) append_u32(node_index, id);
  }

  std::string sub_payload;
  for (const std::uint32_t i : shard_sub_indices) {
    const SubscriptionInfo& sub = subs[i];
    append_u32(sub_payload, sub.id.value());
    append_u8(sub_payload, sub.cloud == CloudType::kPrivate ? 0 : 1);
    append_u8(sub_payload, sub.party == PartyType::kFirstParty ? 0 : 1);
    append_u32(sub_payload, sub.service.value());
  }

  PopulationMeta meta;
  meta.grid = grid_;
  meta.shard_index = s;
  meta.shard_count = shard_count_;
  meta.global_vms = vm_shards_.size();
  meta.global_subs = sub_count_;
  meta.shard_vms = b.vm_count;
  meta.shard_subs = shard_sub_indices.size();
  meta.model_count = b.model_count;
  meta.router_digest = router_digest_;
  const std::string meta_payload = encode_meta(meta);

  // Every payload but the models is staged; the models section streams
  // from its log, which dominates the file for sampled traces.
  const auto copy_models = [&b](SectionSink& sink) {
    std::ifstream models(b.models_path, std::ios::binary);
    CL_CHECK_MSG(models.good(),
                 "population store: cannot reopen " << b.models_path);
    std::vector<char> chunk(1u << 20);
    do {
      models.read(chunk.data(), static_cast<std::streamsize>(chunk.size()));
      sink.write({chunk.data(), static_cast<std::size_t>(models.gcount())});
    } while (models);
  };
  const std::string tmp = shard.path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    CL_CHECK_MSG(out.good(), "population store: cannot write " << tmp);
    write_container(
        out, {staged_section(snapshot_sections::kPopulationMeta, meta_payload),
              staged_section(snapshot_sections::kPopulationSubscriptions,
                             sub_payload),
              staged_section(snapshot_sections::kPopulationVms, records),
              {snapshot_sections::kPopulationModels,
               static_cast<std::uint64_t>(fs::file_size(b.models_path)),
               copy_models},
              staged_section(snapshot_sections::kPopulationNodeIndex,
                             node_index)});
  }
  fs::rename(tmp, shard.path);
  std::error_code ec;
  fs::remove(b.records_path, ec);
  fs::remove(b.models_path, ec);

  shard.vm_count = b.vm_count;
  shard.sub_count = shard_sub_indices.size();
  shard.file_bytes = static_cast<std::size_t>(fs::file_size(shard.path));
  spill_bytes_ += shard.file_bytes;
  obs::MetricsRegistry::global().add(obs::Counter::kPopulationShardSpills);
}

void PopulationShardStore::finalize_spill(
    std::span<const SubscriptionInfo> subscriptions) {
  CL_CHECK_MSG(!sealed_ && !builders_.empty(),
               "population store: finalize without an active spill");
  sub_count_ = subscriptions.size();
  {
    Fnv64 h(digest_state_);
    h.u64(vm_shards_.size());
    digest_subscriptions(h, subscriptions);
    router_digest_ = h.digest();
  }
  std::vector<std::vector<std::uint32_t>> shard_subs(shard_count_);
  for (std::size_t i = 0; i < subscriptions.size(); ++i) {
    CL_CHECK_MSG(subscriptions[i].id.value() == i,
                 "population store: subscription table must be dense");
    shard_subs[shard_of_subscription(subscriptions[i].id, shard_count_)]
        .push_back(static_cast<std::uint32_t>(i));
  }
  for (std::uint32_t s = 0; s < shard_count_; ++s) {
    seal_shard(s, subscriptions, shard_subs[s]);
  }
  builders_.clear();
  sealed_ = true;
  auto& metrics = obs::MetricsRegistry::global();
  metrics.set(obs::Gauge::kPopulationShardCount,
              static_cast<double>(shard_count_));
  metrics.set(obs::Gauge::kPopulationShardResidentBytes, 0.0);
}

std::unique_ptr<PopulationShardStore> PopulationShardStore::build(
    const TraceStore& trace, const PopulationShardingOptions& options) {
  const std::uint32_t shard_count = std::max<std::uint32_t>(1, options.shards);
  const std::uint64_t digest = compute_trace_digest(trace, shard_count);

  // Warm start: adopt the on-disk files when every shard matches this
  // trace's digest — the sealed bytes are a pure function of the inputs
  // the digest covers, so matching files are the files this build would
  // write.
  bool warm = !options.spill_dir.empty();
  std::vector<PopulationMeta> metas;
  for (std::uint32_t s = 0; warm && s < shard_count; ++s) {
    const std::string path = shard_file(options.spill_dir, s);
    try {
      SnapshotMapping mapping(path);
      const PopulationMeta m = read_meta(mapping);
      warm = m.router_digest == digest && m.shard_index == s &&
             m.shard_count == shard_count &&
             m.global_vms == trace.vms().size() &&
             m.global_subs == trace.subscriptions().size() &&
             m.grid.start == trace.telemetry_grid().start &&
             m.grid.step == trace.telemetry_grid().step &&
             m.grid.count == trace.telemetry_grid().count;
      if (warm) metas.push_back(m);
    } catch (const CheckError&) {
      warm = false;
    }
  }

  if (warm) {
    auto store = std::unique_ptr<PopulationShardStore>(
        new PopulationShardStore(trace.telemetry_grid(), options,
                                 /*open_logs=*/false));
    store->router_digest_ = digest;
    store->sub_count_ = trace.subscriptions().size();
    store->vm_shards_.reserve(trace.vms().size());
    for (const VmRecord& vm : trace.vms()) {
      store->vm_shards_.push_back(
          shard_of_subscription(vm.subscription, shard_count));
    }
    for (std::uint32_t s = 0; s < shard_count; ++s) {
      Shard& shard = *store->shards_[s];
      shard.vm_count = metas[s].shard_vms;
      shard.sub_count = metas[s].shard_subs;
      shard.file_bytes =
          static_cast<std::size_t>(fs::file_size(shard.path));
      store->spill_bytes_ += shard.file_bytes;
    }
    store->sealed_ = true;
    auto& metrics = obs::MetricsRegistry::global();
    metrics.set(obs::Gauge::kPopulationShardCount,
                static_cast<double>(shard_count));
    return store;
  }

  auto store = std::make_unique<PopulationShardStore>(trace.telemetry_grid(),
                                                      options);
  for (const VmRecord& vm : trace.vms()) store->append_vm(vm);
  store->finalize_spill(trace.subscriptions());
  CL_CHECK_MSG(store->router_digest_ == digest,
               "population store: streaming/conversion digest divergence");
  return store;
}

std::uint32_t PopulationShardStore::shard_of(SubscriptionId sub) const {
  return shard_of_subscription(sub, shard_count_);
}

std::uint32_t PopulationShardStore::shard_of_vm(VmId id) const {
  CL_CHECK_MSG(id.value() < vm_shards_.size(), "unknown " << id);
  return vm_shards_[id.value()];
}

const PopulationShardView& PopulationShardStore::acquire(
    std::uint32_t shard) const {
  CL_CHECK_MSG(sealed_, "population store: read before finalize_spill");
  Shard& s = *shards_.at(shard);
  const PopulationShardView* view = s.view.load(std::memory_order_acquire);
  if (view == nullptr) {
    std::lock_guard<std::mutex> lock(residency_mutex_);
    view = s.view.load(std::memory_order_relaxed);
    if (view == nullptr) {
      // Decode the whole shard out of the mapping, then drop the mapping:
      // only the decoded vectors stay resident.
      SnapshotMapping mapping(s.path);
      const PopulationMeta meta = read_meta(mapping);
      CL_CHECK_MSG(meta.shard_index == shard &&
                       meta.shard_count == shard_count_ &&
                       meta.router_digest == router_digest_ &&
                       meta.shard_vms == s.vm_count &&
                       meta.shard_subs == s.sub_count,
                   "population store: spill file "
                       << s.path << " does not match router");
      auto storage = std::make_unique<PopulationShardView>();

      Reader sub_r(
          mapping.section(snapshot_sections::kPopulationSubscriptions));
      storage->subs_.reserve(meta.shard_subs);
      for (std::uint64_t i = 0; i < meta.shard_subs; ++i) {
        SubscriptionInfo sub;
        sub.id = SubscriptionId(sub_r.u32());
        sub.cloud = sub_r.u8() == 0 ? CloudType::kPrivate : CloudType::kPublic;
        sub.party =
            sub_r.u8() == 0 ? PartyType::kFirstParty : PartyType::kThirdParty;
        sub.service = ServiceId(sub_r.u32());
        CL_CHECK_MSG(storage->subs_.empty() ||
                         storage->subs_.back().id.value() < sub.id.value(),
                     "population shard: subscriptions out of order");
        storage->subs_.push_back(sub);
      }
      CL_CHECK_MSG(sub_r.done(),
                   "population shard: trailing subscription bytes");

      Reader vm_r(mapping.section(snapshot_sections::kPopulationVms));
      std::vector<char> has_model(meta.shard_vms, 0);
      storage->vms_.reserve(meta.shard_vms);
      for (std::uint64_t i = 0; i < meta.shard_vms; ++i) {
        bool model = false;
        VmRecord vm = read_record(vm_r, &model);
        has_model[i] = model ? 1 : 0;
        CL_CHECK_MSG(storage->vms_.empty() ||
                         storage->vms_.back().id.value() < vm.id.value(),
                     "population shard: records out of order");
        storage->vms_.push_back(std::move(vm));
      }
      CL_CHECK_MSG(vm_r.done(), "population shard: trailing record bytes");

      const std::string_view model_bytes =
          mapping.section(snapshot_sections::kPopulationModels);
      Reader model_r(model_bytes);
      std::uint64_t models_decoded = 0;
      for (std::uint64_t i = 0; i < meta.shard_vms; ++i) {
        if (has_model[i] == 0) continue;
        storage->vms_[i].utilization =
            decode_model_record(model_r, options_.model_codec);
        ++models_decoded;
      }
      CL_CHECK_MSG(model_r.done() && models_decoded == meta.model_count,
                   "population shard: model section does not match records");

      std::unordered_map<std::uint32_t, std::vector<VmId>> by_sub;
      for (const VmRecord& vm : storage->vms_) {
        by_sub[vm.subscription.value()].push_back(vm.id);
      }
      storage->sub_index_.reserve(by_sub.size());
      for (auto& [sub, ids] : by_sub) {
        storage->sub_index_.emplace_back(SubscriptionId(sub),
                                         std::move(ids));
      }
      std::sort(storage->sub_index_.begin(), storage->sub_index_.end(),
                [](const auto& a, const auto& b) {
                  return a.first.value() < b.first.value();
                });

      storage->decoded_bytes_ =
          storage->vms_.size() * (sizeof(VmRecord) + sizeof(VmId)) +
          storage->subs_.size() * sizeof(SubscriptionInfo) +
          storage->sub_index_.size() *
              sizeof(std::pair<SubscriptionId, std::vector<VmId>>) +
          model_bytes.size();

      resident_bytes_.fetch_add(storage->decoded_bytes_,
                                std::memory_order_relaxed);
      auto& metrics = obs::MetricsRegistry::global();
      metrics.add(obs::Counter::kPopulationShardPageIns);
      metrics.set(obs::Gauge::kPopulationShardResidentBytes,
                  static_cast<double>(
                      resident_bytes_.load(std::memory_order_relaxed)));
      s.view_storage = std::move(storage);
      view = s.view_storage.get();
      s.view.store(view, std::memory_order_release);
    }
  }
  s.last_use.store(lru_clock_.fetch_add(1, std::memory_order_relaxed) + 1,
                   std::memory_order_relaxed);
  return *view;
}

const PopulationShardView& PopulationShardStore::view(
    std::uint32_t shard) const {
  return acquire(shard);
}

const VmRecord& PopulationShardStore::record(VmId id) const {
  const PopulationShardView& v = acquire(shard_of_vm(id));
  const VmRecord* rec = v.find(id);
  CL_CHECK_MSG(rec != nullptr,
               "population store: record " << id.value() << " missing from "
                                           << "its shard");
  obs::MetricsRegistry::global().add(
      obs::Counter::kPopulationShardRecordReads);
  return *rec;
}

const SubscriptionInfo& PopulationShardStore::subscription(
    SubscriptionId id) const {
  CL_CHECK_MSG(id.value() < sub_count_, "unknown " << id);
  const PopulationShardView& v = acquire(shard_of(id));
  const SubscriptionInfo* sub = v.find_subscription(id);
  CL_CHECK_MSG(sub != nullptr,
               "population store: subscription " << id.value()
                                                 << " missing from its shard");
  return *sub;
}

std::span<const VmId> PopulationShardStore::vms_of_subscription(
    SubscriptionId sub) const {
  return acquire(shard_of(sub)).vms_of(sub);
}

void PopulationShardStore::build_node_index() const {
  std::lock_guard<std::mutex> lock(node_index_mutex_);
  if (node_index_valid_.load(std::memory_order_relaxed)) return;
  node_index_.clear();
  for (std::uint32_t s = 0; s < shard_count_; ++s) {
    // Map the file just to read its node-index section; record/model
    // payloads are never touched, so only the index pages enter RSS.
    SnapshotMapping mapping(shards_[s]->path);
    Reader r(mapping.section(snapshot_sections::kPopulationNodeIndex));
    const std::uint64_t entries = r.u64();
    for (std::uint64_t e = 0; e < entries; ++e) {
      const NodeId node(r.u32());
      const std::uint32_t count = r.u32();
      auto& ids = node_index_[node];
      ids.reserve(ids.size() + count);
      for (std::uint32_t i = 0; i < count; ++i) ids.push_back(VmId(r.u32()));
    }
    CL_CHECK_MSG(r.done(), "population shard: trailing node-index bytes");
  }
  // Shards interleave ids arbitrarily; ascending order matches the
  // resident index (which walks VMs in id order) exactly.
  for (auto& [node, ids] : node_index_) {
    std::sort(ids.begin(), ids.end(),
              [](VmId a, VmId b) { return a.value() < b.value(); });
  }
  node_index_valid_.store(true, std::memory_order_release);
}

std::span<const VmId> PopulationShardStore::vms_on_node(NodeId node) const {
  CL_CHECK_MSG(sealed_, "population store: read before finalize_spill");
  if (!node_index_valid_.load(std::memory_order_acquire)) build_node_index();
  const auto it = node_index_.find(node);
  if (it == node_index_.end()) return {};
  return it->second;
}

void PopulationShardStore::drop_locked(Shard& s) const {
  if (s.view.load(std::memory_order_relaxed) == nullptr) return;
  const std::size_t bytes = s.view_storage->decoded_bytes();
  s.view.store(nullptr, std::memory_order_release);
  s.view_storage.reset();
  s.last_use.store(0, std::memory_order_relaxed);
  resident_bytes_.fetch_sub(bytes, std::memory_order_relaxed);
  auto& metrics = obs::MetricsRegistry::global();
  metrics.add(obs::Counter::kPopulationShardEvictions);
  metrics.set(obs::Gauge::kPopulationShardResidentBytes,
              static_cast<double>(
                  resident_bytes_.load(std::memory_order_relaxed)));
}

void PopulationShardStore::evict_over_budget() const {
  std::lock_guard<std::mutex> lock(residency_mutex_);
  while (resident_bytes_.load(std::memory_order_relaxed) >
         options_.budget_bytes) {
    Shard* oldest = nullptr;
    std::uint64_t oldest_use = std::numeric_limits<std::uint64_t>::max();
    for (const auto& sp : shards_) {
      Shard& s = *sp;
      if (s.view.load(std::memory_order_relaxed) == nullptr) continue;
      const std::uint64_t use = s.last_use.load(std::memory_order_relaxed);
      if (use < oldest_use) {
        oldest_use = use;
        oldest = &s;
      }
    }
    if (oldest == nullptr) break;
    drop_locked(*oldest);
  }
}

void PopulationShardStore::evict_all() const {
  std::lock_guard<std::mutex> lock(residency_mutex_);
  for (const auto& s : shards_) drop_locked(*s);
}

}  // namespace cloudlens
