#include "cloudsim/snapshot.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <fstream>
#include <istream>
#include <iterator>
#include <ostream>
#include <unordered_map>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#define CLOUDLENS_SNAPSHOT_HAS_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define CLOUDLENS_SNAPSHOT_HAS_MMAP 0
#endif

#include "cloudsim/trace_io.h"
#include "common/check.h"

namespace cloudlens {

static_assert(std::endian::native == std::endian::little,
              "snapshot encoding assumes a little-endian host");

namespace snapshot_codec {

void append_u8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}

namespace {
template <typename T>
void append_raw(std::string& out, T v) {
  char buf[sizeof(T)];
  std::memcpy(buf, &v, sizeof(T));
  out.append(buf, sizeof(T));
}
}  // namespace

void append_u32(std::string& out, std::uint32_t v) { append_raw(out, v); }
void append_u64(std::string& out, std::uint64_t v) { append_raw(out, v); }
void append_i64(std::string& out, std::int64_t v) { append_raw(out, v); }
void append_f64(std::string& out, double v) {
  append_raw(out, std::bit_cast<std::uint64_t>(v));
}

void append_string(std::string& out, std::string_view s) {
  append_u32(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
}

std::string_view Reader::raw(std::size_t n) {
  CL_CHECK_MSG(pos_ <= bytes_.size() && n <= bytes_.size() - pos_,
               "truncated snapshot payload");
  const std::string_view v = bytes_.substr(pos_, n);
  pos_ += n;
  return v;
}

std::uint8_t Reader::u8() {
  return static_cast<std::uint8_t>(raw(1)[0]);
}

namespace {
template <typename T>
T read_raw(Reader& r) {
  T v;
  const std::string_view bytes = r.raw(sizeof(T));
  std::memcpy(&v, bytes.data(), sizeof(T));
  return v;
}
}  // namespace

std::uint32_t Reader::u32() { return read_raw<std::uint32_t>(*this); }
std::uint64_t Reader::u64() { return read_raw<std::uint64_t>(*this); }
std::int64_t Reader::i64() { return read_raw<std::int64_t>(*this); }
double Reader::f64() {
  return std::bit_cast<double>(read_raw<std::uint64_t>(*this));
}

std::string Reader::str() {
  const std::uint32_t n = u32();
  return std::string(raw(n));
}

}  // namespace snapshot_codec

namespace {

using snapshot_codec::append_f64;
using snapshot_codec::append_i64;
using snapshot_codec::append_string;
using snapshot_codec::append_u32;
using snapshot_codec::append_u64;
using snapshot_codec::append_u8;
using snapshot_codec::Reader;

// Section ids. Values are part of the on-disk format; never renumber.
// Id 7 is retired (it held the removed cached telemetry panel) and ids
// 8-10 too (the removed telemetry panel shards); none may be reused.
// Ids 11-16 belong to the population shard files and the kb artifact and
// are defined publicly in snapshot.h (snapshot_sections).
enum Section : std::uint32_t {
  kGrid = 1,
  kTopology = 2,
  kServices = 3,
  kSubscriptions = 4,
  kModels = 5,
  kVms = 6,
  // 7-10: retired.
  // 11-15: population meta / subscriptions / vms / models / node index.
  // 16: kb records.
};

// Native model tags (< kFirstCustomModelTag).
constexpr std::uint8_t kModelConstant = 1;
constexpr std::uint8_t kModelSampled = 2;

constexpr std::uint32_t kNoModel = 0xFFFFFFFFu;

void append_grid(std::string& out, const TimeGrid& grid) {
  append_i64(out, grid.start);
  append_i64(out, grid.step);
  append_u64(out, grid.count);
}

TimeGrid read_grid(Reader& r) {
  TimeGrid grid;
  grid.start = r.i64();
  grid.step = r.i64();
  grid.count = static_cast<std::size_t>(r.u64());
  return grid;
}

std::string encode_grid_section(const TraceStore& trace) {
  std::string out;
  append_grid(out, trace.telemetry_grid());
  return out;
}

std::string encode_topology(const Topology& topo) {
  std::string out;
  append_u64(out, topo.regions().size());
  for (const Region& r : topo.regions()) {
    append_string(out, r.name);
    append_f64(out, r.tz_offset_hours);
  }
  append_u64(out, topo.datacenters().size());
  for (const Datacenter& dc : topo.datacenters()) {
    append_u32(out, dc.region.value());
  }
  append_u64(out, topo.clusters().size());
  for (const Cluster& c : topo.clusters()) {
    append_u32(out, c.datacenter.value());
    append_u8(out, c.cloud == CloudType::kPrivate ? 0 : 1);
    append_string(out, c.node_sku.name);
    append_f64(out, c.node_sku.cores);
    append_f64(out, c.node_sku.memory_gb);
  }
  append_u64(out, topo.racks().size());
  for (const Rack& r : topo.racks()) append_u32(out, r.cluster.value());
  append_u64(out, topo.nodes().size());
  for (const Node& n : topo.nodes()) append_u32(out, n.rack.value());
  return out;
}

std::unique_ptr<Topology> decode_topology(Reader& r) {
  auto topo = std::make_unique<Topology>();
  const std::uint64_t regions = r.u64();
  for (std::uint64_t i = 0; i < regions; ++i) {
    const std::string name = r.str();
    const double tz = r.f64();
    topo->add_region(name, tz);
  }
  const std::uint64_t dcs = r.u64();
  for (std::uint64_t i = 0; i < dcs; ++i) {
    topo->add_datacenter(RegionId(r.u32()));
  }
  const std::uint64_t clusters = r.u64();
  for (std::uint64_t i = 0; i < clusters; ++i) {
    const DatacenterId dc(r.u32());
    const CloudType cloud = r.u8() == 0 ? CloudType::kPrivate
                                        : CloudType::kPublic;
    NodeSku sku;
    sku.name = r.str();
    sku.cores = r.f64();
    sku.memory_gb = r.f64();
    topo->add_cluster(dc, cloud, std::move(sku));
  }
  const std::uint64_t racks = r.u64();
  for (std::uint64_t i = 0; i < racks; ++i) topo->add_rack(ClusterId(r.u32()));
  const std::uint64_t nodes = r.u64();
  for (std::uint64_t i = 0; i < nodes; ++i) topo->add_node(RackId(r.u32()));
  return topo;
}

std::string encode_services(const TraceStore& trace) {
  std::string out;
  append_u64(out, trace.services().size());
  for (const ServiceInfo& s : trace.services()) {
    append_string(out, s.name);
    append_u8(out, s.cloud == CloudType::kPrivate ? 0 : 1);
    append_u8(out, static_cast<std::uint8_t>(s.model));
    append_u8(out, s.region_agnostic ? 1 : 0);
  }
  return out;
}

void decode_services(Reader& r, TraceStore& trace) {
  const std::uint64_t count = r.u64();
  for (std::uint64_t i = 0; i < count; ++i) {
    ServiceInfo s;
    s.name = r.str();
    s.cloud = r.u8() == 0 ? CloudType::kPrivate : CloudType::kPublic;
    const std::uint8_t model = r.u8();
    CL_CHECK_MSG(model <= static_cast<std::uint8_t>(ServiceModel::kSaaS),
                 "snapshot: bad service model");
    s.model = static_cast<ServiceModel>(model);
    s.region_agnostic = r.u8() != 0;
    trace.add_service(std::move(s));
  }
}

std::string encode_subscriptions(const TraceStore& trace) {
  std::string out;
  append_u64(out, trace.subscriptions().size());
  for (const SubscriptionInfo& s : trace.subscriptions()) {
    append_u8(out, s.cloud == CloudType::kPrivate ? 0 : 1);
    append_u8(out, s.party == PartyType::kFirstParty ? 0 : 1);
    append_u32(out, s.service.value());
  }
  return out;
}

void decode_subscriptions(Reader& r, TraceStore& trace) {
  const std::uint64_t count = r.u64();
  for (std::uint64_t i = 0; i < count; ++i) {
    SubscriptionInfo s;
    s.cloud = r.u8() == 0 ? CloudType::kPrivate : CloudType::kPublic;
    s.party = r.u8() == 0 ? PartyType::kFirstParty : PartyType::kThirdParty;
    s.service = ServiceId(r.u32());
    trace.add_subscription(s);
  }
}

}  // namespace

void encode_model_record(const UtilizationModel& model, const TimeGrid& grid,
                         const SnapshotModelCodec* codec, std::string& out) {
  std::string payload;
  std::uint8_t tag = 0;
  const auto* sampled = dynamic_cast<const SampledUtilization*>(&model);
  if (const auto* c = dynamic_cast<const ConstantUtilization*>(&model)) {
    tag = kModelConstant;
    append_f64(payload, c->level());
  } else if (sampled == nullptr && codec != nullptr &&
             (tag = codec->encode(model, payload)) != 0) {
    CL_CHECK_MSG(tag >= kFirstCustomModelTag,
                 "model codec returned a reserved tag");
  } else {
    // A sampled model stores its own window as sample() reads it, so no
    // cell past its valid-tick cut is touched. Any other model degrades to
    // explicit samples over the telemetry grid (exact at every grid tick,
    // step-interpolated elsewhere).
    const TimeGrid& cells_grid = sampled != nullptr ? sampled->grid() : grid;
    tag = kModelSampled;
    payload.clear();
    append_grid(payload, cells_grid);
    std::vector<double> samples(cells_grid.count);
    model.sample(cells_grid, samples);
    payload.append(reinterpret_cast<const char*>(samples.data()),
                   samples.size() * sizeof(double));
  }
  append_u8(out, tag);
  append_string(out, payload);
}

std::shared_ptr<const UtilizationModel> decode_model_record(
    Reader& r, const SnapshotModelCodec* codec) {
  const std::uint8_t tag = r.u8();
  const std::string payload = r.str();
  Reader body(payload);
  switch (tag) {
    case kModelConstant:
      return std::make_shared<ConstantUtilization>(body.f64());
    case kModelSampled: {
      const TimeGrid grid = read_grid(body);
      std::vector<double> samples(grid.count);
      const std::string_view raw = body.raw(grid.count * sizeof(double));
      std::memcpy(samples.data(), raw.data(), raw.size());
      return std::make_shared<SampledUtilization>(grid, std::move(samples));
    }
    default: {
      CL_CHECK_MSG(tag >= kFirstCustomModelTag,
                   "snapshot: unknown native model tag "
                       << static_cast<int>(tag));
      std::shared_ptr<const UtilizationModel> model =
          codec != nullptr ? codec->decode(tag, payload) : nullptr;
      CL_CHECK_MSG(model != nullptr,
                   "snapshot: no codec for custom model tag "
                       << static_cast<int>(tag)
                       << " (pass the codec used to save)");
      return model;
    }
  }
}

namespace {

/// Validates the container header and section table over `bytes` and
/// returns id -> payload views into it.
std::vector<std::pair<std::uint32_t, std::string_view>> parse_sections(
    std::string_view bytes) {
  Reader header(bytes);
  CL_CHECK_MSG(header.u32() == kSnapshotMagic,
               "snapshot: bad magic (not a cloudlens snapshot)");
  const std::uint32_t version = header.u32();
  CL_CHECK_MSG(version == kSnapshotFormatVersion,
               "snapshot: format version " << version << " != supported "
                                           << kSnapshotFormatVersion);
  const std::uint32_t count = header.u32();
  header.u32();  // reserved
  std::vector<std::pair<std::uint32_t, std::string_view>> sections;
  sections.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint32_t id = header.u32();
    header.u32();  // reserved
    const std::uint64_t offset = header.u64();
    const std::uint64_t size = header.u64();
    CL_CHECK_MSG(offset <= bytes.size() && size <= bytes.size() - offset,
                 "snapshot: section " << id << " out of bounds");
    sections.emplace_back(id, bytes.substr(offset, size));
  }
  return sections;
}

}  // namespace

// --- the container writer ------------------------------------------------

void SectionSink::write(std::string_view bytes) {
  out_.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  written_ += bytes.size();
}

ContainerSection staged_section(std::uint32_t id, const std::string& payload) {
  return {id, payload.size(),
          [&payload](SectionSink& sink) { sink.write(payload); }};
}

void write_container(std::ostream& out,
                     const std::vector<ContainerSection>& sections) {
  std::string head;
  append_u32(head, kSnapshotMagic);
  append_u32(head, kSnapshotFormatVersion);
  append_u32(head, static_cast<std::uint32_t>(sections.size()));
  append_u32(head, 0);
  std::uint64_t offset = head.size() + sections.size() * 24;
  for (const ContainerSection& s : sections) {
    append_u32(head, s.id);
    append_u32(head, 0);
    append_u64(head, offset);
    append_u64(head, s.size);
    offset += s.size;
  }
  SectionSink sink(out);
  sink.write(head);
  for (const ContainerSection& s : sections) {
    const std::uint64_t before = sink.written();
    s.write(sink);
    CL_CHECK_MSG(sink.written() - before == s.size,
                 "snapshot: section " << s.id << " wrote "
                                      << sink.written() - before
                                      << " bytes, declared " << s.size);
  }
  out.flush();
  CL_CHECK_MSG(out.good(), "snapshot: write failed (disk full?)");
}

void save_trace_snapshot(const Topology& topology, const TraceStore& trace,
                         std::ostream& out, const SnapshotModelCodec* codec) {
  CL_CHECK_MSG(&trace.topology() == &topology,
               "snapshot: trace does not reference the given topology");
  const TimeGrid& grid = trace.telemetry_grid();

  // Deduplicated model table: first-occurrence order over the VM list, so
  // identical traces produce identical bytes and shared model instances
  // stay shared after a round trip.
  std::string models;
  std::unordered_map<const UtilizationModel*, std::uint32_t> model_index;
  std::string vms;
  append_u64(vms, trace.vms().size());
  std::uint32_t next_model = 0;
  std::string model_records;
  for (const VmRecord& vm : trace.vms()) {
    append_u32(vms, vm.subscription.value());
    append_u32(vms, vm.service.value());
    append_u8(vms, vm.cloud == CloudType::kPrivate ? 0 : 1);
    append_u8(vms, vm.party == PartyType::kFirstParty ? 0 : 1);
    append_u32(vms, vm.region.value());
    append_u32(vms, vm.cluster.value());
    append_u32(vms, vm.rack.value());
    append_u32(vms, vm.node.value());
    append_f64(vms, vm.cores);
    append_f64(vms, vm.memory_gb);
    append_i64(vms, vm.created);
    append_i64(vms, vm.deleted);
    if (vm.utilization == nullptr) {
      append_u32(vms, kNoModel);
      continue;
    }
    const auto [it, inserted] =
        model_index.emplace(vm.utilization.get(), next_model);
    if (inserted) {
      encode_model_record(*vm.utilization, grid, codec, model_records);
      ++next_model;
    }
    append_u32(vms, it->second);
  }
  append_u64(models, next_model);
  models += model_records;

  const std::string grid_payload = encode_grid_section(trace);
  const std::string topology_payload = encode_topology(topology);
  const std::string services = encode_services(trace);
  const std::string subscriptions = encode_subscriptions(trace);
  write_container(out, {staged_section(kGrid, grid_payload),
                        staged_section(kTopology, topology_payload),
                        staged_section(kServices, services),
                        staged_section(kSubscriptions, subscriptions),
                        staged_section(kModels, models),
                        staged_section(kVms, vms)});
}

LoadedSnapshot load_trace_snapshot(
    std::istream& in, const SnapshotModelCodec* codec,
    const PopulationShardingOptions* population_sharding) {
  const SnapshotMapping c(in);
  const bool spilling = population_sharding != nullptr;
  LoadedSnapshot result;

  Reader grid_r(c.section(kGrid));
  const TimeGrid grid = read_grid(grid_r);

  Reader topo_r(c.section(kTopology));
  result.topology = decode_topology(topo_r);
  result.trace = std::make_unique<TraceStore>(result.topology.get(), grid);
  TraceStore& trace = *result.trace;

  Reader svc_r(c.section(kServices));
  decode_services(svc_r, trace);
  Reader sub_r(c.section(kSubscriptions));
  decode_subscriptions(sub_r, trace);

  // A resident load decodes the model table once and shares each model
  // among the VMs that reference it. A spilling load keeps one view per
  // record and decodes per VM instead: the model leaves with its record,
  // so the decoded table is never held.
  const std::string_view model_section = c.section(kModels);
  Reader model_r(model_section);
  const std::uint64_t model_count = model_r.u64();
  std::vector<std::shared_ptr<const UtilizationModel>> models;
  std::vector<std::string_view> model_records;
  for (std::uint64_t i = 0; i < model_count; ++i) {
    if (!spilling) {
      models.push_back(decode_model_record(model_r, codec));
      continue;
    }
    const std::size_t begin = model_r.offset();
    model_r.u8();                // tag
    model_r.raw(model_r.u32());  // payload
    model_records.push_back(
        model_section.substr(begin, model_r.offset() - begin));
  }

  // Every subscription is registered: a spilling load is a record
  // producer like the generator and the ingest backends.
  if (spilling) trace.begin_population_spill(*population_sharding);
  Reader vm_r(c.section(kVms));
  const std::uint64_t vm_count = vm_r.u64();
  for (std::uint64_t i = 0; i < vm_count; ++i) {
    VmRecord rec;
    rec.subscription = SubscriptionId(vm_r.u32());
    rec.service = ServiceId(vm_r.u32());
    rec.cloud = vm_r.u8() == 0 ? CloudType::kPrivate : CloudType::kPublic;
    rec.party = vm_r.u8() == 0 ? PartyType::kFirstParty
                               : PartyType::kThirdParty;
    rec.region = RegionId(vm_r.u32());
    rec.cluster = ClusterId(vm_r.u32());
    rec.rack = RackId(vm_r.u32());
    rec.node = NodeId(vm_r.u32());
    rec.cores = vm_r.f64();
    rec.memory_gb = vm_r.f64();
    rec.created = vm_r.i64();
    rec.deleted = vm_r.i64();
    const std::uint32_t model = vm_r.u32();
    if (model != kNoModel) {
      CL_CHECK_MSG(model < model_count, "snapshot: bad model index");
      if (spilling) {
        Reader record(model_records[model]);
        rec.utilization = decode_model_record(record, codec);
      } else {
        rec.utilization = models[model];
      }
    }
    trace.add_vm(std::move(rec));
  }
  if (spilling) trace.finish_population_spill();
  return result;
}

// --- the container reader ------------------------------------------------

SnapshotMapping::SnapshotMapping(const std::string& path) {
#if CLOUDLENS_SNAPSHOT_HAS_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd >= 0) {
    struct stat st {};
    if (::fstat(fd, &st) == 0 && S_ISREG(st.st_mode) && st.st_size > 0) {
      const auto length = static_cast<std::size_t>(st.st_size);
      void* base = ::mmap(nullptr, length, PROT_READ, MAP_PRIVATE, fd, 0);
      if (base != MAP_FAILED) {
        map_base_ = base;
        map_length_ = length;
      }
    }
    ::close(fd);
  }
#endif
  if (map_base_ != nullptr) {
    bytes_ = std::string_view(static_cast<const char*>(map_base_),
                              map_length_);
  } else {
    // No mapping: the stream constructor's buffered read, same validation.
    std::ifstream in(path, std::ios::binary);
    CL_CHECK_MSG(in.good(), "snapshot: cannot open " << path);
    read_buffered(in);
  }
  try {
    sections_ = parse_sections(bytes_);
  } catch (...) {
    unmap();  // the destructor will not run for a throwing constructor
    throw;
  }
}

SnapshotMapping::SnapshotMapping(std::istream& in) {
  read_buffered(in);
  sections_ = parse_sections(bytes_);
}

SnapshotMapping::~SnapshotMapping() { unmap(); }

void SnapshotMapping::read_buffered(std::istream& in) {
  // Bulk-read the stream when it is seekable: istreambuf iterators walk
  // one char at a time, which on a GB-sized trace is the difference
  // between tens of seconds and disk speed.
  const std::streampos start = in.tellg();
  if (start != std::streampos(-1) && in.seekg(0, std::ios::end)) {
    const std::streampos end = in.tellg();
    in.seekg(start);
    buffer_.resize(static_cast<std::size_t>(end - start));
    in.read(buffer_.data(), static_cast<std::streamsize>(buffer_.size()));
    CL_CHECK_MSG(static_cast<std::size_t>(in.gcount()) == buffer_.size(),
                 "snapshot: short read");
  } else {
    in.clear();
    buffer_.assign(std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>());
  }
  bytes_ = buffer_;
}

void SnapshotMapping::unmap() noexcept {
#if CLOUDLENS_SNAPSHOT_HAS_MMAP
  if (map_base_ != nullptr) ::munmap(map_base_, map_length_);
#endif
}

std::string_view SnapshotMapping::section(std::uint32_t id) const {
  for (const auto& [sid, view] : sections_) {
    if (sid == id) return view;
  }
  CL_CHECK_MSG(false, "snapshot: missing section " << id);
  return {};
}

}  // namespace cloudlens
