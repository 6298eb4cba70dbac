// CLSN: the one binary container format. Trace snapshots and kb
// snapshots (the artifact cache's storage) and population shard files
// (cloudsim/population.h) are all CLSN containers, and this file plus
// snapshot.cpp are the only code that knows the layout: write_container
// is the one writer, SnapshotMapping the one reader.
//
// The CSV bridge (trace_io.h) is the interoperability path — readable,
// diffable, loadable by external tools — but it is lossy (imported VMs
// carry step-function SampledUtilization models, and the exporter caps the
// utilization section) and slow to parse. Snapshots are the opposite
// trade: a versioned binary columnar container that round-trips the whole
// in-memory dataset *exactly* — topology, ownership, VM records, and the
// generator's parametric utilization models (by type tag + parameters +
// seed, so at(t) is bit-identical for every t, not just stored ticks) —
// with doubles stored as raw bit patterns, no text round-trip anywhere.
//
// Container layout (all integers little-endian, fixed width):
//
//   [u32 magic 'CLSN'] [u32 format version] [u32 section count] [u32 0]
//   section table: per section [u32 id] [u32 0] [u64 offset] [u64 size]
//   section payloads (order matches the table; offsets from byte 0)
//
// Sections (ids in snapshot.cpp's Section enum): a trace snapshot carries
// GRID (the trace's telemetry grid), TOPOLOGY, SERVICES, SUBSCRIPTIONS,
// MODELS (deduplicated utilization model table) and VMS (records
// referencing the model table by index). Shard files and the kb snapshot
// (kb/store.h) use the snapshot_sections ids below. No container holds a
// telemetry panel: it is a pure function of the trace and is rebuilt, not
// stored. Readers reject bad magic, unknown versions, missing sections,
// and any out-of-bounds section or truncated payload with CheckError.
//
// Versioning: bump kSnapshotFormatVersion on *any* layout change. The
// pipeline's artifact cache mixes the version into every content key, so a
// format bump invalidates stale cache entries instead of misreading them.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cloudsim/trace.h"

namespace cloudlens {

/// Bump on any change to the container layout or section encodings.
inline constexpr std::uint32_t kSnapshotFormatVersion = 1;

/// First four bytes of every snapshot file: "CLSN".
inline constexpr std::uint32_t kSnapshotMagic = 0x4E534C43u;

// --- model codec extension point ----------------------------------------
//
// cloudsim serializes the model types it owns (ConstantUtilization,
// SampledUtilization) natively. The generator's parametric pattern models
// live a layer up in workloads, which cloudsim must not depend on, so
// callers that want those round-tripped exactly pass a codec
// (workloads/pattern_snapshot.h provides one). Models neither native nor
// handled by the codec degrade to a SampledUtilization over the trace's
// telemetry grid — exact at every grid tick, step-interpolated elsewhere.

/// Tags below this value are reserved for cloudsim's native models.
inline constexpr std::uint8_t kFirstCustomModelTag = 16;

class SnapshotModelCodec {
 public:
  virtual ~SnapshotModelCodec() = default;
  /// Serialize `m` if this codec knows its exact type: append the payload
  /// bytes to `out` (snapshot_codec helpers below) and return the model's
  /// tag (>= kFirstCustomModelTag). Return 0 for unrecognized models.
  virtual std::uint8_t encode(const UtilizationModel& m,
                              std::string& out) const = 0;
  /// Reconstruct a model from the payload encode() produced for `tag`;
  /// nullptr for unknown tags (the load then fails with CheckError).
  virtual std::shared_ptr<const UtilizationModel> decode(
      std::uint8_t tag, std::string_view payload) const = 0;
};

/// Little-endian primitive append/read helpers shared by the snapshot
/// writer and custom model codecs. Doubles travel as raw bit patterns
/// (std::bit_cast), never through text.
namespace snapshot_codec {
void append_u8(std::string& out, std::uint8_t v);
void append_u32(std::string& out, std::uint32_t v);
void append_u64(std::string& out, std::uint64_t v);
void append_i64(std::string& out, std::int64_t v);
void append_f64(std::string& out, double v);
void append_string(std::string& out, std::string_view s);

/// Cursor over an immutable payload; every read bounds-checks and throws
/// CheckError on truncation.
class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}
  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64();
  double f64();
  std::string str();
  /// Raw view of the next `n` bytes (advances the cursor).
  std::string_view raw(std::size_t n);
  bool done() const { return pos_ == bytes_.size(); }
  /// Bytes consumed so far.
  std::size_t offset() const { return pos_; }

 private:
  std::string_view bytes_;
  std::size_t pos_ = 0;
};
}  // namespace snapshot_codec

/// Section ids of the containers written outside this file: the
/// population shard files (cloudsim/population.h) and the kb artifact
/// (kb/store.h). The trace ids live in snapshot.cpp's Section enum; all
/// of them are part of the on-disk format and must never be renumbered.
namespace snapshot_sections {
inline constexpr std::uint32_t kPopulationMeta = 11;
inline constexpr std::uint32_t kPopulationSubscriptions = 12;
inline constexpr std::uint32_t kPopulationVms = 13;
inline constexpr std::uint32_t kPopulationModels = 14;
inline constexpr std::uint32_t kPopulationNodeIndex = 15;
inline constexpr std::uint32_t kKnowledgeBase = 16;
}  // namespace snapshot_sections

// --- the container writer ------------------------------------------------

/// Byte sink handed to a section's writer; counts what passes through.
class SectionSink {
 public:
  explicit SectionSink(std::ostream& out) : out_(out) {}
  void write(std::string_view bytes);
  std::uint64_t written() const { return written_; }

 private:
  std::ostream& out_;
  std::uint64_t written_ = 0;
};

/// One section of a container: its id, the payload size declared in the
/// section table, and the function that writes exactly that many bytes.
struct ContainerSection {
  std::uint32_t id = 0;
  std::uint64_t size = 0;
  std::function<void(SectionSink&)> write;
};

/// A section whose payload is already staged in memory. `payload` is held
/// by reference and must outlive the write_container call.
ContainerSection staged_section(std::uint32_t id, const std::string& payload);

/// The one CLSN writer: header, section table, then every payload in table
/// order. Throws CheckError when a section writes a byte count other than
/// its declared size, or when the stream has failed after the final flush
/// — so a short write never leaves a container that looks complete.
void write_container(std::ostream& out,
                     const std::vector<ContainerSection>& sections);

/// One utilization-model record: [u8 tag][u32 payload size][payload].
/// This is the same encoding the MODELS section uses; it is exposed so the
/// population shard store can stream per-VM model records into its own
/// sections. Models that are neither native nor codec-handled degrade to
/// explicit samples over `fallback_grid`, so a degraded model round-trips
/// the bits the live trace serves at every grid tick.
void encode_model_record(const UtilizationModel& model,
                         const TimeGrid& fallback_grid,
                         const SnapshotModelCodec* codec, std::string& out);

/// Reads one record encode_model_record() produced (advances the reader).
/// Throws CheckError on unknown tags with no codec.
std::shared_ptr<const UtilizationModel> decode_model_record(
    snapshot_codec::Reader& r, const SnapshotModelCodec* codec);

/// Serialize topology + trace. `codec` handles non-native utilization
/// models (nullptr = sampled fallback).
void save_trace_snapshot(const Topology& topology, const TraceStore& trace,
                         std::ostream& out,
                         const SnapshotModelCodec* codec = nullptr);

struct LoadedSnapshot {
  std::unique_ptr<Topology> topology;
  std::unique_ptr<TraceStore> trace;
};

/// Rebuild a topology + trace from a snapshot stream. Pass the codec that
/// was used to save custom models. With `population_sharding` the load is
/// a record producer like the generator and the ingest backends: it
/// brackets its VM loop with TraceStore::begin/finish_population_spill,
/// so the trace comes back population-sharded and its resident record
/// vector never materializes (the shards encode models with the options'
/// model_codec). Throws CheckError on malformed input or a format-version
/// mismatch.
LoadedSnapshot load_trace_snapshot(
    std::istream& in, const SnapshotModelCodec* codec = nullptr,
    const PopulationShardingOptions* population_sharding = nullptr);

// --- the container reader ------------------------------------------------
//
// SnapshotMapping holds one container's bytes and its validated section
// table. Built from a path, it mmaps the file read-only on POSIX hosts, so
// section payloads page in on demand instead of being slurped — the
// enabler for out-of-core population shards, where only the sections a
// read touches enter RSS. Built from a stream, it reads the rest of the
// stream into an owned buffer; the path constructor falls back to that
// same buffered read when mmap is unavailable or fails. Either way the
// section table is validated up front (magic, version, bounds), so a
// malformed container fails with CheckError at construction, never at
// first touch of a payload.
//
// Lifetime: every view returned by section() points into the mapping; the
// mapping must outlive all such views.
class SnapshotMapping {
 public:
  /// Opens and validates `path`. Throws CheckError when the file cannot be
  /// read or is not a well-formed container.
  explicit SnapshotMapping(const std::string& path);
  /// Reads `in` to its end and validates the bytes. Throws CheckError on a
  /// short read or a malformed container.
  explicit SnapshotMapping(std::istream& in);
  ~SnapshotMapping();
  SnapshotMapping(const SnapshotMapping&) = delete;
  SnapshotMapping& operator=(const SnapshotMapping&) = delete;

  /// True when the bytes are served by mmap (false = owned buffer).
  bool mapped() const { return map_base_ != nullptr; }
  /// Whole-container view (header + table + payloads).
  std::string_view bytes() const { return bytes_; }
  /// Payload view for `id`; throws CheckError when the section is absent.
  std::string_view section(std::uint32_t id) const;

 private:
  void read_buffered(std::istream& in);
  void unmap() noexcept;

  void* map_base_ = nullptr;
  std::size_t map_length_ = 0;
  std::string buffer_;  // owned bytes when not mmap'd
  std::string_view bytes_;
  std::vector<std::pair<std::uint32_t, std::string_view>> sections_;
};

}  // namespace cloudlens
