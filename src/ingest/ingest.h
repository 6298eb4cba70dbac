// Convenience entry points over the backend layer.
//
// `import_trace` is the historical stream-based cloudlens-schema import
// that used to live in cloudsim/trace_io.h; it now rides on the hardened
// parallel decode path in ingest/csv.h (serial by default — callers that
// want parallel decode go through import_cloudlens_streams or a backend).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>

#include "ingest/backend.h"

namespace cloudlens::ingest {

class CsvRow;

/// Strict cloudlens-schema enum fields ("private|public",
/// "first-party|third-party"); any other text fails with the row's
/// located CheckError. Shared by the CSV importer, the serve stream and
/// the kb CSV.
CloudType parse_cloud(const CsvRow& row, std::size_t col);
PartyType parse_party(const CsvRow& row, std::size_t col);
/// A strict unsigned 32-bit id field. Values past the id space, including
/// the invalid-id sentinel, fail like any other malformed field.
std::uint32_t parse_id(const CsvRow& row, std::size_t col);

/// The ownership universe a cloudlens-schema VM table implies. Rows name
/// subscriptions and services only by id, so every id up to the largest
/// one referenced gets a placeholder entry, refined by the rows that
/// reference it: a subscription takes its cloud and party from the last
/// row naming it, and its service from the last such row naming one; a
/// service is named "svc-<id>" and takes its cloud from the last row
/// naming it ("svc-unreferenced" when none does). Fed one row at a time,
/// in row order, by the importer and by serve snapshots.
class PlaceholderUniverse {
 public:
  void add(SubscriptionId subscription, ServiceId service, CloudType cloud,
           PartyType party);
  /// Registers every service, then every subscription, with `trace`.
  void install(TraceStore& trace);
  std::size_t subscription_count() const { return subscriptions_.size(); }

 private:
  std::vector<ServiceInfo> services_;
  std::vector<SubscriptionInfo> subscriptions_;
};

/// Stream-level cloudlens-schema import: the cloudlens backend's core,
/// exposed for callers that hold streams rather than a directory (the
/// serve engine, tests). Pass nullptr for `utilization_csv` to import
/// metadata only (those VMs carry no utilization model).
IngestResult import_cloudlens_streams(std::istream& topology_csv,
                                      std::istream& vm_csv,
                                      std::istream* utilization_csv,
                                      const IngestOptions& options = {});

}  // namespace cloudlens::ingest

namespace cloudlens {

struct ImportedTrace {
  std::unique_ptr<Topology> topology;
  std::unique_ptr<TraceStore> trace;
};

/// Rebuild a topology + trace from the three cloudlens-schema CSV
/// streams. Throws CheckError on malformed input (errors name file,
/// line, and column). Decode is serial here — deterministically
/// identical to the parallel path the backends use.
ImportedTrace import_trace(std::istream& topology_csv, std::istream& vm_csv,
                           std::istream* utilization_csv,
                           TimeGrid grid = week_telemetry_grid());

}  // namespace cloudlens
