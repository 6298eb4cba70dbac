// Chunked parallel CSV decode bench: the ingest hot path.
//
// Writes a synthetic long-format readings file (vm,timestamp,avg_cpu —
// the shape of Azure's vm_cpu_readings, the largest file a real import
// touches) of --size-mb, then decodes it twice through ingest/csv.h:
//
//   serial      — ParallelConfig::serial(), the scalar oracle;
//   parallel@N  — N decode threads (default: the host's core count).
//
// Every decoded row feeds an FNV-1a digest (field bytes + parsed
// numerics, in file order), so the two runs must produce the same
// checksum bit for bit — the same discipline the ingest tests pin at
// fixture scale, here verified at ≥100 MB scale.
//
// Gates (ShapeChecks): checksums identical; parallel throughput ≥
// --min-speedup x serial (default 2.0). The speedup gate needs real
// cores: on hosts with fewer than 4 hardware threads it is skipped with
// a note (the checksum gate always holds), and --min-speedup=0 disables
// it explicitly for CI smokes. Emits BENCH_ingest.json.
//
// Usage: bench_ingest [--size-mb=N] [--threads=N] [--min-speedup=F]
//                     [--out=PATH]
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "bench_common.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/table.h"
#include "ingest/csv.h"

using namespace cloudlens;

namespace {

struct IngestBenchArgs {
  double size_mb = 120;
  double min_speedup = 2.0;
  unsigned threads = 0;  // 0 = hardware_concurrency
  std::string out = "BENCH_ingest.json";
};

IngestBenchArgs parse_ingest_args(int argc, char** argv) {
  IngestBenchArgs args;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--size-mb=", 10) == 0) {
      args.size_mb = std::atof(argv[i] + 10);
    } else if (std::strncmp(argv[i], "--min-speedup=", 14) == 0) {
      args.min_speedup = std::atof(argv[i] + 14);
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      args.threads = static_cast<unsigned>(std::atoi(argv[i] + 10));
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      args.out = argv[i] + 6;
    } else if (std::strcmp(argv[i], "--help") == 0) {
      std::printf(
          "usage: %s [--size-mb=N] [--threads=N] [--min-speedup=F] "
          "[--out=PATH]\n",
          argv[0]);
      std::exit(0);
    }
  }
  return args;
}

std::uint64_t fnv_bytes(std::string_view s) {
  bench::Fnv64 h;
  h.raw(s);
  return h.digest();
}

struct ReadingRow {
  std::uint64_t vm_hash = 0;
  std::int64_t t = 0;
  double cpu = 0;
};

/// Deterministic synthetic readings file; returns the row count.
std::uint64_t write_synthetic_csv(const std::string& path, double size_mb) {
  std::ofstream out(path, std::ios::binary);
  SplitMix64 rng(20260809);
  const std::size_t target = static_cast<std::size_t>(size_mb * 1048576.0);
  std::uint64_t rows = 0;
  std::string buf;
  buf.reserve(1 << 20);
  std::size_t written = 0;
  char line[96];
  while (written + buf.size() < target) {
    const std::uint64_t vm = rng.next() % 2600000;  // Azure-scale id space
    const std::uint64_t t = (rng.next() % 2016) * 300;
    const double cpu = double(rng.next() % 10000) / 100.0;
    const int n = std::snprintf(line, sizeof line, "vm%llu,%llu,%.2f\n",
                                (unsigned long long)vm, (unsigned long long)t,
                                cpu);
    buf.append(line, static_cast<std::size_t>(n));
    ++rows;
    if (buf.size() >= (1 << 20)) {
      out << buf;
      written += buf.size();
      buf.clear();
    }
  }
  out << buf;
  return rows;
}

struct DecodeResult {
  std::uint64_t checksum = 0;
  std::uint64_t rows = 0;
  double seconds = 0;
};

DecodeResult decode_file(const std::string& path,
                         const ParallelConfig& parallel) {
  std::ifstream in(path, std::ios::binary);
  ingest::CsvDecodeOptions options;
  options.file = "synthetic.csv";
  options.parallel = parallel;
  DecodeResult result;
  // FNV-1a over parsed rows, mixed strictly in file order.
  bench::Fnv64 digest;
  const auto start = std::chrono::steady_clock::now();
  ingest::decode_csv<ReadingRow>(
      in, options,
      [](const ingest::CsvRow& row) {
        row.expect_fields(3);
        ReadingRow r;
        r.vm_hash = fnv_bytes(row.field(0));
        r.t = row.i64(1);
        r.cpu = row.f64(2);
        return r;
      },
      [&](ReadingRow&& r) {
        digest.u64(r.vm_hash);
        digest.u64(static_cast<std::uint64_t>(r.t));
        digest.f64(r.cpu);
        ++result.rows;
      });
  result.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  result.checksum = digest.digest();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const IngestBenchArgs args = parse_ingest_args(argc, argv);
  const unsigned hw = std::thread::hardware_concurrency();
  const unsigned threads = args.threads != 0 ? args.threads : (hw ? hw : 1);

  bench::banner("bench_ingest — chunked parallel CSV decode");
  const std::string path =
      (std::filesystem::temp_directory_path() / "cloudlens_bench_ingest.csv")
          .string();
  std::printf("writing %.0f MB synthetic readings CSV to %s...\n",
              args.size_mb, path.c_str());
  const std::uint64_t rows = write_synthetic_csv(path, args.size_mb);
  const double actual_mb =
      double(std::filesystem::file_size(path)) / 1048576.0;
  std::printf("%llu rows, %.1f MB on disk, host threads %u\n\n",
              (unsigned long long)rows, actual_mb, hw);

  const DecodeResult serial = decode_file(path, ParallelConfig::serial());
  const DecodeResult parallel =
      decode_file(path, ParallelConfig::with_threads(threads));
  std::filesystem::remove(path);

  const double serial_mbps = actual_mb / serial.seconds;
  const double parallel_mbps = actual_mb / parallel.seconds;
  const double speedup = serial.seconds / parallel.seconds;

  TextTable table({"config", "seconds", "MB/s", "rows", "checksum"});
  char hex[32];
  std::snprintf(hex, sizeof hex, "%016llx",
                (unsigned long long)serial.checksum);
  table.row()
      .add("serial")
      .add(serial.seconds, 3)
      .add(serial_mbps, 1)
      .add(double(serial.rows), 0)
      .add(hex);
  std::snprintf(hex, sizeof hex, "%016llx",
                (unsigned long long)parallel.checksum);
  table.row()
      .add("parallel@" + std::to_string(threads))
      .add(parallel.seconds, 3)
      .add(parallel_mbps, 1)
      .add(double(parallel.rows), 0)
      .add(hex);
  std::printf("%s\n", table.to_string().c_str());
  std::printf("speedup: %.2fx, peak RSS %.0f MiB\n\n", speedup,
              bench::peak_rss_mib());

  bench::ShapeChecks checks;
  checks.expect(serial.rows == rows && parallel.rows == rows,
                "both runs decode every generated row");
  checks.expect(serial.checksum == parallel.checksum,
                "parallel decode bit-identical to serial (FNV digest)");
  double min_speedup = args.min_speedup;
  if (min_speedup > 0 && hw < 4) {
    std::printf(
        "  [SKIP] speedup gate: host has %u hardware thread(s); the chunk\n"
        "         grid and ordered merge are exercised, but wall-clock\n"
        "         parallel gains need >= 4 cores (checksum gate still "
        "binding)\n",
        hw);
    min_speedup = 0;
  }
  if (min_speedup > 0) {
    char what[128];
    std::snprintf(what, sizeof what,
                  "parallel decode >= %.1fx serial (measured %.2fx)",
                  min_speedup, speedup);
    checks.expect(speedup >= min_speedup, what);
  }

  bench::BenchJson json("ingest");
  json.meta()
      .num("size_mb", actual_mb)
      .num("rows", double(rows))
      .num("host_threads", double(hw))
      .num("decode_threads", double(threads))
      .num("peak_rss_mib", bench::peak_rss_mib())
      .num("min_speedup_gate", min_speedup);
  char serial_hex[32], parallel_hex[32];
  std::snprintf(serial_hex, sizeof serial_hex, "%016llx",
                (unsigned long long)serial.checksum);
  std::snprintf(parallel_hex, sizeof parallel_hex, "%016llx",
                (unsigned long long)parallel.checksum);
  json.record("serial")
      .num("seconds", serial.seconds)
      .num("mb_per_s", serial_mbps)
      .str("checksum", serial_hex);
  json.record("parallel")
      .num("threads", double(threads))
      .num("seconds", parallel.seconds)
      .num("mb_per_s", parallel_mbps)
      .num("speedup", speedup)
      .str("checksum", parallel_hex);
  json.write(args.out);
  return checks.exit_code();
}
