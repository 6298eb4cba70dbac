// Shared scaffolding for the benches: scenario construction from
// command-line flags, formatting, per-phase timing and peak-RSS windows,
// FNV-1a checksums, and the BENCH_*.json writer.
//
// Every bench prints (a) the series/rows the corresponding paper figure
// reports, (b) a paper-vs-measured table of the figure's headline numbers,
// and (c) a PASS/FAIL shape check mirroring EXPERIMENTS.md.
#pragma once

#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "workloads/generator.h"

namespace cloudlens::bench {

struct BenchArgs {
  double scale = 0.35;
  std::uint64_t seed = 42;
};

inline BenchArgs parse_args(int argc, char** argv) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--scale=", 8) == 0) {
      args.scale = std::atof(argv[i] + 8);
    } else if (std::strncmp(argv[i], "--seed=", 7) == 0) {
      args.seed = std::strtoull(argv[i] + 7, nullptr, 10);
    } else if (std::strcmp(argv[i], "--help") == 0) {
      std::printf("usage: %s [--scale=F] [--seed=N]\n", argv[0]);
      std::exit(0);
    }
  }
  return args;
}

inline workloads::Scenario make_bench_scenario(const BenchArgs& args) {
  workloads::ScenarioOptions options;
  options.scale = args.scale;
  options.seed = args.seed;
  std::printf("generating dual-cloud scenario (scale=%.2f seed=%llu)...\n",
              args.scale, (unsigned long long)args.seed);
  return workloads::make_scenario(options);
}

inline void banner(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

/// Peak resident-set size of this process in MiB (0 when unavailable).
inline double peak_rss_mib() {
#if defined(__unix__) || defined(__APPLE__)
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
#if defined(__APPLE__)
  return static_cast<double>(usage.ru_maxrss) / (1024.0 * 1024.0);
#else
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
#endif
#else
  return 0.0;
#endif
}

/// Peak RSS (VmHWM) in MiB from /proc — unlike ru_maxrss this can be
/// reset per phase via reset_peak_rss().
inline double vm_hwm_mib() {
#if defined(__linux__)
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::atof(line.c_str() + 6) / 1024.0;
  }
#endif
  return peak_rss_mib();
}

/// Resets the kernel's RSS high-water mark so the next vm_hwm_mib() call
/// reports the peak of this phase only. Returns false when unsupported.
inline bool reset_peak_rss() {
#if defined(__linux__)
  std::ofstream out("/proc/self/clear_refs");
  if (!out.good()) return false;
  out << "5";
  out.flush();
  return out.good();
#else
  return false;
#endif
}

inline double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// FNV-1a digest for bench checksums: any single changed input byte
/// changes it.
class Fnv64 {
 public:
  /// The bytes of `s` alone.
  void raw(std::string_view s) {
    for (const char c : s) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 0x100000001b3ULL;
    }
  }
  /// The bytes of `s`, then its length, so consecutive strings cannot
  /// collide by shifting bytes across their boundary.
  void bytes(std::string_view s) {
    raw(s);
    u64(s.size());
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFF;
      h_ *= 0x100000001b3ULL;
    }
  }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  std::uint64_t digest() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Machine-readable benchmark sink: collects flat records (one object of
/// numeric and string fields per measured configuration) and writes them as
/// one JSON document, e.g. BENCH_telemetry.json, so CI and EXPERIMENTS.md
/// can diff runs without scraping stdout.
class BenchJson {
 public:
  explicit BenchJson(std::string bench_name)
      : bench_name_(std::move(bench_name)) {}

  class Record {
   public:
    Record& num(const std::string& key, double value) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.6g", value);
      fields_.emplace_back(key, buf);
      return *this;
    }
    Record& str(const std::string& key, const std::string& value) {
      fields_.emplace_back(key, "\"" + value + "\"");
      return *this;
    }

   private:
    friend class BenchJson;
    std::vector<std::pair<std::string, std::string>> fields_;
  };

  Record& record(const std::string& name) {
    records_.emplace_back();
    records_.back().str("name", name);
    return records_.back();
  }
  Record& meta() { return meta_; }

  /// Writes the document; returns false (and prints) on I/O failure.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) {
      std::printf("BenchJson: cannot open %s\n", path.c_str());
      return false;
    }
    std::fprintf(f, "{\n  \"bench\": \"%s\"", bench_name_.c_str());
    for (const auto& [k, v] : meta_.fields_)
      std::fprintf(f, ",\n  \"%s\": %s", k.c_str(), v.c_str());
    std::fprintf(f, ",\n  \"results\": [\n");
    for (std::size_t r = 0; r < records_.size(); ++r) {
      std::fprintf(f, "    {");
      const auto& fields = records_[r].fields_;
      for (std::size_t i = 0; i < fields.size(); ++i)
        std::fprintf(f, "%s\"%s\": %s", i ? ", " : "", fields[i].first.c_str(),
                     fields[i].second.c_str());
      std::fprintf(f, "}%s\n", r + 1 < records_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
    return true;
  }

 private:
  std::string bench_name_;
  Record meta_;
  std::vector<Record> records_;
};

/// One shape assertion; prints PASS/FAIL and tracks a global verdict.
class ShapeChecks {
 public:
  void expect(bool ok, const std::string& what) {
    std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", what.c_str());
    if (!ok) failures_++;
  }
  /// Returns the process exit code (0 iff all checks passed).
  int exit_code() const { return failures_ == 0 ? 0 : 1; }

 private:
  int failures_ = 0;
};

}  // namespace cloudlens::bench
