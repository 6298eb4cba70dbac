// Measurement helpers for bench_e2e: output digests, process probes
// (CPU, RSS high-water mark, I/O bytes), order statistics, and the
// bench-side span recorder behind the traced run.
//
// Probes read Linux /proc files and return 0 where those are missing, so
// the harness still builds and runs elsewhere with fewer numbers.
#pragma once

#include <sys/resource.h>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <string>
#include <system_error>
#include <vector>

#include "obs/trace_sink.h"

namespace cloudlens::bench_e2e {

/// FNV-1a over rendered output bytes. Each string is followed by its
/// length, so moving bytes between two outputs changes the digest. Same
/// construction as bench_population's suite checksum, so the two benches'
/// digests are comparable.
class Fnv64 {
 public:
  void bytes(const std::string& s) {
    for (const char c : s) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 0x100000001b3ULL;
    }
    u64(s.size());
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFF;
      h_ *= 0x100000001b3ULL;
    }
  }
  std::uint64_t digest() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

inline std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

inline double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// User + system CPU seconds of the whole process (all threads).
inline double cpu_seconds() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

/// A "Key:   <n> kB" field of /proc/self/status, in MiB (0 if absent).
inline double proc_status_mib(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(key) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0)
      return std::atof(line.c_str() + prefix.size()) / 1024.0;
  }
  return 0.0;
}

/// Peak resident set since the last reset_peak_rss(), in MiB.
inline double vm_hwm_mib() { return proc_status_mib("VmHWM"); }
inline double vm_rss_mib() { return proc_status_mib("VmRSS"); }

/// Resets the kernel's RSS high-water mark to the current RSS, so the
/// next vm_hwm_mib() reports the peak of what runs in between.
inline bool reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  if (!out.good()) return false;
  out << "5";
  out.flush();
  return out.good();
}

/// Hands freed heap pages back to the kernel, so a phase's RSS baseline
/// does not depend on what earlier phases left in the allocator.
inline void release_free_memory() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

/// Bytes passed through read/write-family calls (rchar/wchar of
/// /proc/self/io), in MiB. Page-cache hits count; mmap reads do not.
struct IoBytes {
  double read_mib = 0.0;
  double write_mib = 0.0;
};

inline IoBytes io_bytes() {
  IoBytes io;
  std::ifstream in("/proc/self/io");
  std::string key;
  double value = 0.0;
  while (in >> key >> value) {
    if (key == "rchar:") io.read_mib = value / (1024.0 * 1024.0);
    if (key == "wchar:") io.write_mib = value / (1024.0 * 1024.0);
  }
  return io;
}

/// Total size of the regular files under `dir` (0 when it does not exist).
inline std::uint64_t tree_bytes(const std::filesystem::path& dir) {
  std::error_code ec;
  std::uint64_t total = 0;
  for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
       !ec && it != std::filesystem::recursive_directory_iterator();
       it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

/// Milliseconds a fixed memory-bound loop takes: 2^20 random updates over
/// a 16 MiB table. Compute-only loops run at one speed on a shared host,
/// memory-bound ones do not, so this samples how much memory bandwidth
/// the host leaves the benchmark at the moment; it measures nothing of the
/// program.
inline double reference_loop_ms() {
  static std::vector<std::uint64_t> table(std::size_t{1} << 21);
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < (1 << 20); ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    table[x & (table.size() - 1)] += x;
  }
  return 1e3 * seconds_since(start);
}

/// Linear-interpolated quantile (p in [0, 1]); 0 for an empty sample.
inline double quantile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = p * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Bench-side spans: name, start, end, parent span and rep, kept in memory
/// and written once as Chrome trace JSON. Timestamps come from
/// obs::now_ns(), the clock of the program's own TraceSink, so both sets of
/// spans share one timeline. Thread-safe; disabled recorders record nothing.
class SpanRecorder {
 public:
  static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

  struct Span {
    std::string name;
    std::string category;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::size_t parent = kNoParent;
    int rep = -1;
    std::uint32_t tid = 0;
    double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
  };

  /// Ends its span when destroyed.
  class Scope {
   public:
    Scope(SpanRecorder* recorder, std::size_t id) : recorder_(recorder), id_(id) {}
    ~Scope() {
      if (recorder_ != nullptr) recorder_->end(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* recorder_;
    std::size_t id_;
  };

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// Opens a span; returns kNoParent (and records nothing) when disabled.
  std::size_t begin(std::string name, std::size_t parent, int rep,
                    std::uint32_t tid = 0) {
    if (!enabled_) return kNoParent;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{std::move(name), "bench", obs::now_ns(), 0, parent,
                          rep, tid});
    return spans_.size() - 1;
  }
  void end(std::size_t id) {
    if (id == kNoParent) return;
    std::lock_guard<std::mutex> lock(mu_);
    spans_[id].end_ns = obs::now_ns();
  }
  Scope scope(std::string name, std::size_t parent, int rep, std::uint32_t tid = 0) {
    return Scope(this, begin(std::move(name), parent, rep, tid));
  }
  /// Adds an already-finished span (the program's sink events).
  void add(Span span) {
    if (!enabled_) return;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(span));
  }

  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

  /// Seconds of `parent`'s interval covered by its direct bench children
  /// (children are sequential on one thread, so their durations add).
  double child_seconds(std::size_t parent) const {
    std::lock_guard<std::mutex> lock(mu_);
    double total = 0.0;
    for (const Span& s : spans_)
      if (s.parent == parent && s.category == "bench") total += s.seconds();
    return total;
  }

  /// Chrome Trace Event JSON (chrome://tracing, ui.perfetto.dev).
  bool write_json(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    std::lock_guard<std::mutex> lock(mu_);
    out << "{\"traceEvents\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "\"ph\": \"X\", \"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, "
                    "\"tid\": %u, ",
                    static_cast<double>(s.start_ns) * 1e-3,
                    static_cast<double>(s.end_ns - s.start_ns) * 1e-3, s.tid);
      out << (i ? ",\n" : "\n") << "  {\"name\": \"" << s.name
          << "\", \"cat\": \"" << s.category << "\", " << buf
          << "\"args\": {\"id\": " << i << ", \"parent\": "
          << (s.parent == kNoParent ? -1 : static_cast<long long>(s.parent))
          << ", \"rep\": " << s.rep << "}}";
    }
    out << "\n], \"displayTimeUnit\": \"ms\"}\n";
    return out.good();
  }

 private:
  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

}  // namespace cloudlens::bench_e2e
