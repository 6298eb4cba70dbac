#include "obs/metrics.h"

#include <bit>
#include <cmath>
#include <limits>
#include <ostream>

namespace cloudlens::obs {
namespace {

constexpr std::string_view kCounterNames[] = {
#define CLOUDLENS_OBS_NAME(id, name) name,
    CLOUDLENS_OBS_COUNTERS(CLOUDLENS_OBS_NAME)
#undef CLOUDLENS_OBS_NAME
};
constexpr std::string_view kGaugeNames[] = {
#define CLOUDLENS_OBS_NAME(id, name) name,
    CLOUDLENS_OBS_GAUGES(CLOUDLENS_OBS_NAME)
#undef CLOUDLENS_OBS_NAME
};
constexpr std::string_view kHistogramNames[] = {
#define CLOUDLENS_OBS_NAME(id, name) name,
    CLOUDLENS_OBS_HISTOGRAMS(CLOUDLENS_OBS_NAME)
#undef CLOUDLENS_OBS_NAME
};

/// Bucket index for a sample of `ns` nanoseconds: bucket i covers
/// (2^(i-1), 2^i] microseconds, bucket 0 covers [0, 1us], the last bucket
/// is unbounded. Purely integer arithmetic — no float rounding, so the
/// same sample always lands in the same bucket.
std::size_t bucket_for_ns(std::uint64_t ns) {
  for (std::size_t i = 0; i + 1 < kHistogramBuckets; ++i) {
    if (ns <= histogram_bucket_upper_ns(i)) return i;
  }
  return kHistogramBuckets - 1;
}

}  // namespace

std::string_view name_of(Counter c) {
  return kCounterNames[static_cast<std::size_t>(c)];
}
std::string_view name_of(Gauge g) {
  return kGaugeNames[static_cast<std::size_t>(g)];
}
std::string_view name_of(Histogram h) {
  return kHistogramNames[static_cast<std::size_t>(h)];
}

std::uint64_t histogram_bucket_upper_ns(std::size_t i) {
  if (i + 1 >= kHistogramBuckets)
    return std::numeric_limits<std::uint64_t>::max();
  return std::uint64_t{1000} << i;  // 2^i microseconds, in ns
}

std::size_t thread_index() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t index =
      next.fetch_add(1, std::memory_order_relaxed);
  return index;
}

MetricsRegistry::MetricsRegistry() = default;

MetricsRegistry::~MetricsRegistry() {
  for (auto& slot : shards_) delete slot.load(std::memory_order_acquire);
}

MetricsRegistry& MetricsRegistry::global() {
  // Leaked on purpose: worker threads may record during static teardown.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

MetricsRegistry::Shard& MetricsRegistry::shard() {
  const std::size_t slot = thread_index() % kMaxShards;
  Shard* s = shards_[slot].load(std::memory_order_acquire);
  if (s == nullptr) {
    auto* fresh = new Shard();
    if (shards_[slot].compare_exchange_strong(s, fresh,
                                              std::memory_order_acq_rel)) {
      s = fresh;
    } else {
      delete fresh;  // another thread mapped onto the same slot first
    }
  }
  return *s;
}

void MetricsRegistry::set(Gauge g, double value) {
  if (!enabled()) return;
  auto& slot = gauges_[static_cast<std::size_t>(g)];
  const auto bits = std::bit_cast<std::uint64_t>(value);
  // An unchanged value skips the store, so a gauge re-stamped from many
  // threads (kernels.tier) keeps its cache line shared.
  if (slot.load(std::memory_order_relaxed) != bits)
    slot.store(bits, std::memory_order_relaxed);
}

void MetricsRegistry::observe_seconds(Histogram h, double seconds) {
  if (!enabled()) return;
  if (!(seconds > 0)) seconds = 0;  // clamp negatives and NaN to zero
  const auto ns = static_cast<std::uint64_t>(seconds * 1e9);
  HistogramShard& hist = shard().histograms[static_cast<std::size_t>(h)];
  hist.buckets[bucket_for_ns(ns)].fetch_add(1, std::memory_order_relaxed);
  hist.count.fetch_add(1, std::memory_order_relaxed);
  hist.sum_ns.fetch_add(ns, std::memory_order_relaxed);
}

void MetricsRegistry::reset() {
  for (auto& slot : shards_) {
    Shard* s = slot.load(std::memory_order_acquire);
    if (s == nullptr) continue;
    for (auto& c : s->counters) c.store(0, std::memory_order_relaxed);
    for (auto& h : s->histograms) {
      for (auto& b : h.buckets) b.store(0, std::memory_order_relaxed);
      h.count.store(0, std::memory_order_relaxed);
      h.sum_ns.store(0, std::memory_order_relaxed);
    }
  }
  for (auto& g : gauges_) g.store(0, std::memory_order_relaxed);
}

MetricsRegistry::Snapshot MetricsRegistry::snapshot() const {
  Snapshot snap;
  constexpr std::size_t nc = static_cast<std::size_t>(Counter::kCount);
  constexpr std::size_t ng = static_cast<std::size_t>(Gauge::kCount);
  constexpr std::size_t nh = static_cast<std::size_t>(Histogram::kCount);

  std::array<std::uint64_t, nc> counters{};
  std::array<HistogramSnapshot, nh> hists{};
  // Merge order contract: shards are visited in ascending index order.
  // All merges are integer sums, so the totals are independent of which
  // thread recorded what — only the multiset of samples matters.
  for (std::size_t slot = 0; slot < kMaxShards; ++slot) {
    const Shard* s = shards_[slot].load(std::memory_order_acquire);
    if (s == nullptr) continue;
    for (std::size_t c = 0; c < nc; ++c)
      counters[c] += s->counters[c].load(std::memory_order_relaxed);
    for (std::size_t h = 0; h < nh; ++h) {
      const HistogramShard& hs = s->histograms[h];
      hists[h].count += hs.count.load(std::memory_order_relaxed);
      hists[h].sum_ns += hs.sum_ns.load(std::memory_order_relaxed);
      for (std::size_t b = 0; b < kHistogramBuckets; ++b)
        hists[h].buckets[b] += hs.buckets[b].load(std::memory_order_relaxed);
    }
  }

  snap.counters.reserve(nc);
  for (std::size_t c = 0; c < nc; ++c)
    snap.counters.emplace_back(kCounterNames[c], counters[c]);
  snap.gauges.reserve(ng);
  for (std::size_t g = 0; g < ng; ++g)
    snap.gauges.emplace_back(
        kGaugeNames[g],
        std::bit_cast<double>(gauges_[g].load(std::memory_order_relaxed)));
  snap.histograms.reserve(nh);
  for (std::size_t h = 0; h < nh; ++h) {
    hists[h].name = kHistogramNames[h];
    snap.histograms.push_back(hists[h]);
  }
  return snap;
}

std::uint64_t MetricsRegistry::Snapshot::counter(std::string_view name) const {
  for (const auto& [n, v] : counters) {
    if (n == name) return v;
  }
  return 0;
}

void MetricsRegistry::write_json(std::ostream& out) const {
  const Snapshot snap = snapshot();
  out << "{\n  \"counters\": {";
  for (std::size_t i = 0; i < snap.counters.size(); ++i) {
    out << (i ? "," : "") << "\n    \"" << snap.counters[i].first
        << "\": " << snap.counters[i].second;
  }
  out << "\n  },\n  \"gauges\": {";
  for (std::size_t i = 0; i < snap.gauges.size(); ++i) {
    const double v = snap.gauges[i].second;
    out << (i ? "," : "") << "\n    \"" << snap.gauges[i].first
        << "\": " << (std::isfinite(v) ? v : 0.0);
  }
  out << "\n  },\n  \"histograms\": {";
  for (std::size_t i = 0; i < snap.histograms.size(); ++i) {
    const HistogramSnapshot& h = snap.histograms[i];
    out << (i ? "," : "") << "\n    \"" << h.name << "\": {\"count\": "
        << h.count << ", \"sum_seconds\": " << h.sum_seconds()
        << ", \"mean_seconds\": " << h.mean_seconds() << ", \"buckets\": [";
    for (std::size_t b = 0; b < kHistogramBuckets; ++b)
      out << (b ? "," : "") << h.buckets[b];
    out << "]}";
  }
  out << "\n  }\n}\n";
}

}  // namespace cloudlens::obs
