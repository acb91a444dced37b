#include "src/obs/metrics.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <mutex>
#include <thread>

namespace xvu {
namespace obs {

namespace {

std::atomic<bool> g_metrics_enabled{true};

/// Shard index of the calling thread: a thread-local counter assigned
/// round-robin on first use, so long-lived workers spread across slots
/// deterministically per thread.
size_t ThisThreadShard() {
  static std::atomic<size_t> next{0};
  thread_local size_t shard =
      next.fetch_add(1, std::memory_order_relaxed) % Counter::kShards;
  return shard;
}

}  // namespace

bool MetricsEnabled() {
  return g_metrics_enabled.load(std::memory_order_relaxed);
}

void SetMetricsEnabled(bool on) {
  g_metrics_enabled.store(on, std::memory_order_relaxed);
}

// ---------------------------------------------------------------- Counter

void Counter::Add(uint64_t n) {
  slots_[ThisThreadShard()].v.fetch_add(n, std::memory_order_relaxed);
}

uint64_t Counter::Value() const {
  uint64_t total = 0;
  for (const Slot& s : slots_) total += s.v.load(std::memory_order_relaxed);
  return total;
}

void Counter::Reset() {
  for (Slot& s : slots_) s.v.store(0, std::memory_order_relaxed);
}

// -------------------------------------------------------------- Histogram

static_assert(Histogram::kShards == Counter::kShards,
              "ThisThreadShard is shared between the two");

size_t Histogram::BucketIndex(uint64_t v) {
  if (v < (1ull << (kSubBits + 1))) return static_cast<size_t>(v);
  // exp = floor(log2 v) >= kSubBits + 1; the kSubBits bits below the
  // leading one select the sub-bucket within the octave.
  const int exp = 63 - __builtin_clzll(v);
  const uint64_t sub = (v >> (exp - kSubBits)) & ((1ull << kSubBits) - 1);
  return ((static_cast<size_t>(exp - kSubBits) + 1) << kSubBits) +
         static_cast<size_t>(sub);
}

uint64_t Histogram::BucketUpperBound(size_t index) {
  if (index < (2ull << kSubBits)) return index;  // exact range
  const int exp = static_cast<int>(index >> kSubBits) + kSubBits - 1;
  const uint64_t sub = index & ((1ull << kSubBits) - 1);
  const uint64_t lower = (1ull << exp) + (sub << (exp - kSubBits));
  const uint64_t width = 1ull << (exp - kSubBits);
  return lower + width - 1;
}

Histogram::Histogram() : slots_(new Slot[kShards]) {}

void Histogram::Record(uint64_t v) {
  Slot& s = slots_[ThisThreadShard()];
  s.count.fetch_add(1, std::memory_order_relaxed);
  s.sum.fetch_add(v, std::memory_order_relaxed);
  s.buckets[BucketIndex(v)].fetch_add(1, std::memory_order_relaxed);
  uint64_t cur = s.min.load(std::memory_order_relaxed);
  while (v < cur &&
         !s.min.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
  cur = s.max.load(std::memory_order_relaxed);
  while (v > cur &&
         !s.max.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot out;
  out.buckets.assign(kNumBuckets, 0);
  uint64_t min = ~0ull;
  for (size_t i = 0; i < kShards; ++i) {
    const Slot& s = slots_[i];
    out.count += s.count.load(std::memory_order_relaxed);
    out.sum += s.sum.load(std::memory_order_relaxed);
    min = std::min(min, s.min.load(std::memory_order_relaxed));
    out.max = std::max(out.max, s.max.load(std::memory_order_relaxed));
    for (size_t b = 0; b < kNumBuckets; ++b) {
      out.buckets[b] += s.buckets[b].load(std::memory_order_relaxed);
    }
  }
  out.min = out.count > 0 ? min : 0;
  return out;
}

void Histogram::Reset() {
  for (size_t i = 0; i < kShards; ++i) {
    Slot& s = slots_[i];
    s.count.store(0, std::memory_order_relaxed);
    s.sum.store(0, std::memory_order_relaxed);
    s.min.store(~0ull, std::memory_order_relaxed);
    s.max.store(0, std::memory_order_relaxed);
    for (size_t b = 0; b < kNumBuckets; ++b) {
      s.buckets[b].store(0, std::memory_order_relaxed);
    }
  }
}

void HistogramSnapshot::Merge(const HistogramSnapshot& other) {
  if (buckets.empty()) buckets.assign(Histogram::kNumBuckets, 0);
  if (other.count == 0) return;
  min = count > 0 ? std::min(min, other.min) : other.min;
  max = std::max(max, other.max);
  count += other.count;
  sum += other.sum;
  for (size_t b = 0; b < other.buckets.size() && b < buckets.size(); ++b) {
    buckets[b] += other.buckets[b];
  }
}

uint64_t HistogramSnapshot::Quantile(double q) const {
  if (count == 0) return 0;
  if (q > 1.0) q = 1.0;
  // Nearest-rank: the smallest recording with at least ⌈q·count⌉
  // recordings at or below it.
  uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(count));
  if (static_cast<double>(rank) < q * static_cast<double>(count)) ++rank;
  if (rank < 1) rank = 1;
  // A bucket's upper bound can exceed every recording in it, so the
  // answer is capped at the observed max. It never falls below min: the
  // bucket holds a recording v >= min, and its upper bound is >= v.
  uint64_t seen = 0;
  for (size_t b = 0; b < buckets.size(); ++b) {
    seen += buckets[b];
    if (seen >= rank) return std::min(Histogram::BucketUpperBound(b), max);
  }
  return max;
}

// --------------------------------------------------------------- Registry

struct MetricsRegistry::Impl {
  mutable std::mutex mu;
  // std::map: stable iteration order == sorted by name, which makes
  // SnapshotAll()/ToJson() diffable across runs.
  std::map<std::string, std::unique_ptr<Counter>> counters;
  std::map<std::string, std::unique_ptr<Gauge>> gauges;
  std::map<std::string, std::pair<std::string, std::unique_ptr<Histogram>>>
      histograms;
};

MetricsRegistry::Impl& MetricsRegistry::impl() const {
  static Impl* impl = new Impl();  // leaked: metrics outlive static dtors
  return *impl;
}

MetricsRegistry& MetricsRegistry::Instance() {
  static MetricsRegistry* instance = new MetricsRegistry();
  return *instance;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  auto& slot = im.counters[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  auto& slot = im.gauges[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         const std::string& unit) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  auto& slot = im.histograms[name];
  if (slot.second == nullptr) {
    slot.first = unit;
    slot.second = std::make_unique<Histogram>();
  }
  return slot.second.get();
}

std::vector<MetricSnapshot> MetricsRegistry::SnapshotAll() const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  std::vector<MetricSnapshot> out;
  out.reserve(im.counters.size() + im.gauges.size() + im.histograms.size());
  for (const auto& [name, c] : im.counters) {
    MetricSnapshot m;
    m.name = name;
    m.kind = MetricSnapshot::Kind::kCounter;
    m.counter = c->Value();
    out.push_back(std::move(m));
  }
  for (const auto& [name, g] : im.gauges) {
    MetricSnapshot m;
    m.name = name;
    m.kind = MetricSnapshot::Kind::kGauge;
    m.gauge = g->Value();
    out.push_back(std::move(m));
  }
  for (const auto& [name, h] : im.histograms) {
    MetricSnapshot m;
    m.name = name;
    m.unit = h.first;
    m.kind = MetricSnapshot::Kind::kHistogram;
    m.histogram = h.second->Snapshot();
    out.push_back(std::move(m));
  }
  std::sort(out.begin(), out.end(),
            [](const MetricSnapshot& a, const MetricSnapshot& b) {
              return a.name < b.name;
            });
  return out;
}

std::string MetricsRegistry::ToJson() const {
  const std::vector<MetricSnapshot> all = SnapshotAll();
  std::string out = "{";
  char buf[256];
  for (size_t i = 0; i < all.size(); ++i) {
    const MetricSnapshot& m = all[i];
    if (i > 0) out += ",";
    out += "\n  \"" + m.name + "\": ";
    switch (m.kind) {
      case MetricSnapshot::Kind::kCounter:
        std::snprintf(buf, sizeof(buf), "%llu",
                      static_cast<unsigned long long>(m.counter));
        out += buf;
        break;
      case MetricSnapshot::Kind::kGauge:
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(m.gauge));
        out += buf;
        break;
      case MetricSnapshot::Kind::kHistogram: {
        const HistogramSnapshot& h = m.histogram;
        std::snprintf(
            buf, sizeof(buf),
            "{\"count\": %llu, \"sum\": %llu, \"min\": %llu, "
            "\"max\": %llu, \"mean\": %.1f, \"p50\": %llu, \"p95\": %llu, "
            "\"p99\": %llu, \"unit\": \"%s\"}",
            static_cast<unsigned long long>(h.count),
            static_cast<unsigned long long>(h.sum),
            static_cast<unsigned long long>(h.min),
            static_cast<unsigned long long>(h.max), h.Mean(),
            static_cast<unsigned long long>(h.P50()),
            static_cast<unsigned long long>(h.P95()),
            static_cast<unsigned long long>(h.P99()), m.unit.c_str());
        out += buf;
        break;
      }
    }
  }
  out += "\n}\n";
  return out;
}

void MetricsRegistry::ResetAllForTest() {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  for (auto& [name, c] : im.counters) c->Reset();
  for (auto& [name, g] : im.gauges) g->Reset();
  for (auto& [name, h] : im.histograms) h.second->Reset();
}

}  // namespace obs
}  // namespace xvu
