#ifndef XVU_OBS_METRICS_H_
#define XVU_OBS_METRICS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace xvu {
namespace obs {

/// Process-wide observability switches. Hot paths gate every recording on
/// one relaxed atomic load (the same budget as a disarmed fail point);
/// when a switch is off the site costs nothing else. Metrics default on,
/// tracing (src/obs/trace.h) defaults off — see ObsConfig in obs.h.
bool MetricsEnabled();
void SetMetricsEnabled(bool on);

/// Monotone event counter, sharded across a fixed number of cache-line-
/// aligned slots so concurrent recorders touch different lines. Each Add
/// is one relaxed fetch_add on the caller's slot; Value() merges on read.
class Counter {
 public:
  static constexpr size_t kShards = 16;

  void Add(uint64_t n = 1);
  uint64_t Value() const;
  /// Test/bench support: zeroes every slot. Racy against concurrent
  /// recorders by design (a reset is a measurement boundary, not a
  /// synchronization point).
  void Reset();

 private:
  struct alignas(64) Slot {
    std::atomic<uint64_t> v{0};
  };
  Slot slots_[kShards];
};

/// Last-writer-wins instantaneous value (queue depth, live pins, winner
/// lane). Single atomic: gauges are low-rate by nature.
class Gauge {
 public:
  void Set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void Add(int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  int64_t Value() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

/// Mergeable point-in-time view of a histogram: per-bucket counts plus
/// count/sum/min/max. Quantile queries run against this (merged) view, so
/// a recording never blocks a reader and vice versa.
struct HistogramSnapshot {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t min = 0;  ///< 0 when count == 0
  uint64_t max = 0;
  std::vector<uint64_t> buckets;  ///< indexed by Histogram::BucketIndex

  /// Associative, commutative merge (obs_test proves both).
  void Merge(const HistogramSnapshot& other);

  /// Nearest-rank quantile, resolved to the upper bound of the bucket
  /// holding the rank-⌈q·count⌉ recording and clamped to the observed
  /// [min, max]. Exactly min(BucketUpperBound(BucketIndex(v*)), max) for
  /// the oracle value v* — the contract obs_test checks against a
  /// sorted-vector oracle. q is clamped to (0, 1]; returns 0 on an empty
  /// histogram.
  uint64_t Quantile(double q) const;
  uint64_t P50() const { return Quantile(0.50); }
  uint64_t P95() const { return Quantile(0.95); }
  uint64_t P99() const { return Quantile(0.99); }
  double Mean() const {
    return count > 0 ? static_cast<double>(sum) / static_cast<double>(count)
                     : 0.0;
  }
};

/// Log-bucketed histogram of non-negative integer recordings (latencies
/// in nanoseconds, sizes in rows/bytes). Buckets grow geometrically with
/// 2^kSubBits sub-buckets per power of two, so any recording lands in a
/// bucket whose width is at most 1/2^kSubBits (12.5%) of its value —
/// quantiles are exact to that resolution, and values < 2^(kSubBits+1)
/// are exact outright. Recording is sharded like Counter: a few relaxed
/// atomics on the caller's slot, no locks ever.
class Histogram {
 public:
  static constexpr int kSubBits = 3;
  /// Largest index is BucketIndex(UINT64_MAX) = ((63-kSubBits)+1)<<kSubBits
  /// + (2^kSubBits - 1); one past that.
  static constexpr size_t kNumBuckets =
      static_cast<size_t>(64 - kSubBits + 1) << kSubBits;
  static constexpr size_t kShards = 16;

  /// Bucket of `v`: values below 2^(kSubBits+1) map to themselves;
  /// above, the top kSubBits+1 bits select (octave, sub-bucket).
  /// Monotone in v.
  static size_t BucketIndex(uint64_t v);
  /// Largest value mapping to `index` (inverse of BucketIndex, upper
  /// edge). Quantiles report this bound, so they never under-estimate.
  static uint64_t BucketUpperBound(size_t index);

  Histogram();

  void Record(uint64_t v);
  /// Merged view across shards. Safe against concurrent recorders (the
  /// snapshot is a relaxed read per slot; counts are monotone).
  HistogramSnapshot Snapshot() const;
  void Reset();

 private:
  struct alignas(64) Slot {
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> sum{0};
    std::atomic<uint64_t> min{~0ull};
    std::atomic<uint64_t> max{0};
    std::atomic<uint64_t> buckets[kNumBuckets] = {};
  };
  std::unique_ptr<Slot[]> slots_;
};

/// One named metric in a SnapshotAll() dump.
struct MetricSnapshot {
  enum class Kind { kCounter, kGauge, kHistogram };
  std::string name;
  std::string unit;  ///< histograms only ("ns", "rows", ...)
  Kind kind = Kind::kCounter;
  uint64_t counter = 0;
  int64_t gauge = 0;
  HistogramSnapshot histogram;
};

/// Process-wide registry of named metrics. Lookup interns the metric on
/// first use and returns a stable pointer — call sites cache it (the
/// XVU_OBS_* macros do this with a function-local static), so the
/// registry mutex is touched once per site, not per recording. Names use
/// dotted lower_snake paths ("xvu.batch.ops"); the full catalogue lives
/// in docs/observability.md.
class MetricsRegistry {
 public:
  static MetricsRegistry& Instance();

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name,
                          const std::string& unit = "");

  /// Merged point-in-time view of every registered metric, sorted by
  /// name (stable across calls — the JSON diff of two snapshots is
  /// meaningful).
  std::vector<MetricSnapshot> SnapshotAll() const;

  /// Stable JSON object keyed by metric name. Counters render as
  /// integers, gauges as integers, histograms as
  /// {"count","sum","min","max","mean","p50","p95","p99","unit"}.
  std::string ToJson() const;

  /// Zeroes every registered metric's value, keeping the (cached)
  /// pointers valid. Tests and benches use this as a measurement
  /// boundary.
  void ResetAllForTest();

 private:
  MetricsRegistry() = default;
  struct Impl;
  Impl& impl() const;
};

/// RAII latency recorder: measures steady-clock nanoseconds from
/// construction to destruction into a histogram. The clock is read only
/// while metrics are enabled at construction time.
class ScopedLatency {
 public:
  explicit ScopedLatency(Histogram* h) {
    if (h != nullptr && MetricsEnabled()) {
      h_ = h;
      t0_ = std::chrono::steady_clock::now();
    }
  }
  ~ScopedLatency() {
    if (h_ != nullptr) {
      h_->Record(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0_)
              .count()));
    }
  }
  ScopedLatency(const ScopedLatency&) = delete;
  ScopedLatency& operator=(const ScopedLatency&) = delete;

 private:
  Histogram* h_ = nullptr;
  std::chrono::steady_clock::time_point t0_;
};

}  // namespace obs
}  // namespace xvu

/// Hot-path macros. Disabled cost: one relaxed atomic load plus a
/// not-taken branch (bench_batch_pipeline part (f) gates the product of
/// all sites a batch crosses under 2% of the batch, the fail-point bar).
/// The registry lookup runs once per site (function-local static).
#define XVU_OBS_COUNT(name, n)                                          \
  do {                                                                  \
    if (::xvu::obs::MetricsEnabled()) {                                 \
      static ::xvu::obs::Counter* _xvu_obs_c =                          \
          ::xvu::obs::MetricsRegistry::Instance().GetCounter(name);     \
      _xvu_obs_c->Add(n);                                               \
    }                                                                   \
  } while (0)

#define XVU_OBS_GAUGE_SET(name, v)                                      \
  do {                                                                  \
    if (::xvu::obs::MetricsEnabled()) {                                 \
      static ::xvu::obs::Gauge* _xvu_obs_g =                            \
          ::xvu::obs::MetricsRegistry::Instance().GetGauge(name);       \
      _xvu_obs_g->Set(v);                                               \
    }                                                                   \
  } while (0)

#define XVU_OBS_GAUGE_ADD(name, d)                                      \
  do {                                                                  \
    if (::xvu::obs::MetricsEnabled()) {                                 \
      static ::xvu::obs::Gauge* _xvu_obs_g =                            \
          ::xvu::obs::MetricsRegistry::Instance().GetGauge(name);       \
      _xvu_obs_g->Add(d);                                               \
    }                                                                   \
  } while (0)

#define XVU_OBS_RECORD(name, unit, v)                                   \
  do {                                                                  \
    if (::xvu::obs::MetricsEnabled()) {                                 \
      static ::xvu::obs::Histogram* _xvu_obs_h =                        \
          ::xvu::obs::MetricsRegistry::Instance().GetHistogram(name,    \
                                                               unit);   \
      _xvu_obs_h->Record(v);                                            \
    }                                                                   \
  } while (0)

/// Records seconds (a double, as UpdateStats keeps them) into a
/// nanosecond histogram.
#define XVU_OBS_RECORD_SECONDS(name, seconds)                           \
  XVU_OBS_RECORD(name, "ns",                                            \
                 static_cast<uint64_t>((seconds) > 0 ? (seconds)*1e9 : 0))

/// Scoped latency: times the enclosing scope into histogram `name`.
#define XVU_OBS_LATENCY(var, name)                                      \
  static ::xvu::obs::Histogram* _xvu_obs_lh_##var =                     \
      ::xvu::obs::MetricsRegistry::Instance().GetHistogram(name, "ns"); \
  ::xvu::obs::ScopedLatency var(_xvu_obs_lh_##var)

#endif  // XVU_OBS_METRICS_H_
