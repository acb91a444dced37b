#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/obs/metrics.h"

namespace xvu {
namespace obs {
namespace {

// The quantile contract under test: Quantile(q) resolves the rank-⌈q·n⌉
// recording to its bucket's upper bound, clamped to the largest
// recording, so the expected value for a sorted oracle vector is
// computable without touching histogram internals.
uint64_t OracleQuantile(const std::vector<uint64_t>& sorted, double q) {
  uint64_t rank =
      static_cast<uint64_t>(std::ceil(q * static_cast<double>(sorted.size())));
  if (rank < 1) rank = 1;
  uint64_t bound = Histogram::BucketUpperBound(
      Histogram::BucketIndex(sorted[rank - 1]));
  return std::min(bound, sorted.back());
}

TEST(HistogramBuckets, SmallValuesAreExact) {
  // Values below 2^(kSubBits+1) = 16 map to themselves: bucket index ==
  // value == upper bound, so quantiles on small latencies are exact.
  for (uint64_t v = 0; v < (2ull << Histogram::kSubBits); ++v) {
    EXPECT_EQ(Histogram::BucketIndex(v), v);
    EXPECT_EQ(Histogram::BucketUpperBound(static_cast<size_t>(v)), v);
  }
}

TEST(HistogramBuckets, IndexIsMonotoneAndInverseOfUpperBound) {
  Rng rng(42);
  size_t prev = 0;
  for (uint64_t v = 1; v != 0 && v < (1ull << 62); v += 1 + rng.Below(v)) {
    size_t idx = Histogram::BucketIndex(v);
    EXPECT_GE(idx, prev) << "BucketIndex must be monotone, v=" << v;
    prev = idx;
    uint64_t upper = Histogram::BucketUpperBound(idx);
    EXPECT_GE(upper, v);
    // The upper bound is the largest value still mapping to idx.
    EXPECT_EQ(Histogram::BucketIndex(upper), idx);
    if (upper != ~0ull) {
      EXPECT_GT(Histogram::BucketIndex(upper + 1), idx);
    }
  }
}

TEST(HistogramBuckets, RelativeErrorBoundedByOneEighth) {
  // A bucket's width is 2^(exp-kSubBits) <= v/8 for v >= 16, so the
  // reported upper bound never overshoots a recording by more than 12.5%.
  Rng rng(43);
  for (int i = 0; i < 10000; ++i) {
    uint64_t v = 16 + rng.Below(1ull << 50);
    uint64_t upper = Histogram::BucketUpperBound(Histogram::BucketIndex(v));
    EXPECT_LE(upper - v, v / 8) << "v=" << v << " upper=" << upper;
  }
}

TEST(Histogram, QuantilesMatchSortedVectorOracle) {
  Rng rng(7);
  for (size_t n : {size_t{1}, size_t{2}, size_t{10}, size_t{1000}}) {
    Histogram h;
    std::vector<uint64_t> vals;
    for (size_t i = 0; i < n; ++i) {
      // Mix of exact small values and log-bucketed large ones.
      uint64_t v = rng.Chance(0.3) ? rng.Below(16)
                                   : rng.Below(1ull << (8 + rng.Below(40)));
      vals.push_back(v);
      h.Record(v);
    }
    std::sort(vals.begin(), vals.end());
    HistogramSnapshot s = h.Snapshot();
    ASSERT_EQ(s.count, n);
    EXPECT_EQ(s.min, vals.front());
    EXPECT_EQ(s.max, vals.back());
    uint64_t sum = 0;
    for (uint64_t v : vals) sum += v;
    EXPECT_EQ(s.sum, sum);
    for (double q : {0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0}) {
      EXPECT_EQ(s.Quantile(q), OracleQuantile(vals, q))
          << "n=" << n << " q=" << q;
    }
  }
}

TEST(Histogram, QuantilesNeverExceedTheObservedMax) {
  // Every recording sits strictly below its bucket's upper bound, so an
  // unclamped quantile would report more than was ever recorded.
  std::vector<uint64_t> vals = {100, 1000, 116461};
  Histogram h;
  for (uint64_t v : vals) {
    ASSERT_GT(Histogram::BucketUpperBound(Histogram::BucketIndex(v)), v);
    h.Record(v);
  }
  HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.max, vals.back());
  for (double q : {0.01, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(s.Quantile(q), OracleQuantile(vals, q)) << "q=" << q;
    EXPECT_GE(s.Quantile(q), s.min) << "q=" << q;
    EXPECT_LE(s.Quantile(q), s.max) << "q=" << q;
  }
  // The top rank resolves to the max itself, not its bucket's bound.
  EXPECT_EQ(s.Quantile(1.0), vals.back());
  EXPECT_EQ(s.P99(), vals.back());
}

TEST(Histogram, EmptySnapshotIsAllZero) {
  Histogram h;
  HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.min, 0u);
  EXPECT_EQ(s.max, 0u);
  EXPECT_EQ(s.Quantile(0.5), 0u);
  EXPECT_EQ(s.Mean(), 0.0);
}

TEST(HistogramSnapshot, MergeIsAssociativeAndCommutative) {
  Rng rng(11);
  Histogram a, b, c;
  std::vector<uint64_t> all;
  for (int i = 0; i < 300; ++i) {
    uint64_t v = rng.Below(1ull << 30);
    all.push_back(v);
    (i % 3 == 0 ? a : i % 3 == 1 ? b : c).Record(v);
  }
  std::sort(all.begin(), all.end());

  auto eq = [](const HistogramSnapshot& x, const HistogramSnapshot& y) {
    return x.count == y.count && x.sum == y.sum && x.min == y.min &&
           x.max == y.max && x.buckets == y.buckets;
  };

  // (a ∪ b) ∪ c == a ∪ (b ∪ c) == c ∪ b ∪ a.
  HistogramSnapshot ab_c = a.Snapshot();
  ab_c.Merge(b.Snapshot());
  ab_c.Merge(c.Snapshot());
  HistogramSnapshot bc = b.Snapshot();
  bc.Merge(c.Snapshot());
  HistogramSnapshot a_bc = a.Snapshot();
  a_bc.Merge(bc);
  HistogramSnapshot cba = c.Snapshot();
  cba.Merge(b.Snapshot());
  cba.Merge(a.Snapshot());
  EXPECT_TRUE(eq(ab_c, a_bc));
  EXPECT_TRUE(eq(ab_c, cba));

  // Merging with an empty (default-constructed) snapshot is the identity
  // in both directions.
  HistogramSnapshot with_empty = a.Snapshot();
  with_empty.Merge(HistogramSnapshot{});
  EXPECT_TRUE(eq(with_empty, a.Snapshot()));
  HistogramSnapshot from_empty;
  from_empty.Merge(a.Snapshot());
  EXPECT_TRUE(eq(from_empty, a.Snapshot()));

  // The merged view answers quantiles as if every value had been
  // recorded into one histogram.
  for (double q : {0.5, 0.95, 0.99}) {
    EXPECT_EQ(ab_c.Quantile(q), OracleQuantile(all, q)) << "q=" << q;
  }
}

TEST(Histogram, ConcurrentRecordersLoseNothing) {
  // Sharded recording fuzz: every thread's values must land in the
  // merged snapshot exactly once — count, sum, extrema, and quantiles
  // all agree with a sorted oracle of the union.
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  Histogram h;
  std::vector<std::vector<uint64_t>> recorded(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, &recorded, t] {
      Rng rng(1000 + static_cast<uint64_t>(t));
      for (int i = 0; i < kPerThread; ++i) {
        uint64_t v = rng.Below(1ull << (4 + rng.Below(36)));
        recorded[static_cast<size_t>(t)].push_back(v);
        h.Record(v);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  std::vector<uint64_t> all;
  for (const auto& per : recorded) {
    all.insert(all.end(), per.begin(), per.end());
  }
  std::sort(all.begin(), all.end());
  uint64_t sum = 0;
  for (uint64_t v : all) sum += v;

  HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, all.size());
  EXPECT_EQ(s.sum, sum);
  EXPECT_EQ(s.min, all.front());
  EXPECT_EQ(s.max, all.back());
  for (double q : {0.5, 0.95, 0.99}) {
    EXPECT_EQ(s.Quantile(q), OracleQuantile(all, q)) << "q=" << q;
  }
}

TEST(Counter, ConcurrentAddsSumExactly) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr int kAdds = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kAdds; ++i) c.Add(2);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.Value(), static_cast<uint64_t>(kThreads) * kAdds * 2);
  c.Reset();
  EXPECT_EQ(c.Value(), 0u);
}

TEST(Registry, LookupInternsAndReturnsStablePointers) {
  MetricsRegistry& reg = MetricsRegistry::Instance();
  Counter* c1 = reg.GetCounter("obs_test.stable");
  Counter* c2 = reg.GetCounter("obs_test.stable");
  EXPECT_EQ(c1, c2);
  Gauge* g1 = reg.GetGauge("obs_test.stable");  // separate namespace
  EXPECT_EQ(g1, reg.GetGauge("obs_test.stable"));
  Histogram* h1 = reg.GetHistogram("obs_test.stable.h", "ns");
  EXPECT_EQ(h1, reg.GetHistogram("obs_test.stable.h"));
}

TEST(Registry, SnapshotAllIsSortedAndJsonIsWellFormed) {
  MetricsRegistry& reg = MetricsRegistry::Instance();
  reg.GetCounter("obs_test.json.b")->Add(3);
  reg.GetCounter("obs_test.json.a")->Add(1);
  reg.GetGauge("obs_test.json.g")->Set(-7);
  reg.GetHistogram("obs_test.json.h", "rows")->Record(12);

  std::vector<MetricSnapshot> all = reg.SnapshotAll();
  ASSERT_FALSE(all.empty());
  for (size_t i = 1; i < all.size(); ++i) {
    EXPECT_LE(all[i - 1].name, all[i].name) << "SnapshotAll must be sorted";
  }

  const std::string json = reg.ToJson();
  // Minimal structural validation: brace/quote balance and the metrics
  // we just touched rendered with their values.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '"') % 2, 0);
  EXPECT_NE(json.find("\"obs_test.json.a\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"obs_test.json.g\": -7"), std::string::npos);
  EXPECT_NE(json.find("\"obs_test.json.h\""), std::string::npos);
  EXPECT_NE(json.find("\"unit\": \"rows\""), std::string::npos);
}

TEST(Registry, DisablingMetricsStopsMacroRecording) {
  MetricsRegistry& reg = MetricsRegistry::Instance();
  Counter* c = reg.GetCounter("obs_test.gate");
  const uint64_t before = c->Value();
  SetMetricsEnabled(false);
  XVU_OBS_COUNT("obs_test.gate", 5);
  EXPECT_EQ(c->Value(), before);
  SetMetricsEnabled(true);
  XVU_OBS_COUNT("obs_test.gate", 5);
  EXPECT_EQ(c->Value(), before + 5);
}

TEST(Registry, ResetAllZeroesEveryMetricKeepingPointers) {
  MetricsRegistry& reg = MetricsRegistry::Instance();
  Counter* c = reg.GetCounter("obs_test.reset.c");
  Gauge* g = reg.GetGauge("obs_test.reset.g");
  Histogram* h = reg.GetHistogram("obs_test.reset.h", "ns");
  c->Add(9);
  g->Set(9);
  h->Record(9);
  reg.ResetAllForTest();
  EXPECT_EQ(c->Value(), 0u);
  EXPECT_EQ(g->Value(), 0);
  EXPECT_EQ(h->Snapshot().count, 0u);
  // The cached pointers survive the reset and keep recording.
  c->Add(1);
  EXPECT_EQ(reg.GetCounter("obs_test.reset.c")->Value(), 1u);
}

TEST(ScopedLatency, RecordsOneSampleWhileEnabled) {
  Histogram h;
  { ScopedLatency lat(&h); }
  EXPECT_EQ(h.Snapshot().count, 1u);
  SetMetricsEnabled(false);
  { ScopedLatency lat(&h); }
  EXPECT_EQ(h.Snapshot().count, 1u);
  SetMetricsEnabled(true);
}

}  // namespace
}  // namespace obs
}  // namespace xvu
