// TimeSeriesStore tests: ring wraparound, counter-reset handling,
// gauge rollups, histogram merge-of-rollups (windowed percentiles keep
// the one-bucket-factor guarantee across any wrap point), the
// max_series cap, and the fixed-memory contract.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/timeseries.h"

namespace webtab {
namespace obs {
namespace {

constexpr double kGrowth = 1.4142135623730951;  // sqrt(2)

MetricDump CounterDump(const std::string& name, int64_t value) {
  MetricDump d;
  d.name = name;
  d.kind = MetricDump::Kind::kCounter;
  d.value = value;
  return d;
}

MetricDump GaugeDump(const std::string& name, int64_t value) {
  MetricDump d;
  d.name = name;
  d.kind = MetricDump::Kind::kGauge;
  d.value = value;
  return d;
}

/// Histogram dump built from raw samples (cumulative, like a registry
/// histogram snapshot at one instant).
MetricDump HistDump(const std::string& name,
                    const std::vector<double>& samples) {
  MetricDump d;
  d.name = name;
  d.kind = MetricDump::Kind::kHistogram;
  d.histogram.buckets.assign(Histogram::kBuckets, 0);
  for (double v : samples) {
    d.histogram.buckets[Histogram::BucketIndex(v)] += 1;
    d.histogram.count += 1;
    d.histogram.sum += v;
  }
  return d;
}

TEST(TimeSeriesStoreTest, CounterDeltasAndRate) {
  TimeSeriesOptions options;
  options.tick_seconds = 1.0;
  options.capacity = 8;
  TimeSeriesStore store(options);

  // Raw counter: 0, 10, 25, 25 -> deltas 0, 10, 15, 0.
  for (int64_t raw : {0, 10, 25, 25}) {
    store.Tick({CounterDump("c", raw)});
  }
  SeriesRollup r;
  ASSERT_TRUE(store.QueryOne("c", 8.0, &r));
  EXPECT_EQ(r.kind, MetricDump::Kind::kCounter);
  EXPECT_EQ(r.samples, 4);
  EXPECT_EQ(r.delta, 25);
  EXPECT_DOUBLE_EQ(r.rate_per_s, 25.0 / 4.0);
  EXPECT_EQ(r.last, 25);  // last raw value, not last delta

  // A narrower window only sees the trailing deltas.
  ASSERT_TRUE(store.QueryOne("c", 2.0, &r));
  EXPECT_EQ(r.samples, 2);
  EXPECT_EQ(r.delta, 15);
}

TEST(TimeSeriesStoreTest, CounterResetBecomesNewRawValue) {
  TimeSeriesOptions options;
  options.capacity = 8;
  TimeSeriesStore store(options);

  // The process restarted between ticks 2 and 3: raw drops 100 -> 7.
  // The post-reset raw value is the best available delta (everything
  // recorded before the reset in that tick is lost either way); it must
  // not go negative.
  for (int64_t raw : {50, 100, 7, 9}) {
    store.Tick({CounterDump("c", raw)});
  }
  SeriesRollup r;
  ASSERT_TRUE(store.QueryOne("c", 8.0, &r));
  EXPECT_EQ(r.delta, 50 + (100 - 50) + 7 + (9 - 7));
  EXPECT_GE(r.min, 0);
}

TEST(TimeSeriesStoreTest, RingWraparoundKeepsTrailingWindow) {
  TimeSeriesOptions options;
  options.capacity = 4;
  TimeSeriesStore store(options);

  // 10 ticks of +1 deltas into a 4-slot ring: only the last 4 survive.
  for (int64_t t = 1; t <= 10; ++t) {
    store.Tick({CounterDump("c", t)});
  }
  EXPECT_EQ(store.ticks(), 10);
  // Clamped to retention, also when the window's tick count does not
  // fit an int.
  for (double window :
       {1000.0, 3e9, std::numeric_limits<double>::infinity()}) {
    SeriesRollup r;
    ASSERT_TRUE(store.QueryOne("c", window, &r)) << window;
    EXPECT_EQ(r.samples, 4) << window;
    EXPECT_EQ(r.delta, 4) << window;
    EXPECT_EQ(r.last, 10) << window;
  }
}

TEST(TimeSeriesStoreTest, GaugeRollup) {
  TimeSeriesOptions options;
  options.capacity = 8;
  TimeSeriesStore store(options);
  for (int64_t v : {5, 3, 9, 7}) {
    store.Tick({GaugeDump("g", v)});
  }
  SeriesRollup r;
  ASSERT_TRUE(store.QueryOne("g", 8.0, &r));
  EXPECT_EQ(r.kind, MetricDump::Kind::kGauge);
  EXPECT_EQ(r.last, 7);
  EXPECT_EQ(r.min, 3);
  EXPECT_EQ(r.max, 9);
  EXPECT_DOUBLE_EQ(r.avg, (5 + 3 + 9 + 7) / 4.0);
}

TEST(TimeSeriesStoreTest, LateSeriesOnlyCountsItsOwnTicks) {
  TimeSeriesOptions options;
  options.capacity = 16;
  TimeSeriesStore store(options);
  store.Tick({CounterDump("old", 1)});
  store.Tick({CounterDump("old", 2)});
  // "young" first appears at tick 3.
  store.Tick({CounterDump("old", 3), CounterDump("young", 40)});
  store.Tick({CounterDump("old", 4), CounterDump("young", 45)});
  SeriesRollup r;
  ASSERT_TRUE(store.QueryOne("young", 16.0, &r));
  EXPECT_EQ(r.samples, 2);
  EXPECT_EQ(r.delta, 45);  // first-seen raw + one delta
  ASSERT_TRUE(store.QueryOne("old", 16.0, &r));
  EXPECT_EQ(r.samples, 4);
  EXPECT_EQ(r.delta, 4);
}

TEST(TimeSeriesStoreTest, HistogramWindowMergeAcrossWrap) {
  // The headline guarantee: merging per-tick bucket deltas back into a
  // windowed HistogramSnapshot reproduces the exact bucket counts of
  // just that window — so windowed percentiles keep the same
  // one-bucket-factor (sqrt(2)) bound as live snapshots — no matter
  // where the ring wrapped.
  TimeSeriesOptions options;
  options.tick_seconds = 1.0;
  options.capacity = 5;  // deliberately tiny: lots of wrap points
  TimeSeriesStore store(options);

  // Cumulative samples; each tick appends a few more. Values are spread
  // across distinct buckets.
  std::vector<double> all;
  std::vector<std::vector<double>> per_tick;
  for (int t = 0; t < 13; ++t) {
    std::vector<double> added;
    for (int j = 0; j <= t % 3; ++j) {
      added.push_back(0.002 * std::pow(1.9, (t * 3 + j) % 20));
    }
    per_tick.push_back(added);
    all.insert(all.end(), added.begin(), added.end());
    store.Tick({HistDump("h", all)});
  }

  // Reference: the exact histogram of the last `w` ticks' samples.
  for (int w = 1; w <= 5; ++w) {
    HistogramSnapshot want;
    want.buckets.assign(Histogram::kBuckets, 0);
    for (size_t t = per_tick.size() - w; t < per_tick.size(); ++t) {
      for (double v : per_tick[t]) {
        want.buckets[Histogram::BucketIndex(v)] += 1;
        want.count += 1;
        want.sum += v;
      }
    }
    SeriesRollup r;
    ASSERT_TRUE(store.QueryOne("h", static_cast<double>(w), &r));
    EXPECT_EQ(r.samples, w);
    EXPECT_EQ(r.hist.count, want.count) << "window " << w;
    EXPECT_NEAR(r.hist.sum, want.sum, 1e-6 * (1.0 + want.sum))
        << "window " << w;
    ASSERT_EQ(r.hist.buckets.size(), want.buckets.size());
    for (size_t i = 0; i < want.buckets.size(); ++i) {
      EXPECT_EQ(r.hist.buckets[i], want.buckets[i])
          << "window " << w << " bucket " << i;
    }
    // Percentile property: the bucketed estimate is an upper bucket
    // edge within one growth factor of every exact sample rank.
    std::vector<double> samples;
    for (size_t t = per_tick.size() - w; t < per_tick.size(); ++t) {
      samples.insert(samples.end(), per_tick[t].begin(),
                     per_tick[t].end());
    }
    std::sort(samples.begin(), samples.end());
    for (double p : {0.5, 0.95}) {
      uint64_t rank = static_cast<uint64_t>(
          std::ceil(p * static_cast<double>(samples.size())));
      if (rank < 1) rank = 1;
      const double exact = samples[rank - 1];
      const double est = r.hist.Percentile(p);
      EXPECT_GE(est * (1.0 + 1e-12), exact);
      EXPECT_LE(est / kGrowth, exact * (1.0 + 1e-12));
    }
  }
}

TEST(TimeSeriesStoreTest, MaxSeriesCapDropsAndCounts) {
  TimeSeriesOptions options;
  options.capacity = 4;
  options.max_series = 2;
  TimeSeriesStore store(options);
  store.Tick({CounterDump("a", 1), CounterDump("b", 1),
              CounterDump("c", 1)});
  store.Tick({CounterDump("a", 2), CounterDump("b", 2),
              CounterDump("c", 2)});
  EXPECT_EQ(store.series_count(), 2u);
  EXPECT_EQ(store.dropped_updates(), 2);
  SeriesRollup r;
  EXPECT_TRUE(store.QueryOne("a", 4.0, &r));
  EXPECT_TRUE(store.QueryOne("b", 4.0, &r));
  EXPECT_FALSE(store.QueryOne("c", 4.0, &r));
}

TEST(TimeSeriesStoreTest, MemoryIsFixedAfterFirstSight) {
  TimeSeriesOptions options;
  options.capacity = 600;
  TimeSeriesStore store(options);
  store.Tick({CounterDump("c", 1), GaugeDump("g", 1),
              HistDump("h", {1.0, 2.0})});
  const size_t after_first = store.MemoryBytes();
  EXPECT_GT(after_first, 0u);
  std::vector<double> samples;
  for (int t = 2; t <= 1500; ++t) {  // well past a full wrap
    samples.push_back(0.5 * t);
    store.Tick({CounterDump("c", t), GaugeDump("g", t),
                HistDump("h", samples)});
  }
  EXPECT_EQ(store.MemoryBytes(), after_first);
  EXPECT_EQ(store.series_count(), 3u);
}

TEST(TimeSeriesStoreTest, QueryReturnsSortedSeries) {
  TimeSeriesStore store;
  store.Tick({CounterDump("z", 1), CounterDump("a", 1),
              GaugeDump("m", 5)});
  std::vector<SeriesRollup> all = store.Query(60.0);
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].name, "a");
  EXPECT_EQ(all[1].name, "m");
  EXPECT_EQ(all[2].name, "z");
}

TEST(TimeSeriesStoreTest, EmptyStoreAndUnknownSeries) {
  TimeSeriesStore store;
  EXPECT_TRUE(store.Query(60.0).empty());
  SeriesRollup r;
  EXPECT_FALSE(store.QueryOne("nope", 60.0, &r));
  EXPECT_EQ(store.ticks(), 0);
  EXPECT_EQ(store.MemoryBytes(), 0u);
}

}  // namespace
}  // namespace obs
}  // namespace webtab
