// Tests of the benchmark's own helpers: exact percentiles, span self
// time, and the metric names against BENCHMARK.json.
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "metrics.h"
#include "serve/json.h"
#include "spans.h"
#include "stats.h"

namespace perfbench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // descending on purpose
  return v;
}

TEST(NearestRankTest, MatchesHandComputedRanks) {
  // n = 20: p50 is rank ceil(10) = 10; p25 rank 5; p10 rank 2.
  EXPECT_EQ(*NearestRank(OneTo(20), 50.0), 10.0);
  EXPECT_EQ(*NearestRank(OneTo(20), 25.0), 5.0);
  EXPECT_EQ(*NearestRank(OneTo(20), 10.0), 2.0);
  // n = 21: p50 is rank ceil(10.5) = 11.
  EXPECT_EQ(*NearestRank(OneTo(21), 50.0), 11.0);
  // n = 1000: p90 rank 900, p99 rank 990 (not 991: 0.99 * 1000 in
  // doubles is 990.0000000000001).
  EXPECT_EQ(*NearestRank(OneTo(1000), 90.0), 900.0);
  EXPECT_EQ(*NearestRank(OneTo(1000), 99.0), 990.0);
  // n = 200: p95 rank 190, exactly ten beyond.
  EXPECT_EQ(*NearestRank(OneTo(200), 95.0), 190.0);
  // Unsorted input with ties.
  EXPECT_EQ(*NearestRank({3, 1, 2, 2, 5, 4, 2, 9, 7, 6, 8, 1, 1, 1, 1, 1,
                          1, 1, 1, 1},
                         50.0, 0),
            1.0);
  EXPECT_EQ(*Median({4.0, 1.0, 3.0, 2.0}), 2.0);
  EXPECT_EQ(*Median({7.5}), 7.5);
}

TEST(NearestRankTest, RefusesTailsWithFewerThanTenSamplesBeyond) {
  // p90 of 20 samples is rank 18: two beyond.
  EXPECT_FALSE(NearestRank(OneTo(20), 90.0).has_value());
  // p99 needs 1000 samples: 999 put rank 990 nine from the top.
  EXPECT_FALSE(NearestRank(OneTo(999), 99.0).has_value());
  EXPECT_TRUE(NearestRank(OneTo(1000), 99.0).has_value());
  // p90 needs 100.
  EXPECT_FALSE(NearestRank(OneTo(99), 90.0).has_value());
  EXPECT_TRUE(NearestRank(OneTo(100), 90.0).has_value());
  // Empty samples and out-of-range percentiles.
  EXPECT_FALSE(NearestRank({}, 50.0, 0).has_value());
  EXPECT_FALSE(Median({}).has_value());
  EXPECT_FALSE(NearestRank(OneTo(50), 0.0, 0).has_value());
  EXPECT_FALSE(NearestRank(OneTo(50), 100.5, 0).has_value());
  EXPECT_EQ(*NearestRank(OneTo(50), 100.0, 0), 50.0);
}

Span At(const char* name, int64_t start, int64_t end, int32_t parent) {
  Span s;
  s.name = name;
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  return s;
}

TEST(SpanSelfTimeTest, NestedAndSiblingSpans) {
  SpanRecorder rec;
  // root [0,100): children a [10,30) and b [40,90); b has child c
  // [50,70); c has child d [55,60).
  const int32_t root = rec.Add(At("root", 0, 100, -1));
  const int32_t a = rec.Add(At("a", 10, 30, root));
  const int32_t b = rec.Add(At("b", 40, 90, root));
  const int32_t c = rec.Add(At("c", 50, 70, b));
  const int32_t d = rec.Add(At("d", 55, 60, c));
  const std::vector<int64_t> self = rec.SelfTimesNs();
  EXPECT_EQ(self[root], 100 - 20 - 50);  // grandchildren are not subtracted
  EXPECT_EQ(self[a], 20);
  EXPECT_EQ(self[b], 50 - 20);
  EXPECT_EQ(self[c], 20 - 5);
  EXPECT_EQ(self[d], 5);
}

TEST(SpanSelfTimeTest, OverlappingAndOverhangingChildrenCountOnce) {
  SpanRecorder rec;
  const int32_t root = rec.Add(At("root", 100, 200, -1));
  rec.Add(At("x", 110, 150, root));
  rec.Add(At("y", 140, 160, root));   // overlaps x by 10
  rec.Add(At("z", 190, 230, root));   // runs past the parent's end
  rec.Add(At("w", 120, 130, root));   // inside x
  const std::vector<int64_t> self = rec.SelfTimesNs();
  // Covered: [110,160) = 50 and [190,200) = 10.
  EXPECT_EQ(self[root], 100 - 60);
  const int32_t other_root = rec.Add(At("root", 300, 310, -1));
  EXPECT_EQ(rec.SelfTimesNs()[other_root], 10);
}

TEST(SpanSelfTimeTest, RecordedNestingAndGroupingByName) {
  SpanRecorder rec;
  {
    ScopedSpan outer(&rec, "outer", 7);
    { ScopedSpan inner(&rec, "inner", 7); }
    { ScopedSpan inner(&rec, "inner", 7); }
  }
  ASSERT_EQ(rec.spans().size(), 3u);
  EXPECT_EQ(rec.spans()[1].parent, 0);
  EXPECT_EQ(rec.spans()[2].parent, 0);
  EXPECT_EQ(rec.spans()[0].request, 7u);
  const auto self = rec.SelfMillisByName();
  const auto whole = rec.MillisByName();
  ASSERT_EQ(self.at("inner").size(), 2u);
  EXPECT_NEAR(self.at("outer")[0],
              whole.at("outer")[0] - whole.at("inner")[0] -
                  whole.at("inner")[1],
              1e-9);
  // A null recorder records nothing.
  { ScopedSpan ignored(nullptr, "never", 1); }
  EXPECT_EQ(rec.spans().size(), 3u);
}

std::set<std::string> Names(const std::vector<MetricSpec>& specs) {
  std::set<std::string> names;
  for (const MetricSpec& s : specs) names.insert(s.name);
  return names;
}

/// name -> unit for one BENCHMARK.json metric list.
std::map<std::string, std::string> Listed(const webtab::serve::Json& doc,
                                          const char* key) {
  std::map<std::string, std::string> out;
  const webtab::serve::Json* list = doc.Find(key);
  if (list == nullptr) return out;
  for (const webtab::serve::Json& m : list->items()) {
    out[m.GetString("name")] = m.GetString("unit");
  }
  return out;
}

TEST(MetricNamesTest, EmittedNamesEqualBenchmarkJson) {
  std::ifstream in(PERFBENCH_BENCHMARK_JSON);
  ASSERT_TRUE(in.good()) << PERFBENCH_BENCHMARK_JSON;
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  auto doc = webtab::serve::Json::Parse(text);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  for (const auto& [key, specs] :
       {std::pair{"end_to_end", &EndToEndMetrics()},
        std::pair{"per_layer", &PerLayerMetrics()}}) {
    const auto listed = Listed(*doc, key);
    std::map<std::string, double> values;
    std::map<std::string, std::string> units;
    for (const MetricSpec& s : *specs) {
      values[s.name] = 1.5;
      units[s.name] = s.unit;
    }
    EXPECT_EQ(units, listed) << key;
    // What RenderResultLine emits is exactly that set, with units.
    auto line = webtab::serve::Json::Parse(
        RenderResultLine(true, 3, 0, *specs, values));
    ASSERT_TRUE(line.ok());
    std::map<std::string, std::string> emitted;
    for (const auto& [name, metric] : line->Find("metrics")->members()) {
      emitted[name] = metric.GetString("unit");
      EXPECT_EQ(metric.GetNumber("value"), 1.5);
    }
    EXPECT_EQ(emitted, listed) << key;
    EXPECT_EQ(Names(*specs).size(), specs->size()) << "duplicate names";
  }
}

TEST(MetricNamesTest, ResultLineHasTheContractKeys) {
  std::map<std::string, double> values;
  for (const MetricSpec& s : EndToEndMetrics()) values[s.name] = 2.0;
  auto line = webtab::serve::Json::Parse(
      RenderResultLine(false, 10, 2, EndToEndMetrics(), values));
  ASSERT_TRUE(line.ok());
  std::vector<std::string> keys;
  for (const auto& [key, value] : line->members()) keys.push_back(key);
  EXPECT_EQ(keys, (std::vector<std::string>{"correct", "attempted", "failed",
                                            "metrics"}));
  EXPECT_FALSE(line->GetBool("correct", true));
  EXPECT_EQ(line->GetNumber("attempted"), 10);
  EXPECT_EQ(line->GetNumber("failed"), 2);
}

TEST(MetricNamesDeathTest, MissingOrExtraMetricIsRefused) {
  std::map<std::string, double> values;
  for (const MetricSpec& s : EndToEndMetrics()) values[s.name] = 2.0;
  values.erase("setup_s");
  EXPECT_DEATH(RenderResultLine(true, 1, 0, EndToEndMetrics(), values),
               "metric");
  values["setup_s"] = 1.0;
  values["surprise"] = 1.0;
  EXPECT_DEATH(RenderResultLine(true, 1, 0, EndToEndMetrics(), values),
               "metric");
}

}  // namespace
}  // namespace perfbench
