// The benchmark's metric set and its one-line JSON result.
//
// The names here are the names in BENCHMARK.json (checked by
// tests/helpers_test.cc and again by run.py on every run). Every
// untraced run prints every end-to-end metric and every traced run every
// per-layer metric, on both workloads; README.md says what each one
// measures on each workload.
#ifndef PERFBENCH_METRICS_H_
#define PERFBENCH_METRICS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct MetricSpec {
  const char* name;
  const char* unit;
};

const std::vector<MetricSpec>& EndToEndMetrics();
const std::vector<MetricSpec>& PerLayerMetrics();

/// The result line: {"correct", "attempted", "failed", "metrics"} with
/// one {"value", "unit"} object per spec, in spec order. CHECK-fails
/// when `values` misses a spec'd metric, carries one the specs do not
/// name, or holds a non-finite value.
std::string RenderResultLine(bool correct, int64_t attempted,
                             int64_t failed,
                             const std::vector<MetricSpec>& specs,
                             const std::map<std::string, double>& values);

}  // namespace perfbench

#endif  // PERFBENCH_METRICS_H_
