// Exact order statistics over raw latency samples.
//
// Percentiles are computed from the samples themselves, never from
// histogram buckets: obs::Histogram's sqrt(2)-wide buckets put three
// identical serving runs' annotate p50 at 65.5, 16.4 and 23.2 ms.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstdint>
#include <optional>
#include <vector>

namespace perfbench {

/// A tail percentile is reported only when at least this many samples
/// rank above it; below that it describes one or two outliers.
inline constexpr int64_t kMinSamplesBeyond = 10;

/// Nearest-rank percentile: the sample at 1-based rank ceil(p/100 * n)
/// of the ascending order, for p in (0, 100] (p is taken to two
/// decimals). nullopt when `samples` is empty or fewer than `min_beyond`
/// samples rank above the chosen one.
std::optional<double> NearestRank(std::vector<double> samples, double p,
                                  int64_t min_beyond = kMinSamplesBeyond);

/// Nearest-rank median; nullopt only for an empty sample (a median
/// needs no tail support beyond the half above it).
std::optional<double> Median(std::vector<double> samples);

double Sum(const std::vector<double>& samples);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
