#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

std::optional<double> NearestRank(std::vector<double> samples, double p,
                                  int64_t min_beyond) {
  const int64_t n = static_cast<int64_t>(samples.size());
  if (n == 0 || !(p > 0.0) || p > 100.0) return std::nullopt;
  // Integer rank arithmetic in hundredths of a percent: 0.99 * 1000 is
  // 990.0000000000001 in binary floating point, which ceil() would turn
  // into rank 991.
  const int64_t hundredths = std::llround(p * 100.0);
  int64_t rank = (hundredths * n + 9999) / 10000;
  rank = std::clamp<int64_t>(rank, 1, n);
  if (n - rank < min_beyond) return std::nullopt;
  auto nth = samples.begin() + (rank - 1);
  std::nth_element(samples.begin(), nth, samples.end());
  return *nth;
}

std::optional<double> Median(std::vector<double> samples) {
  return NearestRank(std::move(samples), 50.0, /*min_beyond=*/0);
}

double Sum(const std::vector<double>& samples) {
  double total = 0.0;
  for (double s : samples) total += s;
  return total;
}

}  // namespace perfbench
