#include "catalog/relatedness.h"

#include <algorithm>

namespace webtab {

double MissingLinkScore(ClosureCache* cache, EntityId e, TypeId t) {
  return MissingLinkScore(
      MinDirectTypeOverlap(cache, cache->catalog().EntityDirectTypes(e), t),
      cache->MinEntityDist(t));
}

double MinDirectTypeOverlap(ClosureCache* cache,
                            std::span<const TypeId> direct_types, TypeId t) {
  if (direct_types.empty()) return 0.0;
  double min_ratio = 1.0;
  for (TypeId t_prime : direct_types) {
    min_ratio = std::min(min_ratio, cache->TypeOverlapRatio(t_prime, t));
  }
  return min_ratio;
}

double MissingLinkScore(double min_overlap, int min_entity_dist) {
  if (min_entity_dist >= kUnreachable) return 0.0;
  return min_overlap / static_cast<double>(min_entity_dist);
}

double TypeExtensionJaccard(ClosureCache* cache, TypeId t1, TypeId t2) {
  const int64_t a = cache->EntityCount(t1);
  const int64_t b = cache->EntityCount(t2);
  if (a == 0 && b == 0) return 0.0;
  const int64_t inter = cache->ExtentOverlap(t1, t2);
  const int64_t uni = a + b - inter;
  return uni == 0 ? 0.0
                  : static_cast<double>(inter) / static_cast<double>(uni);
}

}  // namespace webtab
