#ifndef WEBTAB_CATALOG_RELATEDNESS_H_
#define WEBTAB_CATALOG_RELATEDNESS_H_

#include <span>

#include "catalog/closure.h"

namespace webtab {

/// Missing-link compatibility score for an entity E not reachable from T:
///   min_{T' : E ∈ T'} |E(T') ∩ E(T)| / |E(T')|  ×  1 / min_{E'∈E(T)} dist(E',T)
/// Large when most entities sharing E's immediate parent types are also
/// under T, hinting that the ∈ link E ∈+ T was omitted from the catalog.
/// Returns 0 when E has no direct types or E(T) is empty.
double MissingLinkScore(ClosureCache* cache, EntityId e, TypeId t);

/// The score's first factor: min over E's direct types T' of
/// ClosureCache::TypeOverlapRatio(T', T); 0 when E has no direct types.
double MinDirectTypeOverlap(ClosureCache* cache,
                            std::span<const TypeId> direct_types, TypeId t);

/// The score from its two factors, for loops that hoist them:
/// `min_overlap` (MinDirectTypeOverlap) and MinEntityDist(T).
double MissingLinkScore(double min_overlap, int min_entity_dist);

/// Relatedness between two types used as a general compatibility hint
/// (Milne-Witten-flavoured over extensions): Jaccard of E(T1), E(T2).
double TypeExtensionJaccard(ClosureCache* cache, TypeId t1, TypeId t2);

}  // namespace webtab

#endif  // WEBTAB_CATALOG_RELATEDNESS_H_
