#ifndef WEBTAB_CATALOG_CLOSURE_H_
#define WEBTAB_CATALOG_CLOSURE_H_

#include <map>
#include <unordered_map>
#include <vector>

#include "catalog/catalog_view.h"

namespace webtab {

/// Memoized reachability queries over a Catalog (paper §3.1 notation):
///   T(E)        — all type ancestors of entity E,
///   E(T)        — all entities transitively reachable from type T,
///   dist(E, T)  — shortest ∈-then-⊆* path length (paper §4.2.3),
///   |E|/|E(T)|  — IDF-style type specificity.
///
/// The catalog is large and each table touches a small slice of it, so
/// closures are computed lazily and cached (mirrors the paper's cost
/// profile where index probes dominate, §6.1.2). Not thread-safe; use one
/// instance per worker.
class ClosureCache {
 public:
  /// `catalog` must outlive this cache. Works against any CatalogView
  /// backend (in-memory build or mmap'd snapshot).
  explicit ClosureCache(const CatalogView* catalog);

  ClosureCache(const ClosureCache&) = delete;
  ClosureCache& operator=(const ClosureCache&) = delete;

  const CatalogView& catalog() const { return *catalog_; }

  /// Eagerly fills the type-level caches for every type in the catalog:
  /// ancestor sets (TypeAncestorsOfType) and min entity distances, plus —
  /// when `include_entity_extents` — the E(T) extents and counts. The
  /// serving layer runs this once per loaded snapshot so first-request
  /// latency matches steady state, then clones the result into each
  /// worker via SeedFrom (ROADMAP: closures were rebuilt lazily per
  /// worker). Entity-keyed caches stay lazy: tables touch a small slice
  /// of the entity set.
  void PrecomputeTypeClosures(bool include_entity_extents = false);

  /// Copies every cached closure from `prototype` into this cache,
  /// replacing same-key entries. Both caches must wrap the SAME catalog
  /// view object (checked), so the copied vectors are exactly what this
  /// cache would have computed. Lazy fills continue on top of the seed.
  void SeedFrom(const ClosureCache& prototype);

  /// All type ancestors of E (every T with E ∈+ T), unsorted but stable.
  const std::vector<TypeId>& TypeAncestors(EntityId e);

  /// Map from ancestor type to min edge distance from E (the ∈ edge counts
  /// as 1). Types not present are unreachable.
  const std::unordered_map<TypeId, int>& AncestorDistances(EntityId e);

  /// Dense id of E's direct-type set, sorted and de-duplicated: two
  /// entities get the same id iff their sets are equal. AncestorDistances
  /// is a BFS from the direct types and MinDirectTypeOverlap a min over
  /// them, so everything f3 reads of E is a function of this id. Ids are
  /// assigned lazily, at most one per entity, and not copied by SeedFrom.
  int32_t DirectTypeSetId(EntityId e);

  /// dist(E, T); kUnreachable when E ∉+ T.
  int Dist(EntityId e, TypeId t);

  /// E(T): sorted entity ids transitively under T.
  const std::vector<EntityId>& EntitiesOf(TypeId t);

  /// |E(T)|, without materializing when already cached.
  int64_t EntityCount(TypeId t);

  /// IDF-style specificity |E| / |E(T)| (≥ 1 for nonempty types); returns
  /// |E| + 1 for empty types (maximally specific, per the convention that
  /// rarer is more specific).
  double TypeSpecificity(TypeId t);

  /// True iff descendant ⊆* ancestor in the type DAG (reflexive).
  bool IsSubtypeOf(TypeId descendant, TypeId ancestor);

  /// All supertypes of t including t itself.
  const std::vector<TypeId>& TypeAncestorsOfType(TypeId t);

  /// min over E' ∈ E(T) of dist(E', T); kUnreachable for empty types.
  /// (Denominator of the missing-link feature, §4.2.3.)
  int MinEntityDist(TypeId t);

  /// True iff e ∈+ t.
  bool EntityHasType(EntityId e, TypeId t);

  /// |E(a) ∩ E(b)| by a merge of the two sorted extensions (not
  /// memoized).
  int64_t ExtentOverlap(TypeId a, TypeId b);

  /// |E(T') ∩ E(T)| / |E(T')|; 0 when E(T') is empty (§4.2.3, "Missing
  /// links"). The ratio depends on the two types alone, while the
  /// missing-link score asks for it once per (cell, candidate entity,
  /// candidate type), so it is memoized per ordered pair. The memo holds
  /// at most (distinct direct types seen) × (candidate types seen)
  /// entries, fills lazily per worker and is not copied by SeedFrom.
  double TypeOverlapRatio(TypeId t_prime, TypeId t);

 private:
  const CatalogView* catalog_;

  std::unordered_map<EntityId, std::unordered_map<TypeId, int>>
      ancestor_dists_;
  std::unordered_map<EntityId, std::vector<TypeId>> ancestors_;
  std::unordered_map<TypeId, std::vector<EntityId>> entities_of_;
  std::unordered_map<TypeId, std::vector<TypeId>> type_ancestors_;
  std::unordered_map<TypeId, int> min_entity_dist_;
  /// (t_prime << 32 | t) -> TypeOverlapRatio(t_prime, t).
  std::unordered_map<uint64_t, double> type_overlap_;
  /// Entity -> DirectTypeSetId, -1 until asked; and set -> id.
  std::vector<int32_t> type_set_of_entity_;
  std::map<std::vector<TypeId>, int32_t> type_set_ids_;
};

}  // namespace webtab

#endif  // WEBTAB_CATALOG_CLOSURE_H_
