#include "catalog/closure.h"

#include <algorithm>
#include <deque>
#include <unordered_set>

#include "common/logging.h"

namespace webtab {

ClosureCache::ClosureCache(const CatalogView* catalog)
    : catalog_(catalog) {
  WEBTAB_CHECK(catalog != nullptr);
}

void ClosureCache::PrecomputeTypeClosures(bool include_entity_extents) {
  const int32_t num_types = catalog_->num_types();
  for (TypeId t = 0; t < num_types; ++t) {
    TypeAncestorsOfType(t);
    MinEntityDist(t);
    if (include_entity_extents) EntitiesOf(t);
  }
}

void ClosureCache::SeedFrom(const ClosureCache& prototype) {
  WEBTAB_CHECK(catalog_ == prototype.catalog_)
      << "SeedFrom requires the same catalog view";
  for (const auto& [e, dists] : prototype.ancestor_dists_) {
    ancestor_dists_[e] = dists;
  }
  for (const auto& [e, anc] : prototype.ancestors_) ancestors_[e] = anc;
  for (const auto& [t, es] : prototype.entities_of_) entities_of_[t] = es;
  for (const auto& [t, anc] : prototype.type_ancestors_) {
    type_ancestors_[t] = anc;
  }
  for (const auto& [t, d] : prototype.min_entity_dist_) {
    min_entity_dist_[t] = d;
  }
}

const std::unordered_map<TypeId, int>& ClosureCache::AncestorDistances(
    EntityId e) {
  auto it = ancestor_dists_.find(e);
  if (it != ancestor_dists_.end()) return it->second;

  // BFS upward: the ∈ edge to each direct type costs 1, then ⊆ edges cost
  // 1 each. Shortest distance wins when the DAG offers multiple paths.
  std::unordered_map<TypeId, int> dists;
  std::deque<std::pair<TypeId, int>> frontier;
  for (TypeId t : catalog_->EntityDirectTypes(e)) {
    if (!dists.count(t)) {
      dists[t] = 1;
      frontier.emplace_back(t, 1);
    }
  }
  while (!frontier.empty()) {
    auto [t, d] = frontier.front();
    frontier.pop_front();
    for (TypeId p : catalog_->TypeParents(t)) {
      auto found = dists.find(p);
      if (found == dists.end() || found->second > d + 1) {
        dists[p] = d + 1;
        frontier.emplace_back(p, d + 1);
      }
    }
  }
  return ancestor_dists_.emplace(e, std::move(dists)).first->second;
}

int32_t ClosureCache::DirectTypeSetId(EntityId e) {
  if (type_set_of_entity_.empty()) {
    type_set_of_entity_.assign(catalog_->num_entities(), -1);
  }
  int32_t& id = type_set_of_entity_[e];
  if (id < 0) {
    const std::span<const TypeId> direct = catalog_->EntityDirectTypes(e);
    std::vector<TypeId> set(direct.begin(), direct.end());
    std::sort(set.begin(), set.end());
    set.erase(std::unique(set.begin(), set.end()), set.end());
    id = type_set_ids_
             .emplace(std::move(set),
                      static_cast<int32_t>(type_set_ids_.size()))
             .first->second;
  }
  return id;
}

const std::vector<TypeId>& ClosureCache::TypeAncestors(EntityId e) {
  auto it = ancestors_.find(e);
  if (it != ancestors_.end()) return it->second;
  const auto& dists = AncestorDistances(e);
  std::vector<TypeId> out;
  out.reserve(dists.size());
  for (const auto& [t, d] : dists) out.push_back(t);
  std::sort(out.begin(), out.end());
  return ancestors_.emplace(e, std::move(out)).first->second;
}

int ClosureCache::Dist(EntityId e, TypeId t) {
  const auto& dists = AncestorDistances(e);
  auto it = dists.find(t);
  return it == dists.end() ? kUnreachable : it->second;
}

const std::vector<EntityId>& ClosureCache::EntitiesOf(TypeId t) {
  auto it = entities_of_.find(t);
  if (it != entities_of_.end()) return it->second;

  // DFS down over subtype edges collecting direct entities.
  std::unordered_set<TypeId> seen_types;
  std::unordered_set<EntityId> seen_entities;
  std::vector<TypeId> stack{t};
  seen_types.insert(t);
  while (!stack.empty()) {
    TypeId cur = stack.back();
    stack.pop_back();
    for (EntityId e : catalog_->TypeDirectEntities(cur)) {
      seen_entities.insert(e);
    }
    for (TypeId c : catalog_->TypeChildren(cur)) {
      if (seen_types.insert(c).second) stack.push_back(c);
    }
  }
  std::vector<EntityId> out(seen_entities.begin(), seen_entities.end());
  std::sort(out.begin(), out.end());
  return entities_of_.emplace(t, std::move(out)).first->second;
}

int64_t ClosureCache::EntityCount(TypeId t) {
  return static_cast<int64_t>(EntitiesOf(t).size());
}

double ClosureCache::TypeSpecificity(TypeId t) {
  int64_t total = catalog_->num_entities();
  int64_t under = EntityCount(t);
  if (under == 0) return static_cast<double>(total) + 1.0;
  return static_cast<double>(total) / static_cast<double>(under);
}

const std::vector<TypeId>& ClosureCache::TypeAncestorsOfType(TypeId t) {
  auto it = type_ancestors_.find(t);
  if (it != type_ancestors_.end()) return it->second;
  std::unordered_set<TypeId> seen{t};
  std::vector<TypeId> stack{t};
  while (!stack.empty()) {
    TypeId cur = stack.back();
    stack.pop_back();
    for (TypeId p : catalog_->TypeParents(cur)) {
      if (seen.insert(p).second) stack.push_back(p);
    }
  }
  std::vector<TypeId> out(seen.begin(), seen.end());
  std::sort(out.begin(), out.end());
  return type_ancestors_.emplace(t, std::move(out)).first->second;
}

bool ClosureCache::IsSubtypeOf(TypeId descendant, TypeId ancestor) {
  const auto& ancestors = TypeAncestorsOfType(descendant);
  return std::binary_search(ancestors.begin(), ancestors.end(), ancestor);
}

int ClosureCache::MinEntityDist(TypeId t) {
  auto it = min_entity_dist_.find(t);
  if (it != min_entity_dist_.end()) return it->second;
  int best = kUnreachable;
  // BFS down from t; the first level with a direct entity gives the min.
  std::unordered_set<TypeId> seen{t};
  std::deque<std::pair<TypeId, int>> frontier{{t, 0}};
  while (!frontier.empty()) {
    auto [cur, depth] = frontier.front();
    frontier.pop_front();
    if (depth + 1 >= best) continue;
    if (!catalog_->TypeDirectEntities(cur).empty()) {
      best = std::min(best, depth + 1);
      continue;
    }
    for (TypeId c : catalog_->TypeChildren(cur)) {
      if (seen.insert(c).second) frontier.emplace_back(c, depth + 1);
    }
  }
  min_entity_dist_[t] = best;
  return best;
}

bool ClosureCache::EntityHasType(EntityId e, TypeId t) {
  return Dist(e, t) != kUnreachable;
}

int64_t ClosureCache::ExtentOverlap(TypeId a, TypeId b) {
  const std::vector<EntityId>& ea = EntitiesOf(a);
  const std::vector<EntityId>& eb = EntitiesOf(b);
  int64_t n = 0;
  size_t i = 0;
  size_t j = 0;
  while (i < ea.size() && j < eb.size()) {
    if (ea[i] == eb[j]) {
      ++n;
      ++i;
      ++j;
    } else if (ea[i] < eb[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return n;
}

double ClosureCache::TypeOverlapRatio(TypeId t_prime, TypeId t) {
  const uint64_t key =
      (static_cast<uint64_t>(static_cast<uint32_t>(t_prime)) << 32) |
      static_cast<uint32_t>(t);
  auto it = type_overlap_.find(key);
  if (it != type_overlap_.end()) return it->second;
  const int64_t extent = EntityCount(t_prime);
  const double ratio =
      extent == 0 ? 0.0
                  : static_cast<double>(ExtentOverlap(t_prime, t)) /
                        static_cast<double>(extent);
  type_overlap_.emplace(key, ratio);
  return ratio;
}

}  // namespace webtab
