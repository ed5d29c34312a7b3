#include "catalog/catalog_builder.h"

#include <algorithm>
#include <queue>

#include "common/logging.h"
#include "common/string_util.h"

namespace webtab {

namespace {
bool Contains(const std::vector<int32_t>& v, int32_t x) {
  return std::find(v.begin(), v.end(), x) != v.end();
}
}  // namespace

CatalogBuilder::CatalogBuilder() {
  TypeId root = AddType("entity");
  WEBTAB_CHECK(root == 0);
  catalog_.root_type_ = root;
}

TypeId CatalogBuilder::AddType(std::string_view name) {
  WEBTAB_CHECK(!built_);
  std::string key(name);
  auto it = catalog_.type_by_name_.find(key);
  if (it != catalog_.type_by_name_.end()) return it->second;
  TypeId id = catalog_.num_types();
  catalog_.types_.push_back(TypeRecord{.name = key,
                                       .lemmas = {},
                                       .parents = {},
                                       .children = {},
                                       .direct_entities = {}});
  catalog_.type_by_name_.emplace(std::move(key), id);
  return id;
}

Status CatalogBuilder::AddTypeLemma(TypeId t, std::string_view lemma) {
  if (!catalog_.ValidType(t)) {
    return Status::InvalidArgument("no such type: " + std::to_string(t));
  }
  auto& lemmas = catalog_.types_[t].lemmas;
  std::string s(lemma);
  if (std::find(lemmas.begin(), lemmas.end(), s) == lemmas.end()) {
    lemmas.push_back(std::move(s));
  }
  return Status::Ok();
}

Status CatalogBuilder::AddSubtype(TypeId child, TypeId parent) {
  if (!catalog_.ValidType(child) || !catalog_.ValidType(parent)) {
    return Status::InvalidArgument("no such type in subtype edge");
  }
  if (child == parent) {
    return Status::InvalidArgument("self-loop subtype: " +
                                   catalog_.types_[child].name);
  }
  if (!Contains(catalog_.types_[child].parents, parent)) {
    catalog_.types_[child].parents.push_back(parent);
    catalog_.types_[parent].children.push_back(child);
  }
  return Status::Ok();
}

EntityId CatalogBuilder::AddEntity(std::string_view name) {
  WEBTAB_CHECK(!built_);
  std::string key(name);
  auto it = catalog_.entity_by_name_.find(key);
  if (it != catalog_.entity_by_name_.end()) return it->second;
  EntityId id = catalog_.num_entities();
  catalog_.entities_.push_back(
      EntityRecord{.name = key, .lemmas = {}, .direct_types = {}});
  catalog_.entity_by_name_.emplace(std::move(key), id);
  return id;
}

Status CatalogBuilder::AddEntityLemma(EntityId e, std::string_view lemma) {
  if (!catalog_.ValidEntity(e)) {
    return Status::InvalidArgument("no such entity: " + std::to_string(e));
  }
  auto& lemmas = catalog_.entities_[e].lemmas;
  std::string s(lemma);
  if (std::find(lemmas.begin(), lemmas.end(), s) == lemmas.end()) {
    lemmas.push_back(std::move(s));
  }
  return Status::Ok();
}

Status CatalogBuilder::AddEntityType(EntityId e, TypeId t) {
  if (!catalog_.ValidEntity(e)) {
    return Status::InvalidArgument("no such entity: " + std::to_string(e));
  }
  if (!catalog_.ValidType(t)) {
    return Status::InvalidArgument("no such type: " + std::to_string(t));
  }
  if (!Contains(catalog_.entities_[e].direct_types, t)) {
    catalog_.entities_[e].direct_types.push_back(t);
    catalog_.types_[t].direct_entities.push_back(e);
  }
  return Status::Ok();
}

RelationId CatalogBuilder::AddRelation(std::string_view name,
                                       TypeId subject_type,
                                       TypeId object_type,
                                       RelationCardinality cardinality) {
  WEBTAB_CHECK(!built_);
  std::string key(name);
  auto it = catalog_.relation_by_name_.find(key);
  if (it != catalog_.relation_by_name_.end()) return it->second;
  RelationId id = catalog_.num_relations();
  catalog_.relations_.push_back(RelationRecord{.name = key,
                                               .subject_type = subject_type,
                                               .object_type = object_type,
                                               .cardinality = cardinality,
                                               .tuples = {}});
  catalog_.relation_by_name_.emplace(std::move(key), id);
  return id;
}

Status CatalogBuilder::AddTuple(RelationId b, EntityId e1, EntityId e2) {
  if (!catalog_.ValidRelation(b)) {
    return Status::InvalidArgument("no such relation: " + std::to_string(b));
  }
  if (!catalog_.ValidEntity(e1) || !catalog_.ValidEntity(e2)) {
    return Status::InvalidArgument("tuple references unknown entity");
  }
  catalog_.relations_[b].tuples.emplace_back(e1, e2);
  return Status::Ok();
}

bool CatalogBuilder::RemoveEntityType(EntityId e, TypeId t) {
  if (!catalog_.ValidEntity(e) || !catalog_.ValidType(t)) return false;
  auto& types = catalog_.entities_[e].direct_types;
  auto it = std::find(types.begin(), types.end(), t);
  if (it == types.end()) return false;
  types.erase(it);
  auto& ents = catalog_.types_[t].direct_entities;
  ents.erase(std::find(ents.begin(), ents.end(), e));
  return true;
}

bool CatalogBuilder::RemoveSubtype(TypeId child, TypeId parent) {
  if (!catalog_.ValidType(child) || !catalog_.ValidType(parent)) return false;
  auto& parents = catalog_.types_[child].parents;
  auto it = std::find(parents.begin(), parents.end(), parent);
  if (it == parents.end()) return false;
  parents.erase(it);
  auto& children = catalog_.types_[parent].children;
  children.erase(std::find(children.begin(), children.end(), child));
  return true;
}

Result<Catalog> CatalogBuilder::Build() {
  WEBTAB_CHECK(!built_) << "Build() called twice";

  // Attach parentless types (other than root) to the root type.
  for (TypeId t = 1; t < catalog_.num_types(); ++t) {
    if (catalog_.types_[t].parents.empty()) {
      catalog_.types_[t].parents.push_back(catalog_.root_type_);
      catalog_.types_[catalog_.root_type_].children.push_back(t);
    }
  }

  // Validate acyclicity with Kahn's algorithm over subtype edges
  // (parent -> child).
  std::vector<int32_t> indegree(catalog_.num_types(), 0);
  for (TypeId t = 0; t < catalog_.num_types(); ++t) {
    indegree[t] = static_cast<int32_t>(catalog_.types_[t].parents.size());
  }
  std::queue<TypeId> frontier;
  for (TypeId t = 0; t < catalog_.num_types(); ++t) {
    if (indegree[t] == 0) frontier.push(t);
  }
  int32_t visited = 0;
  while (!frontier.empty()) {
    TypeId t = frontier.front();
    frontier.pop();
    ++visited;
    for (TypeId c : catalog_.types_[t].children) {
      if (--indegree[c] == 0) frontier.push(c);
    }
  }
  if (visited != catalog_.num_types()) {
    return Status::FailedPrecondition("subtype graph contains a cycle");
  }

  // Every entity must have at least one lemma and, per §3.1, a type; we
  // tolerate typeless entities (incomplete catalogs) but give them a name
  // lemma so the index can still find them.
  for (EntityId e = 0; e < catalog_.num_entities(); ++e) {
    if (catalog_.entities_[e].lemmas.empty()) {
      catalog_.entities_[e].lemmas.push_back(catalog_.entities_[e].name);
    }
  }
  for (TypeId t = 0; t < catalog_.num_types(); ++t) {
    if (catalog_.types_[t].lemmas.empty()) {
      catalog_.types_[t].lemmas.push_back(
          ReplaceAll(catalog_.types_[t].name, "_", " "));
    }
  }

  // Sort and dedup tuples; build lookup indexes.
  std::vector<std::pair<uint64_t, RelationId>> pair_entries;
  catalog_.objects_index_.resize(catalog_.num_relations());
  catalog_.subjects_index_.resize(catalog_.num_relations());
  for (RelationId b = 0; b < catalog_.num_relations(); ++b) {
    auto& rel = catalog_.relations_[b];
    if (!catalog_.ValidType(rel.subject_type) ||
        !catalog_.ValidType(rel.object_type)) {
      return Status::FailedPrecondition("relation " + rel.name +
                                        " has an invalid schema type");
    }
    std::sort(rel.tuples.begin(), rel.tuples.end());
    rel.tuples.erase(std::unique(rel.tuples.begin(), rel.tuples.end()),
                     rel.tuples.end());
    for (const auto& [e1, e2] : rel.tuples) {
      pair_entries.emplace_back(PairIndex::Key(e1, e2), b);
      catalog_.objects_index_[b][e1].push_back(e2);
      catalog_.subjects_index_[b][e2].push_back(e1);
    }
  }

  // Pair index: a stable sort keeps each key's relations in ascending id
  // order (the entries were appended by ascending relation).
  std::stable_sort(pair_entries.begin(), pair_entries.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  for (size_t i = 0; i < pair_entries.size(); ++i) {
    if (i == 0 || pair_entries[i].first != pair_entries[i - 1].first) {
      if (i > 0) catalog_.pair_rel_ends_.push_back(i);
      catalog_.pair_keys_.push_back(pair_entries[i].first);
    }
    catalog_.pair_rels_.push_back(pair_entries[i].second);
  }
  if (!pair_entries.empty()) {
    catalog_.pair_rel_ends_.push_back(pair_entries.size());
  }
  WEBTAB_CHECK_OK(BuildPairSubjectStart(catalog_.pair_keys_,
                                        catalog_.num_entities(),
                                        &catalog_.pair_subject_start_));

  built_ = true;
  return std::move(catalog_);
}

}  // namespace webtab
