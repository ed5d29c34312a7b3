#include "catalog/catalog.h"

#include <algorithm>

#include "common/logging.h"

namespace webtab {

std::string_view RelationCardinalityName(RelationCardinality c) {
  switch (c) {
    case RelationCardinality::kManyToMany:
      return "many-to-many";
    case RelationCardinality::kOneToMany:
      return "one-to-many";
    case RelationCardinality::kManyToOne:
      return "many-to-one";
    case RelationCardinality::kOneToOne:
      return "one-to-one";
  }
  return "unknown";
}

int64_t PairIndex::Find(EntityId e1, EntityId e2) const {
  if (e1 < 0 || static_cast<uint64_t>(e1) + 1 >= subject_start.size()) {
    return -1;
  }
  const uint64_t key = Key(e1, e2);
  const auto begin = keys.begin() + static_cast<int64_t>(subject_start[e1]);
  const auto end = keys.begin() + static_cast<int64_t>(subject_start[e1 + 1]);
  const auto it = std::lower_bound(begin, end, key);
  if (it == end || *it != key) return -1;
  return it - keys.begin();
}

Status BuildPairSubjectStart(std::span<const uint64_t> keys,
                             int32_t num_entities,
                             std::vector<uint64_t>* subject_start) {
  const uint64_t limit = static_cast<uint64_t>(std::max(num_entities, 0));
  for (size_t i = 0; i < keys.size(); ++i) {
    if (i > 0 && keys[i] <= keys[i - 1]) {
      return Status::ParseError("pair keys not strictly ascending");
    }
    if ((keys[i] >> 32) >= limit || (keys[i] & 0xFFFFFFFFu) >= limit) {
      return Status::ParseError("pair keys: entity out of range");
    }
  }
  subject_start->assign(limit + 1, 0);
  for (const uint64_t key : keys) ++(*subject_start)[(key >> 32) + 1];
  for (uint64_t e = 0; e < limit; ++e) {
    (*subject_start)[e + 1] += (*subject_start)[e];
  }
  return Status::Ok();
}

std::vector<std::pair<RelationId, bool>> CatalogView::RelationsBetween(
    EntityId e1, EntityId e2) const {
  std::vector<std::pair<RelationId, bool>> out;
  const PairIndex pairs = pair_index();
  const int64_t fwd = pairs.Find(e1, e2);
  if (fwd >= 0) {
    for (RelationId r : pairs.Relations(fwd)) out.emplace_back(r, false);
  }
  const int64_t rev = pairs.Find(e2, e1);
  if (rev >= 0) {
    for (RelationId r : pairs.Relations(rev)) out.emplace_back(r, true);
  }
  return out;
}

int64_t Catalog::num_tuples() const {
  int64_t n = 0;
  for (const auto& r : relations_) n += static_cast<int64_t>(r.tuples.size());
  return n;
}

const TypeRecord& Catalog::type(TypeId t) const {
  WEBTAB_CHECK(ValidType(t)) << "bad type id " << t;
  return types_[t];
}

const EntityRecord& Catalog::entity(EntityId e) const {
  WEBTAB_CHECK(ValidEntity(e)) << "bad entity id " << e;
  return entities_[e];
}

const RelationRecord& Catalog::relation(RelationId b) const {
  WEBTAB_CHECK(ValidRelation(b)) << "bad relation id " << b;
  return relations_[b];
}

TypeId Catalog::FindTypeByName(std::string_view name) const {
  auto it = type_by_name_.find(std::string(name));
  return it == type_by_name_.end() ? kNa : it->second;
}

EntityId Catalog::FindEntityByName(std::string_view name) const {
  auto it = entity_by_name_.find(std::string(name));
  return it == entity_by_name_.end() ? kNa : it->second;
}

RelationId Catalog::FindRelationByName(std::string_view name) const {
  auto it = relation_by_name_.find(std::string(name));
  return it == relation_by_name_.end() ? kNa : it->second;
}

bool Catalog::HasTuple(RelationId b, EntityId e1, EntityId e2) const {
  if (!ValidRelation(b)) return false;
  const PairIndex pairs = pair_index();
  const int64_t i = pairs.Find(e1, e2);
  if (i < 0) return false;
  const std::span<const RelationId> rels = pairs.Relations(i);
  return std::binary_search(rels.begin(), rels.end(), b);
}

std::span<const EntityId> Catalog::ObjectsOf(RelationId b,
                                             EntityId e1) const {
  if (!ValidRelation(b)) return {};
  const auto& index = objects_index_[b];
  auto it = index.find(e1);
  return it == index.end() ? std::span<const EntityId>()
                           : std::span<const EntityId>(it->second);
}

std::span<const EntityId> Catalog::SubjectsOf(RelationId b,
                                              EntityId e2) const {
  if (!ValidRelation(b)) return {};
  const auto& index = subjects_index_[b];
  auto it = index.find(e2);
  return it == index.end() ? std::span<const EntityId>()
                           : std::span<const EntityId>(it->second);
}

int64_t Catalog::DistinctSubjects(RelationId b) const {
  WEBTAB_CHECK(ValidRelation(b));
  return static_cast<int64_t>(objects_index_[b].size());
}

int64_t Catalog::DistinctObjects(RelationId b) const {
  WEBTAB_CHECK(ValidRelation(b));
  return static_cast<int64_t>(subjects_index_[b].size());
}

}  // namespace webtab
