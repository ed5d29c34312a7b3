#ifndef WEBTAB_CATALOG_CATALOG_H_
#define WEBTAB_CATALOG_CATALOG_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "catalog/catalog_view.h"
#include "catalog/ids.h"

namespace webtab {

/// A type node in the subtype DAG (§3.1). Parents are supertypes
/// (T ⊆ parent); children are subtypes and direct entity instances hang off
/// `direct_entities`.
struct TypeRecord {
  std::string name;
  std::vector<std::string> lemmas;
  std::vector<TypeId> parents;
  std::vector<TypeId> children;
  std::vector<EntityId> direct_entities;
};

/// An entity with its lemmas L(E) and direct types (∈ links).
struct EntityRecord {
  std::string name;
  std::vector<std::string> lemmas;
  std::vector<TypeId> direct_types;
};

/// A binary relation B(T1, T2) with its extension (tuple store).
struct RelationRecord {
  std::string name;
  TypeId subject_type = kNa;
  TypeId object_type = kNa;
  RelationCardinality cardinality = RelationCardinality::kManyToMany;
  /// Sorted lexicographically by (subject, object); unique.
  std::vector<std::pair<EntityId, EntityId>> tuples;
};

/// Immutable in-memory catalog of types, entities and relations (paper
/// §3.1; YAGO in the paper, synthetic world here). Built once by
/// CatalogBuilder; all accessors are const and thread-safe. Implements
/// CatalogView so it is interchangeable with the zero-copy snapshot
/// backend. Reachability/closure queries that need memoization live in
/// ClosureCache.
class Catalog : public CatalogView {
 public:
  Catalog() = default;

  // Movable, not copyable (tuple stores can be large).
  Catalog(Catalog&&) = default;
  Catalog& operator=(Catalog&&) = default;
  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  int32_t num_types() const override {
    return static_cast<int32_t>(types_.size());
  }
  int32_t num_entities() const override {
    return static_cast<int32_t>(entities_.size());
  }
  int32_t num_relations() const override {
    return static_cast<int32_t>(relations_.size());
  }
  int64_t num_tuples() const override;

  const TypeRecord& type(TypeId t) const;
  const EntityRecord& entity(EntityId e) const;
  const RelationRecord& relation(RelationId b) const;

  TypeId root_type() const override { return root_type_; }

  // --- CatalogView record accessors (zero-cost over the records). ---
  std::string_view TypeName(TypeId t) const override { return type(t).name; }
  int32_t NumTypeLemmas(TypeId t) const override {
    return static_cast<int32_t>(type(t).lemmas.size());
  }
  std::string_view TypeLemma(TypeId t, int32_t i) const override {
    return type(t).lemmas[i];
  }
  std::span<const TypeId> TypeParents(TypeId t) const override {
    return type(t).parents;
  }
  std::span<const TypeId> TypeChildren(TypeId t) const override {
    return type(t).children;
  }
  std::span<const EntityId> TypeDirectEntities(TypeId t) const override {
    return type(t).direct_entities;
  }

  std::string_view EntityName(EntityId e) const override {
    return entity(e).name;
  }
  int32_t NumEntityLemmas(EntityId e) const override {
    return static_cast<int32_t>(entity(e).lemmas.size());
  }
  std::string_view EntityLemma(EntityId e, int32_t i) const override {
    return entity(e).lemmas[i];
  }
  std::span<const TypeId> EntityDirectTypes(EntityId e) const override {
    return entity(e).direct_types;
  }

  std::string_view RelationName(RelationId b) const override {
    return relation(b).name;
  }
  TypeId RelationSubjectType(RelationId b) const override {
    return relation(b).subject_type;
  }
  TypeId RelationObjectType(RelationId b) const override {
    return relation(b).object_type;
  }
  RelationCardinality RelationCardinalityOf(RelationId b) const override {
    return relation(b).cardinality;
  }
  std::span<const EntityPair> RelationTuples(RelationId b) const override {
    return relation(b).tuples;
  }

  TypeId FindTypeByName(std::string_view name) const override;
  EntityId FindEntityByName(std::string_view name) const override;
  RelationId FindRelationByName(std::string_view name) const override;

  bool HasTuple(RelationId b, EntityId e1, EntityId e2) const override;

  std::span<const EntityId> ObjectsOf(RelationId b,
                                      EntityId e1) const override;
  std::span<const EntityId> SubjectsOf(RelationId b,
                                       EntityId e2) const override;

  PairIndex pair_index() const override {
    return PairIndex{pair_keys_, pair_rel_ends_, pair_rels_,
                     pair_subject_start_};
  }

  int64_t DistinctSubjects(RelationId b) const override;
  int64_t DistinctObjects(RelationId b) const override;

 private:
  friend class CatalogBuilder;

  std::vector<TypeRecord> types_;
  std::vector<EntityRecord> entities_;
  std::vector<RelationRecord> relations_;
  TypeId root_type_ = kNa;

  std::unordered_map<std::string, TypeId> type_by_name_;
  std::unordered_map<std::string, EntityId> entity_by_name_;
  std::unordered_map<std::string, RelationId> relation_by_name_;

  // Tuple lookup indexes, built by CatalogBuilder::Build.
  // The pair index (PairIndex's layout), across all relations.
  std::vector<uint64_t> pair_keys_;
  std::vector<uint64_t> pair_rel_ends_;
  std::vector<RelationId> pair_rels_;
  std::vector<uint64_t> pair_subject_start_;
  // Per relation: forward (subject -> objects) and reverse indexes.
  std::vector<std::unordered_map<EntityId, std::vector<EntityId>>>
      objects_index_;
  std::vector<std::unordered_map<EntityId, std::vector<EntityId>>>
      subjects_index_;
};

}  // namespace webtab

#endif  // WEBTAB_CATALOG_CATALOG_H_
