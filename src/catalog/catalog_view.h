#ifndef WEBTAB_CATALOG_CATALOG_VIEW_H_
#define WEBTAB_CATALOG_CATALOG_VIEW_H_

#include <cstdint>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "catalog/ids.h"
#include "common/status.h"

namespace webtab {

/// Cardinality declarations live with the catalog records (§3.1); shared
/// between the in-memory catalog and snapshot views.
enum class RelationCardinality {
  kManyToMany = 0,
  kOneToMany = 1,   // One subject, many objects per subject; object unique.
  kManyToOne = 2,   // Each subject has at most one object.
  kOneToOne = 3,
};

std::string_view RelationCardinalityName(RelationCardinality c);

/// A relation tuple (subject, object). Layout-compatible with the
/// std::pair<EntityId, EntityId> the in-memory catalog stores, so both
/// backends can expose tuple spans without copying.
using EntityPair = std::pair<EntityId, EntityId>;
static_assert(sizeof(EntityPair) == 2 * sizeof(EntityId),
              "EntityPair must be two packed ids for zero-copy snapshots");

/// The catalog's global pair index, one sorted layout for both backends:
/// keys[i] = (uint64(e1) << 32) | uint32(e2), strictly ascending over
/// every tuple of every relation; the relations holding tuple i are
/// Relations(i), ascending by id; and subject e's run — the keys whose
/// subject is e, so its objects ascend — is [subject_start[e],
/// subject_start[e + 1]), found in O(1).
struct PairIndex {
  std::span<const uint64_t> keys;
  std::span<const uint64_t> rel_ends;  // [keys.size()], CSR ends into rels.
  std::span<const RelationId> rels;
  std::span<const uint64_t> subject_start;  // [num_entities + 1].

  static uint64_t Key(EntityId e1, EntityId e2) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(e1)) << 32) |
           static_cast<uint32_t>(e2);
  }
  static EntityId ObjectOf(uint64_t key) {
    return static_cast<EntityId>(static_cast<uint32_t>(key));
  }
  std::span<const RelationId> Relations(uint64_t i) const {
    const uint64_t begin = i == 0 ? 0 : rel_ends[i - 1];
    return rels.subspan(begin, rel_ends[i] - begin);
  }
  /// Index of tuple (e1, e2) in keys, or -1 when no relation holds it.
  int64_t Find(EntityId e1, EntityId e2) const;
};

/// Builds PairIndex::subject_start for `keys` over `num_entities`
/// entities, after one O(n) pass proving what the runs assume: keys
/// strictly ascending and both entity halves in [0, num_entities).
/// ParseError otherwise (a snapshot's pair index comes from the file).
Status BuildPairSubjectStart(std::span<const uint64_t> keys,
                             int32_t num_entities,
                             std::vector<uint64_t>* subject_start);

/// Read-only access to a catalog of types, entities and relations
/// (paper §3.1). Two implementations exist: the in-memory `Catalog`
/// produced by CatalogBuilder / the synthetic world generator, and the
/// zero-copy `SnapshotCatalogView` over an mmap'd snapshot file. Every
/// consumer of catalog data (closure cache, feature computer, factor
/// builder, candidate generation, search) works against this interface so
/// the two backends are interchangeable and provably equivalent.
///
/// Accessors return spans / string_views into backing storage that lives
/// as long as the view. All methods are const and thread-safe.
class CatalogView {
 public:
  virtual ~CatalogView() = default;

  virtual int32_t num_types() const = 0;
  virtual int32_t num_entities() const = 0;
  virtual int32_t num_relations() const = 0;
  virtual int64_t num_tuples() const = 0;

  /// The synthetic root type reaching all others (§3.1). Always id 0 in
  /// catalogs produced by CatalogBuilder.
  virtual TypeId root_type() const = 0;

  bool ValidType(TypeId t) const { return t >= 0 && t < num_types(); }
  bool ValidEntity(EntityId e) const { return e >= 0 && e < num_entities(); }
  bool ValidRelation(RelationId b) const {
    return b >= 0 && b < num_relations();
  }

  // --- Types ---
  virtual std::string_view TypeName(TypeId t) const = 0;
  virtual int32_t NumTypeLemmas(TypeId t) const = 0;
  virtual std::string_view TypeLemma(TypeId t, int32_t i) const = 0;
  virtual std::span<const TypeId> TypeParents(TypeId t) const = 0;
  virtual std::span<const TypeId> TypeChildren(TypeId t) const = 0;
  virtual std::span<const EntityId> TypeDirectEntities(TypeId t) const = 0;

  // --- Entities ---
  virtual std::string_view EntityName(EntityId e) const = 0;
  virtual int32_t NumEntityLemmas(EntityId e) const = 0;
  virtual std::string_view EntityLemma(EntityId e, int32_t i) const = 0;
  virtual std::span<const TypeId> EntityDirectTypes(EntityId e) const = 0;

  // --- Relations ---
  virtual std::string_view RelationName(RelationId b) const = 0;
  virtual TypeId RelationSubjectType(RelationId b) const = 0;
  virtual TypeId RelationObjectType(RelationId b) const = 0;
  virtual RelationCardinality RelationCardinalityOf(RelationId b) const = 0;
  /// Tuples sorted lexicographically by (subject, object); unique.
  virtual std::span<const EntityPair> RelationTuples(RelationId b) const = 0;
  /// Number of distinct subjects / objects appearing in relation `b`.
  virtual int64_t DistinctSubjects(RelationId b) const = 0;
  virtual int64_t DistinctObjects(RelationId b) const = 0;

  // --- Name lookups; kNa when absent. ---
  virtual TypeId FindTypeByName(std::string_view name) const = 0;
  virtual EntityId FindEntityByName(std::string_view name) const = 0;
  virtual RelationId FindRelationByName(std::string_view name) const = 0;

  // --- Tuple queries ---
  /// True if relation `b` contains tuple (e1, e2).
  virtual bool HasTuple(RelationId b, EntityId e1, EntityId e2) const = 0;

  /// Objects E2 with b(e1, E2), sorted ascending; empty if none.
  virtual std::span<const EntityId> ObjectsOf(RelationId b,
                                              EntityId e1) const = 0;

  /// Subjects E1 with b(E1, e2), sorted ascending; empty if none.
  virtual std::span<const EntityId> SubjectsOf(RelationId b,
                                               EntityId e2) const = 0;

  /// All relations containing (e1, e2) as a tuple, in either role order:
  /// result pairs are (relation, swapped) where swapped=true means the
  /// tuple is b(e2, e1). Relations listed in ascending id order per
  /// direction (forward first). Reads pair_index().
  std::vector<std::pair<RelationId, bool>> RelationsBetween(
      EntityId e1, EntityId e2) const;

  /// The global pair index over every relation's tuples. Both backends
  /// hold it in the same sorted layout (see PairIndex); the candidate
  /// relation vote intersects its per-subject runs directly.
  virtual PairIndex pair_index() const = 0;

  // --- Checked accessors (hostile-id safe) ---
  // The raw accessors above CHECK-abort on an out-of-range id. That is
  // the right contract for kernels whose ids come from this same view,
  // and fatal for a serving worker handed an id from a request payload
  // or from an annotation computed against a different snapshot
  // generation. These validate first and surface kInvalidArgument
  // instead of taking the process down. Both backends inherit them.
  Result<std::string_view> CheckedTypeName(TypeId t) const {
    if (!ValidType(t)) return BadId("type", t);
    return TypeName(t);
  }
  Result<std::string_view> CheckedTypeLemma(TypeId t, int32_t i) const {
    if (!ValidType(t)) return BadId("type", t);
    if (i < 0 || i >= NumTypeLemmas(t)) return BadId("type lemma", i);
    return TypeLemma(t, i);
  }
  Result<std::string_view> CheckedEntityName(EntityId e) const {
    if (!ValidEntity(e)) return BadId("entity", e);
    return EntityName(e);
  }
  Result<std::string_view> CheckedEntityLemma(EntityId e, int32_t i) const {
    if (!ValidEntity(e)) return BadId("entity", e);
    if (i < 0 || i >= NumEntityLemmas(e)) return BadId("entity lemma", i);
    return EntityLemma(e, i);
  }
  Result<std::string_view> CheckedRelationName(RelationId b) const {
    if (!ValidRelation(b)) return BadId("relation", b);
    return RelationName(b);
  }
  Result<std::span<const EntityPair>> CheckedRelationTuples(
      RelationId b) const {
    if (!ValidRelation(b)) return BadId("relation", b);
    return RelationTuples(b);
  }

 private:
  static Status BadId(std::string_view kind, int64_t id) {
    return Status::InvalidArgument(std::string(kind) + " id " +
                                   std::to_string(id) + " out of range");
  }
};

}  // namespace webtab

#endif  // WEBTAB_CATALOG_CATALOG_VIEW_H_
