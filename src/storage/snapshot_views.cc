#include "storage/snapshot_views.h"

#include <algorithm>
#include <cstring>
#include <string>

#include "common/logging.h"
#include "index/lemma_probe.h"
#include "search/posting_cursor.h"

namespace webtab {
namespace storage {

namespace {

struct SectionBytes {
  const uint8_t* base;
  uint64_t size;
};

template <typename T>
Status GetArray(SectionBytes s, BlobRef ref, std::span<const T>* out) {
  if (ref.offset > s.size) {
    return Status::ParseError("blob offset out of bounds");
  }
  if (ref.offset % alignof(T) != 0) {
    return Status::ParseError("misaligned blob");
  }
  if (ref.count > (s.size - ref.offset) / sizeof(T)) {
    return Status::ParseError("blob extends past section end");
  }
  *out = std::span<const T>(reinterpret_cast<const T*>(s.base + ref.offset),
                            ref.count);
  return Status::Ok();
}

Status CheckMonotonic(std::span<const uint64_t> ends, uint64_t limit,
                      const char* what) {
  uint64_t prev = 0;
  for (uint64_t e : ends) {
    if (e < prev || e > limit) {
      return Status::ParseError(std::string("corrupt offsets in ") + what);
    }
    prev = e;
  }
  return Status::Ok();
}

/// Every value in [min, limit) — file-provided ids that index other
/// arrays of the snapshot must be range-checked once at open so
/// accessors never read outside the mapping, even for corrupt files
/// opened with checksum verification off.
Status CheckIdRange(std::span<const int32_t> ids, int32_t limit,
                    const char* what, int32_t min = 0) {
  for (int32_t id : ids) {
    if (id < min || id >= limit) {
      return Status::ParseError(std::string("id out of range in ") + what);
    }
  }
  return Status::Ok();
}

Status GetArena(SectionBytes s, StringArenaRef ref, uint64_t expected_count,
                ArenaView* out, const char* what) {
  WEBTAB_RETURN_IF_ERROR(GetArray(s, ref.ends, &out->ends));
  if (out->ends.size() != expected_count) {
    return Status::ParseError(std::string("arena count mismatch in ") +
                              what);
  }
  if (ref.bytes.offset > s.size ||
      ref.bytes.count > s.size - ref.bytes.offset) {
    return Status::ParseError(std::string("arena bytes out of bounds in ") +
                              what);
  }
  out->bytes = reinterpret_cast<const char*>(s.base + ref.bytes.offset);
  return CheckMonotonic(out->ends, ref.bytes.count, what);
}

template <typename T>
Status GetCsr(SectionBytes s, CsrRef ref, uint64_t expected_rows,
              CsrView<T>* out, const char* what) {
  WEBTAB_RETURN_IF_ERROR(GetArray(s, ref.row_ends, &out->row_ends));
  WEBTAB_RETURN_IF_ERROR(GetArray(s, ref.values, &out->values));
  if (out->row_ends.size() != expected_rows) {
    return Status::ParseError(std::string("csr row count mismatch in ") +
                              what);
  }
  return CheckMonotonic(out->row_ends, out->values.size(), what);
}

/// Row range [begin, end) for row i of a shared ends array.
inline std::pair<uint64_t, uint64_t> RowRange(
    std::span<const uint64_t> ends, uint64_t i) {
  return {i == 0 ? 0 : ends[i - 1], ends[i]};
}

uint64_t PairKey(EntityId e1, EntityId e2) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(e1)) << 32) |
         static_cast<uint32_t>(e2);
}

/// Binary-searches a sorted-by-name id array; returns kNa when absent.
template <typename NameFn>
int32_t FindByName(std::span<const int32_t> ids, std::string_view name,
                   NameFn name_of) {
  auto it = std::lower_bound(
      ids.begin(), ids.end(), name,
      [&](int32_t id, std::string_view n) { return name_of(id) < n; });
  if (it != ids.end() && name_of(*it) == name) return *it;
  return kNa;
}

/// Binary-searches a sorted string arena; returns the index or -1.
int64_t FindToken(const ArenaView& arena, std::string_view token) {
  uint64_t lo = 0, hi = arena.size();
  while (lo < hi) {
    uint64_t mid = lo + (hi - lo) / 2;
    if (arena.Get(mid) < token) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo < arena.size() && arena.Get(lo) == token) {
    return static_cast<int64_t>(lo);
  }
  return -1;
}

}  // namespace

// --- SnapshotCatalogView --------------------------------------------------

Status SnapshotCatalogView::Init(const uint8_t* base, uint64_t size) {
  if (size < sizeof(CatalogHeader)) {
    return Status::ParseError("catalog section too small");
  }
  std::memcpy(&header_, base, sizeof(header_));
  if (header_.num_types < 0 || header_.num_entities < 0 ||
      header_.num_relations < 0) {
    return Status::ParseError("negative catalog counts");
  }
  SectionBytes s{base, size};
  const uint64_t nt = header_.num_types;
  const uint64_t ne = header_.num_entities;
  const uint64_t nr = header_.num_relations;

  WEBTAB_RETURN_IF_ERROR(
      GetArena(s, header_.type_names, nt, &type_names_, "type names"));
  WEBTAB_RETURN_IF_ERROR(GetArray(s, header_.type_lemma_ends,
                                  &type_lemma_ends_));
  if (type_lemma_ends_.size() != nt) {
    return Status::ParseError("type lemma ends count mismatch");
  }
  WEBTAB_RETURN_IF_ERROR(GetArena(
      s, header_.type_lemmas,
      nt == 0 ? 0 : type_lemma_ends_.back(), &type_lemmas_, "type lemmas"));
  WEBTAB_RETURN_IF_ERROR(CheckMonotonic(type_lemma_ends_,
                                        type_lemmas_.size(),
                                        "type lemma ends"));
  WEBTAB_RETURN_IF_ERROR(
      GetCsr(s, header_.type_parents, nt, &type_parents_, "type parents"));
  WEBTAB_RETURN_IF_ERROR(GetCsr(s, header_.type_children, nt,
                                &type_children_, "type children"));
  WEBTAB_RETURN_IF_ERROR(GetCsr(s, header_.type_direct_entities, nt,
                                &type_direct_entities_,
                                "type direct entities"));

  WEBTAB_RETURN_IF_ERROR(
      GetArena(s, header_.entity_names, ne, &entity_names_, "entity names"));
  WEBTAB_RETURN_IF_ERROR(GetArray(s, header_.entity_lemma_ends,
                                  &entity_lemma_ends_));
  if (entity_lemma_ends_.size() != ne) {
    return Status::ParseError("entity lemma ends count mismatch");
  }
  WEBTAB_RETURN_IF_ERROR(GetArena(s, header_.entity_lemmas,
                                  ne == 0 ? 0 : entity_lemma_ends_.back(),
                                  &entity_lemmas_, "entity lemmas"));
  WEBTAB_RETURN_IF_ERROR(CheckMonotonic(entity_lemma_ends_,
                                        entity_lemmas_.size(),
                                        "entity lemma ends"));
  WEBTAB_RETURN_IF_ERROR(GetCsr(s, header_.entity_direct_types, ne,
                                &entity_direct_types_,
                                "entity direct types"));

  WEBTAB_RETURN_IF_ERROR(GetArena(s, header_.relation_names, nr,
                                  &relation_names_, "relation names"));
  WEBTAB_RETURN_IF_ERROR(GetArray(s, header_.relation_meta,
                                  &relation_meta_));
  if (relation_meta_.size() != nr) {
    return Status::ParseError("relation meta count mismatch");
  }
  WEBTAB_RETURN_IF_ERROR(GetCsr(s, header_.tuples, nr, &tuples_, "tuples"));

  WEBTAB_RETURN_IF_ERROR(GetArray(s, header_.fwd_key_ends, &fwd_key_ends_));
  WEBTAB_RETURN_IF_ERROR(GetArray(s, header_.fwd_keys, &fwd_keys_));
  WEBTAB_RETURN_IF_ERROR(GetArray(s, header_.fwd_value_ends,
                                  &fwd_value_ends_));
  WEBTAB_RETURN_IF_ERROR(GetArray(s, header_.fwd_values, &fwd_values_));
  WEBTAB_RETURN_IF_ERROR(GetArray(s, header_.rev_key_ends, &rev_key_ends_));
  WEBTAB_RETURN_IF_ERROR(GetArray(s, header_.rev_keys, &rev_keys_));
  WEBTAB_RETURN_IF_ERROR(GetArray(s, header_.rev_value_ends,
                                  &rev_value_ends_));
  WEBTAB_RETURN_IF_ERROR(GetArray(s, header_.rev_values, &rev_values_));
  if (fwd_key_ends_.size() != nr || rev_key_ends_.size() != nr ||
      fwd_value_ends_.size() != fwd_keys_.size() ||
      rev_value_ends_.size() != rev_keys_.size()) {
    return Status::ParseError("tuple index shape mismatch");
  }
  WEBTAB_RETURN_IF_ERROR(CheckMonotonic(fwd_key_ends_, fwd_keys_.size(),
                                        "fwd key ends"));
  WEBTAB_RETURN_IF_ERROR(CheckMonotonic(fwd_value_ends_,
                                        fwd_values_.size(),
                                        "fwd value ends"));
  WEBTAB_RETURN_IF_ERROR(CheckMonotonic(rev_key_ends_, rev_keys_.size(),
                                        "rev key ends"));
  WEBTAB_RETURN_IF_ERROR(CheckMonotonic(rev_value_ends_,
                                        rev_values_.size(),
                                        "rev value ends"));

  WEBTAB_RETURN_IF_ERROR(GetArray(s, header_.pair_keys, &pair_keys_));
  WEBTAB_RETURN_IF_ERROR(GetArray(s, header_.pair_rel_ends,
                                  &pair_rel_ends_));
  WEBTAB_RETURN_IF_ERROR(GetArray(s, header_.pair_rels, &pair_rels_));
  if (pair_rel_ends_.size() != pair_keys_.size()) {
    return Status::ParseError("pair index shape mismatch");
  }
  WEBTAB_RETURN_IF_ERROR(CheckMonotonic(pair_rel_ends_, pair_rels_.size(),
                                        "pair rel ends"));

  WEBTAB_RETURN_IF_ERROR(GetArray(s, header_.types_by_name,
                                  &types_by_name_));
  WEBTAB_RETURN_IF_ERROR(GetArray(s, header_.entities_by_name,
                                  &entities_by_name_));
  WEBTAB_RETURN_IF_ERROR(GetArray(s, header_.relations_by_name,
                                  &relations_by_name_));
  if (types_by_name_.size() != nt || entities_by_name_.size() != ne ||
      relations_by_name_.size() != nr) {
    return Status::ParseError("name index count mismatch");
  }

  // File-provided ids flow back into this section's arrays (name arenas,
  // CSR rows); range-check them once here so a corrupt file opened with
  // checksum verification off fails cleanly instead of reading outside
  // the mapping.
  const int32_t t_lim = header_.num_types;
  const int32_t e_lim = header_.num_entities;
  const int32_t r_lim = header_.num_relations;
  if (header_.root_type < kNa || header_.root_type >= t_lim) {
    return Status::ParseError("root type out of range");
  }
  WEBTAB_RETURN_IF_ERROR(
      CheckIdRange(type_parents_.values, t_lim, "type parents"));
  WEBTAB_RETURN_IF_ERROR(
      CheckIdRange(type_children_.values, t_lim, "type children"));
  WEBTAB_RETURN_IF_ERROR(CheckIdRange(type_direct_entities_.values, e_lim,
                                      "type direct entities"));
  WEBTAB_RETURN_IF_ERROR(CheckIdRange(entity_direct_types_.values, t_lim,
                                      "entity direct types"));
  for (const RelationMetaDisk& meta : relation_meta_) {
    if (meta.subject_type < 0 || meta.subject_type >= t_lim ||
        meta.object_type < 0 || meta.object_type >= t_lim ||
        meta.cardinality < 0 || meta.cardinality > 3) {
      return Status::ParseError("relation meta out of range");
    }
  }
  const std::span<const int32_t> tuple_ids(
      reinterpret_cast<const int32_t*>(tuples_.values.data()),
      tuples_.values.size() * 2);
  WEBTAB_RETURN_IF_ERROR(CheckIdRange(tuple_ids, e_lim, "tuples"));
  WEBTAB_RETURN_IF_ERROR(CheckIdRange(fwd_keys_, e_lim, "fwd keys"));
  WEBTAB_RETURN_IF_ERROR(CheckIdRange(fwd_values_, e_lim, "fwd values"));
  WEBTAB_RETURN_IF_ERROR(CheckIdRange(rev_keys_, e_lim, "rev keys"));
  WEBTAB_RETURN_IF_ERROR(CheckIdRange(rev_values_, e_lim, "rev values"));
  WEBTAB_RETURN_IF_ERROR(CheckIdRange(pair_rels_, r_lim, "pair rels"));
  WEBTAB_RETURN_IF_ERROR(
      CheckIdRange(types_by_name_, t_lim, "types by name"));
  WEBTAB_RETURN_IF_ERROR(
      CheckIdRange(entities_by_name_, e_lim, "entities by name"));
  WEBTAB_RETURN_IF_ERROR(
      CheckIdRange(relations_by_name_, r_lim, "relations by name"));
  return Status::Ok();
}

namespace {

/// Non-decreasing order under `less` — the precondition of every binary
/// search an accessor runs over file-provided arrays.
template <typename T, typename Less>
Status CheckSorted(std::span<const T> values, const char* what, Less less) {
  for (size_t i = 1; i < values.size(); ++i) {
    if (less(values[i], values[i - 1])) {
      return Status::ParseError(std::string("unsorted array: ") + what);
    }
  }
  return Status::Ok();
}

template <typename T>
Status CheckSorted(std::span<const T> values, const char* what) {
  return CheckSorted(values, what,
                     [](const T& a, const T& b) { return a < b; });
}

Status CheckArenaSorted(const ArenaView& arena, const char* what) {
  for (uint64_t i = 1; i < arena.size(); ++i) {
    if (arena.Get(i) < arena.Get(i - 1)) {
      return Status::ParseError(std::string("unsorted arena: ") + what);
    }
  }
  return Status::Ok();
}

}  // namespace

Status SnapshotCatalogView::DeepValidate() const {
  // Name indexes: binary searched by name.
  WEBTAB_RETURN_IF_ERROR(CheckSorted<TypeId>(
      types_by_name_, "types by name", [&](TypeId a, TypeId b) {
        return type_names_.Get(a) < type_names_.Get(b);
      }));
  WEBTAB_RETURN_IF_ERROR(CheckSorted<EntityId>(
      entities_by_name_, "entities by name", [&](EntityId a, EntityId b) {
        return entity_names_.Get(a) < entity_names_.Get(b);
      }));
  WEBTAB_RETURN_IF_ERROR(CheckSorted<RelationId>(
      relations_by_name_, "relations by name",
      [&](RelationId a, RelationId b) {
        return relation_names_.Get(a) < relation_names_.Get(b);
      }));

  // Tuple rows and forward/reverse key runs: binary searched per
  // relation (HasTuple, ObjectsOf, SubjectsOf).
  for (uint64_t b = 0; b < fwd_key_ends_.size(); ++b) {
    WEBTAB_RETURN_IF_ERROR(CheckSorted(tuples_.Row(b), "relation tuples"));
    auto [fb, fe] = RowRange(fwd_key_ends_, b);
    WEBTAB_RETURN_IF_ERROR(
        CheckSorted(fwd_keys_.subspan(fb, fe - fb), "fwd keys"));
    auto [rb, re] = RowRange(rev_key_ends_, b);
    WEBTAB_RETURN_IF_ERROR(
        CheckSorted(rev_keys_.subspan(rb, re - rb), "rev keys"));
  }
  WEBTAB_RETURN_IF_ERROR(CheckSorted(pair_keys_, "pair keys"));

  // Type graph: closure traversals assume a DAG with mirrored
  // parent/child edges. Kahn's algorithm over parent edges: if peeling
  // zero-out-degree types (toward ancestors) cannot consume every type,
  // the remainder is a cycle.
  const int32_t nt = header_.num_types;
  std::vector<int32_t> remaining_parents(nt);
  std::vector<TypeId> ready;
  uint64_t parent_edges = 0;
  for (TypeId t = 0; t < nt; ++t) {
    auto parents = type_parents_.Row(t);
    remaining_parents[t] = static_cast<int32_t>(parents.size());
    parent_edges += parents.size();
    if (parents.empty()) ready.push_back(t);
  }
  // Child adjacency for the peel, from the mirrored children rows; first
  // verify the mirror itself (every child edge is a parent edge and the
  // edge counts agree).
  uint64_t child_edges = 0;
  for (TypeId p = 0; p < nt; ++p) {
    for (TypeId c : type_children_.Row(p)) {
      ++child_edges;
      auto parents = type_parents_.Row(c);
      if (std::find(parents.begin(), parents.end(), p) == parents.end()) {
        return Status::ParseError(
            "type child edge without mirrored parent edge");
      }
    }
  }
  if (child_edges != parent_edges) {
    return Status::ParseError("type parent/child edge counts disagree");
  }
  int32_t peeled = 0;
  while (!ready.empty()) {
    TypeId p = ready.back();
    ready.pop_back();
    ++peeled;
    for (TypeId c : type_children_.Row(p)) {
      if (--remaining_parents[c] == 0) ready.push_back(c);
    }
  }
  if (peeled != nt) {
    return Status::ParseError("type graph contains a cycle");
  }
  return Status::Ok();
}

std::string_view SnapshotCatalogView::TypeName(TypeId t) const {
  WEBTAB_CHECK(ValidType(t)) << "bad type id " << t;
  return type_names_.Get(t);
}

int32_t SnapshotCatalogView::NumTypeLemmas(TypeId t) const {
  WEBTAB_CHECK(ValidType(t)) << "bad type id " << t;
  auto [begin, end] = RowRange(type_lemma_ends_, t);
  return static_cast<int32_t>(end - begin);
}

std::string_view SnapshotCatalogView::TypeLemma(TypeId t, int32_t i) const {
  WEBTAB_CHECK(ValidType(t)) << "bad type id " << t;
  return type_lemmas_.Get((t == 0 ? 0 : type_lemma_ends_[t - 1]) + i);
}

std::span<const TypeId> SnapshotCatalogView::TypeParents(TypeId t) const {
  WEBTAB_CHECK(ValidType(t)) << "bad type id " << t;
  return type_parents_.Row(t);
}

std::span<const TypeId> SnapshotCatalogView::TypeChildren(TypeId t) const {
  WEBTAB_CHECK(ValidType(t)) << "bad type id " << t;
  return type_children_.Row(t);
}

std::span<const EntityId> SnapshotCatalogView::TypeDirectEntities(
    TypeId t) const {
  WEBTAB_CHECK(ValidType(t)) << "bad type id " << t;
  return type_direct_entities_.Row(t);
}

std::string_view SnapshotCatalogView::EntityName(EntityId e) const {
  WEBTAB_CHECK(ValidEntity(e)) << "bad entity id " << e;
  return entity_names_.Get(e);
}

int32_t SnapshotCatalogView::NumEntityLemmas(EntityId e) const {
  WEBTAB_CHECK(ValidEntity(e)) << "bad entity id " << e;
  auto [begin, end] = RowRange(entity_lemma_ends_, e);
  return static_cast<int32_t>(end - begin);
}

std::string_view SnapshotCatalogView::EntityLemma(EntityId e,
                                                  int32_t i) const {
  WEBTAB_CHECK(ValidEntity(e)) << "bad entity id " << e;
  return entity_lemmas_.Get((e == 0 ? 0 : entity_lemma_ends_[e - 1]) + i);
}

std::span<const TypeId> SnapshotCatalogView::EntityDirectTypes(
    EntityId e) const {
  WEBTAB_CHECK(ValidEntity(e)) << "bad entity id " << e;
  return entity_direct_types_.Row(e);
}

std::string_view SnapshotCatalogView::RelationName(RelationId b) const {
  WEBTAB_CHECK(ValidRelation(b)) << "bad relation id " << b;
  return relation_names_.Get(b);
}

TypeId SnapshotCatalogView::RelationSubjectType(RelationId b) const {
  WEBTAB_CHECK(ValidRelation(b)) << "bad relation id " << b;
  return relation_meta_[b].subject_type;
}

TypeId SnapshotCatalogView::RelationObjectType(RelationId b) const {
  WEBTAB_CHECK(ValidRelation(b)) << "bad relation id " << b;
  return relation_meta_[b].object_type;
}

RelationCardinality SnapshotCatalogView::RelationCardinalityOf(
    RelationId b) const {
  WEBTAB_CHECK(ValidRelation(b)) << "bad relation id " << b;
  return static_cast<RelationCardinality>(relation_meta_[b].cardinality);
}

std::span<const EntityPair> SnapshotCatalogView::RelationTuples(
    RelationId b) const {
  WEBTAB_CHECK(ValidRelation(b)) << "bad relation id " << b;
  return tuples_.Row(b);
}

int64_t SnapshotCatalogView::DistinctSubjects(RelationId b) const {
  WEBTAB_CHECK(ValidRelation(b)) << "bad relation id " << b;
  return relation_meta_[b].distinct_subjects;
}

int64_t SnapshotCatalogView::DistinctObjects(RelationId b) const {
  WEBTAB_CHECK(ValidRelation(b)) << "bad relation id " << b;
  return relation_meta_[b].distinct_objects;
}

TypeId SnapshotCatalogView::FindTypeByName(std::string_view name) const {
  return FindByName(types_by_name_, name,
                    [&](int32_t t) { return type_names_.Get(t); });
}

EntityId SnapshotCatalogView::FindEntityByName(std::string_view name) const {
  return FindByName(entities_by_name_, name,
                    [&](int32_t e) { return entity_names_.Get(e); });
}

RelationId SnapshotCatalogView::FindRelationByName(
    std::string_view name) const {
  return FindByName(relations_by_name_, name,
                    [&](int32_t b) { return relation_names_.Get(b); });
}

bool SnapshotCatalogView::HasTuple(RelationId b, EntityId e1,
                                   EntityId e2) const {
  if (!ValidRelation(b)) return false;
  auto row = tuples_.Row(b);
  return std::binary_search(row.begin(), row.end(), EntityPair{e1, e2});
}

std::span<const EntityId> SnapshotCatalogView::ObjectsOf(
    RelationId b, EntityId e1) const {
  if (!ValidRelation(b)) return {};
  auto [kbegin, kend] = RowRange(fwd_key_ends_, b);
  auto keys = fwd_keys_.subspan(kbegin, kend - kbegin);
  auto it = std::lower_bound(keys.begin(), keys.end(), e1);
  if (it == keys.end() || *it != e1) return {};
  uint64_t k = kbegin + static_cast<uint64_t>(it - keys.begin());
  auto [vbegin, vend] = RowRange(fwd_value_ends_, k);
  return fwd_values_.subspan(vbegin, vend - vbegin);
}

std::span<const EntityId> SnapshotCatalogView::SubjectsOf(
    RelationId b, EntityId e2) const {
  if (!ValidRelation(b)) return {};
  auto [kbegin, kend] = RowRange(rev_key_ends_, b);
  auto keys = rev_keys_.subspan(kbegin, kend - kbegin);
  auto it = std::lower_bound(keys.begin(), keys.end(), e2);
  if (it == keys.end() || *it != e2) return {};
  uint64_t k = kbegin + static_cast<uint64_t>(it - keys.begin());
  auto [vbegin, vend] = RowRange(rev_value_ends_, k);
  return rev_values_.subspan(vbegin, vend - vbegin);
}

std::vector<std::pair<RelationId, bool>>
SnapshotCatalogView::RelationsBetween(EntityId e1, EntityId e2) const {
  std::vector<std::pair<RelationId, bool>> out;
  auto probe = [&](uint64_t key, bool swapped) {
    auto it = std::lower_bound(pair_keys_.begin(), pair_keys_.end(), key);
    if (it == pair_keys_.end() || *it != key) return;
    uint64_t i = static_cast<uint64_t>(it - pair_keys_.begin());
    auto [begin, end] = RowRange(pair_rel_ends_, i);
    for (uint64_t j = begin; j < end; ++j) {
      out.emplace_back(pair_rels_[j], swapped);
    }
  };
  probe(PairKey(e1, e2), false);
  probe(PairKey(e2, e1), true);
  return out;
}

void SnapshotCatalogView::ForEachRelationBetween(
    EntityId e1, EntityId e2,
    const std::function<void(RelationId, bool)>& fn) const {
  auto probe = [&](uint64_t key, bool swapped) {
    auto it = std::lower_bound(pair_keys_.begin(), pair_keys_.end(), key);
    if (it == pair_keys_.end() || *it != key) return;
    uint64_t i = static_cast<uint64_t>(it - pair_keys_.begin());
    auto [begin, end] = RowRange(pair_rel_ends_, i);
    for (uint64_t j = begin; j < end; ++j) fn(pair_rels_[j], swapped);
  };
  probe(PairKey(e1, e2), false);
  probe(PairKey(e2, e1), true);
}

// --- SnapshotLemmaIndexView -----------------------------------------------

Status SnapshotLemmaIndexView::Init(const uint8_t* base, uint64_t size,
                                    const CatalogView* catalog) {
  if (size < sizeof(LemmaIndexHeader)) {
    return Status::ParseError("lemma index section too small");
  }
  std::memcpy(&header_, base, sizeof(header_));
  if (header_.num_tokens < 0) {
    return Status::ParseError("negative token count");
  }
  catalog_ = catalog;
  SectionBytes s{base, size};
  const uint64_t n = header_.num_tokens;
  WEBTAB_RETURN_IF_ERROR(
      GetArena(s, header_.token_texts, n, &token_texts_, "token texts"));
  WEBTAB_RETURN_IF_ERROR(GetArray(s, header_.token_doc_freq,
                                  &token_doc_freq_));
  WEBTAB_RETURN_IF_ERROR(GetArray(s, header_.tokens_by_text,
                                  &tokens_by_text_));
  if (token_doc_freq_.size() != n || tokens_by_text_.size() != n) {
    return Status::ParseError("token table count mismatch");
  }
  WEBTAB_RETURN_IF_ERROR(GetCsr(s, header_.entity_postings, n,
                                &entity_postings_, "entity postings"));
  WEBTAB_RETURN_IF_ERROR(GetCsr(s, header_.type_postings, n,
                                &type_postings_, "type postings"));
  // Token ids index the text arena; posting ids flow into catalog
  // accessors and score math. Range-check once at open.
  WEBTAB_RETURN_IF_ERROR(CheckIdRange(
      tokens_by_text_, static_cast<int32_t>(n), "tokens by text"));
  auto check_postings = [](std::span<const LemmaPosting> postings,
                           int32_t id_limit, const char* what) -> Status {
    for (const LemmaPosting& p : postings) {
      if (p.id < 0 || p.id >= id_limit || p.lemma_ord < 0 ||
          p.lemma_len < 0) {
        return Status::ParseError(std::string("corrupt posting in ") +
                                  what);
      }
    }
    return Status::Ok();
  };
  WEBTAB_RETURN_IF_ERROR(check_postings(
      entity_postings_.values, catalog->num_entities(), "entity postings"));
  WEBTAB_RETURN_IF_ERROR(check_postings(
      type_postings_.values, catalog->num_types(), "type postings"));
  return Status::Ok();
}

Status SnapshotLemmaIndexView::DeepValidate() const {
  WEBTAB_RETURN_IF_ERROR(CheckSorted<TokenId>(
      tokens_by_text_, "tokens by text", [&](TokenId a, TokenId b) {
        return token_texts_.Get(a) < token_texts_.Get(b);
      }));
  for (int64_t df : token_doc_freq_) {
    if (df < 0) return Status::ParseError("negative document frequency");
  }
  for (const LemmaPosting& p : entity_postings_.values) {
    if (p.lemma_ord >= catalog_->NumEntityLemmas(p.id)) {
      return Status::ParseError("entity posting lemma ordinal out of range");
    }
  }
  for (const LemmaPosting& p : type_postings_.values) {
    if (p.lemma_ord >= catalog_->NumTypeLemmas(p.id)) {
      return Status::ParseError("type posting lemma ordinal out of range");
    }
  }
  return Status::Ok();
}

TokenId SnapshotLemmaIndexView::LookupToken(std::string_view token) const {
  auto it = std::lower_bound(
      tokens_by_text_.begin(), tokens_by_text_.end(), token,
      [&](TokenId id, std::string_view t) {
        return token_texts_.Get(id) < t;
      });
  if (it != tokens_by_text_.end() && token_texts_.Get(*it) == token) {
    return *it;
  }
  return kInvalidToken;
}

double SnapshotLemmaIndexView::TokenIdf(TokenId t) const {
  int64_t df =
      (t >= 0 && t < header_.num_tokens) ? token_doc_freq_[t] : 0;
  return Vocabulary::IdfValue(df, header_.num_documents);
}

std::vector<LemmaHit> SnapshotLemmaIndexView::ProbeEntities(
    std::string_view text, int k) const {
  return lemma_probe_internal::ProbePostings(
      text, k, [&](const std::string& token) { return LookupToken(token); },
      [&](TokenId tid) { return TokenIdf(tid); },
      [&](TokenId tid) { return entity_postings_.Row(tid); });
}

ResolvedToken SnapshotLemmaIndexView::ResolveEntityToken(
    std::string_view token) const {
  ResolvedToken resolved;
  TokenId tid = LookupToken(token);
  resolved.idf = TokenIdf(tid);
  if (tid >= 0) resolved.postings = entity_postings_.Row(tid);
  return resolved;
}

std::vector<LemmaHit> SnapshotLemmaIndexView::ProbeTypes(
    std::string_view text, int k) const {
  return lemma_probe_internal::ProbePostings(
      text, k, [&](const std::string& token) { return LookupToken(token); },
      [&](TokenId tid) { return TokenIdf(tid); },
      [&](TokenId tid) { return type_postings_.Row(tid); });
}

Vocabulary SnapshotLemmaIndexView::CopyVocabulary() const {
  std::vector<std::string> texts;
  std::vector<int64_t> doc_freq;
  texts.reserve(header_.num_tokens);
  doc_freq.reserve(header_.num_tokens);
  for (int64_t t = 0; t < header_.num_tokens; ++t) {
    texts.emplace_back(token_texts_.Get(t));
    doc_freq.push_back(token_doc_freq_[t]);
  }
  return Vocabulary::FromParts(std::move(texts), std::move(doc_freq),
                               header_.num_documents);
}

// --- SnapshotCorpusView ---------------------------------------------------

Status SnapshotCorpusView::Init(const uint8_t* base, uint64_t size) {
  if (size < sizeof(CorpusHeader)) {
    return Status::ParseError("corpus section too small");
  }
  std::memcpy(&header_, base, sizeof(header_));
  if (header_.num_tables < 0) {
    return Status::ParseError("negative table count");
  }
  SectionBytes s{base, size};
  const uint64_t n = header_.num_tables;
  WEBTAB_RETURN_IF_ERROR(GetArray(s, header_.table_meta, &table_meta_));
  if (table_meta_.size() != n) {
    return Status::ParseError("table meta count mismatch");
  }
  uint64_t total_cells = 0, total_cols = 0;
  for (const TableMetaDisk& m : table_meta_) {
    if (m.rows < 0 || m.cols < 0 ||
        m.cell_start != total_cells || m.col_start != total_cols) {
      return Status::ParseError("corrupt table meta");
    }
    total_cells += static_cast<uint64_t>(m.rows) * m.cols;
    total_cols += m.cols;
  }
  WEBTAB_RETURN_IF_ERROR(
      GetArena(s, header_.cells, total_cells, &cells_, "cells"));
  WEBTAB_RETURN_IF_ERROR(
      GetArena(s, header_.headers, total_cols, &headers_, "headers"));
  WEBTAB_RETURN_IF_ERROR(
      GetArena(s, header_.contexts, n, &contexts_, "contexts"));
  WEBTAB_RETURN_IF_ERROR(GetArray(s, header_.column_types, &column_types_));
  WEBTAB_RETURN_IF_ERROR(GetArray(s, header_.cell_entities,
                                  &cell_entities_));
  if (column_types_.size() != total_cols ||
      cell_entities_.size() != total_cells) {
    return Status::ParseError("annotation array count mismatch");
  }
  WEBTAB_RETURN_IF_ERROR(GetCsr(s, header_.table_relations, n,
                                &table_relations_, "table relations"));

  WEBTAB_RETURN_IF_ERROR(GetArray(s, header_.header_tokens.ends,
                                  &header_tokens_.ends));
  WEBTAB_RETURN_IF_ERROR(GetArena(s, header_.header_tokens,
                                  header_tokens_.ends.size(),
                                  &header_tokens_, "header tokens"));
  WEBTAB_RETURN_IF_ERROR(GetCsr(s, header_.header_postings,
                                header_tokens_.size(), &header_postings_,
                                "header postings"));
  WEBTAB_RETURN_IF_ERROR(GetArray(s, header_.context_tokens.ends,
                                  &context_tokens_.ends));
  WEBTAB_RETURN_IF_ERROR(GetArena(s, header_.context_tokens,
                                  context_tokens_.ends.size(),
                                  &context_tokens_, "context tokens"));
  WEBTAB_RETURN_IF_ERROR(GetCsr(s, header_.context_postings,
                                context_tokens_.size(), &context_postings_,
                                "context postings"));

  WEBTAB_RETURN_IF_ERROR(GetArray(s, header_.type_keys, &type_keys_));
  WEBTAB_RETURN_IF_ERROR(GetCsr(s, header_.type_postings, type_keys_.size(),
                                &type_postings_, "type postings"));
  WEBTAB_RETURN_IF_ERROR(GetArray(s, header_.relation_keys,
                                  &relation_keys_));
  WEBTAB_RETURN_IF_ERROR(GetCsr(s, header_.relation_postings,
                                relation_keys_.size(), &relation_postings_,
                                "relation postings"));
  WEBTAB_RETURN_IF_ERROR(GetArray(s, header_.entity_keys, &entity_keys_));
  WEBTAB_RETURN_IF_ERROR(GetCsr(s, header_.entity_postings,
                                entity_keys_.size(), &entity_postings_,
                                "entity postings"));

  // Posting refs index table_meta_ / cells; range-check them once at
  // open so corrupt files fail cleanly instead of reading out of bounds.
  const int32_t nt = static_cast<int32_t>(n);
  auto check_column_refs = [&](std::span<const ColumnRef> refs,
                               const char* what) -> Status {
    for (const ColumnRef& r : refs) {
      if (r.table < 0 || r.table >= nt || r.col < 0 ||
          r.col >= table_meta_[r.table].cols) {
        return Status::ParseError(std::string("ref out of range in ") +
                                  what);
      }
    }
    return Status::Ok();
  };
  WEBTAB_RETURN_IF_ERROR(
      check_column_refs(header_postings_.values, "header postings"));
  WEBTAB_RETURN_IF_ERROR(
      check_column_refs(type_postings_.values, "type postings"));
  for (int32_t table : context_postings_.values) {
    if (table < 0 || table >= nt) {
      return Status::ParseError("ref out of range in context postings");
    }
  }
  for (const RelationRef& r : relation_postings_.values) {
    if (r.table < 0 || r.table >= nt || r.c1 < 0 || r.c2 < 0 ||
        r.c1 >= table_meta_[r.table].cols ||
        r.c2 >= table_meta_[r.table].cols) {
      return Status::ParseError("ref out of range in relation postings");
    }
  }
  for (const CellRef& r : entity_postings_.values) {
    if (r.table < 0 || r.table >= nt || r.row < 0 || r.col < 0 ||
        r.row >= table_meta_[r.table].rows ||
        r.col >= table_meta_[r.table].cols) {
      return Status::ParseError("ref out of range in entity postings");
    }
  }
  for (uint64_t t = 0; t < n; ++t) {
    for (const TableRelationDisk& r : table_relations_.Row(t)) {
      if (r.c1 < 0 || r.c2 < 0 || r.c1 >= table_meta_[t].cols ||
          r.c2 >= table_meta_[t].cols) {
        return Status::ParseError("ref out of range in table relations");
      }
    }
  }
  return Status::Ok();
}

Status SnapshotCorpusView::AttachMatchSupport(const uint8_t* base,
                                              uint64_t size) {
  if (size < sizeof(MatchSupportHeader)) {
    return Status::ParseError("match-support section too small");
  }
  MatchSupportHeader h;
  std::memcpy(&h, base, sizeof(h));
  SectionBytes s{base, size};
  WEBTAB_RETURN_IF_ERROR(GetArray(s, h.cell_tokens.ends,
                                  &cell_tokens_.ends));
  WEBTAB_RETURN_IF_ERROR(GetArena(s, h.cell_tokens, cell_tokens_.ends.size(),
                                  &cell_tokens_, "cell tokens"));
  WEBTAB_RETURN_IF_ERROR(GetCsr(s, h.cell_token_postings,
                                cell_tokens_.size(), &cell_token_postings_,
                                "cell token postings"));
  for (const CellTokenRef& r : cell_token_postings_.values) {
    if (r.table < 0 ||
        r.table >= static_cast<int32_t>(header_.num_tables) || r.col < 0 ||
        r.col >= table_meta_[r.table].cols) {
      return Status::ParseError(
          "ref out of range in cell token postings");
    }
    if (r.min_tokens < 1) {
      return Status::ParseError(
          "non-positive min_tokens in cell token postings");
    }
  }
  has_match_support_ = true;
  return Status::Ok();
}

namespace {

/// Every postings row non-decreasing by table — the search kernel's
/// galloping cursors (search/posting_cursor.h) binary-search these
/// spans via the same PostingTable accessor, so an out-of-order row
/// would silently skip or double-count evidence rather than crash.
template <typename T>
Status CheckPostingsTableOrder(const CsrView<T>& csr, const char* what) {
  for (uint64_t row = 0; row < csr.row_ends.size(); ++row) {
    int32_t prev = -1;
    for (const T& ref : csr.Row(row)) {
      int32_t table = search_internal::PostingTable(ref);
      if (table < prev) {
        return Status::ParseError(std::string(what) +
                                  " postings out of table order");
      }
      prev = table;
    }
  }
  return Status::Ok();
}

}  // namespace

Status SnapshotCorpusView::DeepValidate() const {
  WEBTAB_RETURN_IF_ERROR(CheckArenaSorted(header_tokens_, "header tokens"));
  WEBTAB_RETURN_IF_ERROR(
      CheckArenaSorted(context_tokens_, "context tokens"));
  WEBTAB_RETURN_IF_ERROR(CheckSorted(type_keys_, "corpus type keys"));
  WEBTAB_RETURN_IF_ERROR(
      CheckSorted(relation_keys_, "corpus relation keys"));
  WEBTAB_RETURN_IF_ERROR(CheckSorted(entity_keys_, "corpus entity keys"));
  WEBTAB_RETURN_IF_ERROR(
      CheckPostingsTableOrder(header_postings_, "header"));
  WEBTAB_RETURN_IF_ERROR(
      CheckPostingsTableOrder(context_postings_, "context"));
  WEBTAB_RETURN_IF_ERROR(CheckPostingsTableOrder(type_postings_, "type"));
  WEBTAB_RETURN_IF_ERROR(
      CheckPostingsTableOrder(relation_postings_, "relation"));
  WEBTAB_RETURN_IF_ERROR(
      CheckPostingsTableOrder(entity_postings_, "entity"));
  for (int64_t t = 0; t < header_.num_tables; ++t) {
    WEBTAB_RETURN_IF_ERROR(CheckSorted<TableRelationDisk>(
        table_relations_.Row(t), "table relations",
        [](const TableRelationDisk& a, const TableRelationDisk& b) {
          if (a.c1 != b.c1) return a.c1 < b.c1;
          return a.c2 < b.c2;
        }));
  }
  if (has_match_support_) {
    WEBTAB_RETURN_IF_ERROR(CheckArenaSorted(cell_tokens_, "cell tokens"));
    WEBTAB_RETURN_IF_ERROR(
        CheckPostingsTableOrder(cell_token_postings_, "cell token"));
  }
  return Status::Ok();
}

RelationCandidate SnapshotCorpusView::RelationOf(int t, int c1,
                                                 int c2) const {
  auto row = table_relations_.Row(t);
  auto it = std::lower_bound(
      row.begin(), row.end(), std::make_pair(c1, c2),
      [](const TableRelationDisk& r, const std::pair<int, int>& key) {
        if (r.c1 != key.first) return r.c1 < key.first;
        return r.c2 < key.second;
      });
  if (it != row.end() && it->c1 == c1 && it->c2 == c2) {
    return RelationCandidate{it->relation, it->swapped != 0};
  }
  return RelationCandidate{};
}

std::span<const ColumnRef> SnapshotCorpusView::HeaderPostings(
    std::string_view token) const {
  int64_t i = FindToken(header_tokens_, token);
  return i < 0 ? std::span<const ColumnRef>() : header_postings_.Row(i);
}

std::span<const int32_t> SnapshotCorpusView::ContextPostings(
    std::string_view token) const {
  int64_t i = FindToken(context_tokens_, token);
  return i < 0 ? std::span<const int32_t>() : context_postings_.Row(i);
}

namespace {
template <typename T>
std::span<const T> KeyedRow(std::span<const int32_t> keys,
                            const CsrView<T>& csr, int32_t key) {
  auto it = std::lower_bound(keys.begin(), keys.end(), key);
  if (it == keys.end() || *it != key) return {};
  return csr.Row(static_cast<uint64_t>(it - keys.begin()));
}
}  // namespace

std::span<const ColumnRef> SnapshotCorpusView::TypePostings(TypeId t) const {
  return KeyedRow(type_keys_, type_postings_, t);
}

std::span<const RelationRef> SnapshotCorpusView::RelationPostings(
    RelationId b) const {
  return KeyedRow(relation_keys_, relation_postings_, b);
}

std::span<const CellRef> SnapshotCorpusView::EntityPostings(
    EntityId e) const {
  return KeyedRow(entity_keys_, entity_postings_, e);
}

std::span<const CellTokenRef> SnapshotCorpusView::CellTokenPostings(
    std::string_view token) const {
  if (!has_match_support_) return {};
  int64_t i = FindToken(cell_tokens_, token);
  return i < 0 ? std::span<const CellTokenRef>()
               : cell_token_postings_.Row(i);
}

}  // namespace storage
}  // namespace webtab
