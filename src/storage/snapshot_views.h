#ifndef WEBTAB_STORAGE_SNAPSHOT_VIEWS_H_
#define WEBTAB_STORAGE_SNAPSHOT_VIEWS_H_

#include <span>
#include <string_view>
#include <vector>

#include "catalog/catalog_view.h"
#include "common/status.h"
#include "index/lemma_index.h"
#include "search/corpus_view.h"
#include "storage/format.h"

namespace webtab {
namespace storage {

/// Resolved read-only accessors over raw mapped section bytes. All
/// Init() methods validate structure (blob bounds, alignment, monotonic
/// offset arrays, and the range of every file-provided id that indexes
/// another array) so accessors can index without per-call checks; they
/// never copy payload data — every span and string_view points into the
/// mapping.

/// A resolved string arena.
struct ArenaView {
  std::span<const uint64_t> ends;
  const char* bytes = nullptr;

  uint64_t size() const { return ends.size(); }
  std::string_view Get(uint64_t i) const {
    uint64_t begin = i == 0 ? 0 : ends[i - 1];
    return std::string_view(bytes + begin, ends[i] - begin);
  }
};

/// A resolved CSR array of T.
template <typename T>
struct CsrView {
  std::span<const uint64_t> row_ends;
  std::span<const T> values;

  std::span<const T> Row(uint64_t i) const {
    uint64_t begin = i == 0 ? 0 : row_ends[i - 1];
    return values.subspan(begin, row_ends[i] - begin);
  }
};

/// Zero-copy CatalogView over the catalog section of a snapshot.
class SnapshotCatalogView : public CatalogView {
 public:
  Status Init(const uint8_t* base, uint64_t size);

  /// Semantic invariants beyond Init's bounds checks, for hostile files
  /// (Snapshot::OpenValidated): name/tuple/pair arrays really sorted
  /// (binary searches would silently misanswer otherwise), and the type
  /// graph a DAG with mirrored parent/child edges (closure traversals
  /// assume it). O(payload) with small constants.
  Status DeepValidate() const;

  int32_t num_types() const override { return header_.num_types; }
  int32_t num_entities() const override { return header_.num_entities; }
  int32_t num_relations() const override { return header_.num_relations; }
  int64_t num_tuples() const override { return header_.num_tuples; }
  TypeId root_type() const override { return header_.root_type; }

  std::string_view TypeName(TypeId t) const override;
  int32_t NumTypeLemmas(TypeId t) const override;
  std::string_view TypeLemma(TypeId t, int32_t i) const override;
  std::span<const TypeId> TypeParents(TypeId t) const override;
  std::span<const TypeId> TypeChildren(TypeId t) const override;
  std::span<const EntityId> TypeDirectEntities(TypeId t) const override;

  std::string_view EntityName(EntityId e) const override;
  int32_t NumEntityLemmas(EntityId e) const override;
  std::string_view EntityLemma(EntityId e, int32_t i) const override;
  std::span<const TypeId> EntityDirectTypes(EntityId e) const override;

  std::string_view RelationName(RelationId b) const override;
  TypeId RelationSubjectType(RelationId b) const override;
  TypeId RelationObjectType(RelationId b) const override;
  RelationCardinality RelationCardinalityOf(RelationId b) const override;
  std::span<const EntityPair> RelationTuples(RelationId b) const override;
  int64_t DistinctSubjects(RelationId b) const override;
  int64_t DistinctObjects(RelationId b) const override;

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

 private:
  CatalogHeader header_;
  ArenaView type_names_, type_lemmas_;
  std::span<const uint64_t> type_lemma_ends_;
  CsrView<TypeId> type_parents_, type_children_;
  CsrView<EntityId> type_direct_entities_;
  ArenaView entity_names_, entity_lemmas_;
  std::span<const uint64_t> entity_lemma_ends_;
  CsrView<TypeId> entity_direct_types_;
  ArenaView relation_names_;
  std::span<const RelationMetaDisk> relation_meta_;
  CsrView<EntityPair> tuples_;
  std::span<const uint64_t> fwd_key_ends_, fwd_value_ends_;
  std::span<const EntityId> fwd_keys_, fwd_values_;
  std::span<const uint64_t> rev_key_ends_, rev_value_ends_;
  std::span<const EntityId> rev_keys_, rev_values_;
  std::span<const uint64_t> pair_keys_, pair_rel_ends_;
  std::span<const RelationId> pair_rels_;
  /// Built by Init from pair_keys_ once they are proven sorted and in
  /// range (the only catalog array not mapped from the file).
  std::vector<uint64_t> pair_subject_start_;
  std::span<const TypeId> types_by_name_;
  std::span<const EntityId> entities_by_name_;
  std::span<const RelationId> relations_by_name_;
};

/// Zero-copy LemmaIndexView over the lemma-index section. Probes share
/// the exact kernel used by the in-memory index, so rankings and scores
/// are bit-identical.
class SnapshotLemmaIndexView : public LemmaIndexView {
 public:
  /// `catalog` is the snapshot's catalog view (must outlive this view).
  Status Init(const uint8_t* base, uint64_t size,
              const CatalogView* catalog);

  /// Hostile-file invariants: token array sorted (lookups binary search
  /// it) and every posting's lemma_ord inside its object's lemma list —
  /// an out-of-range ordinal would otherwise index past the lemma arena
  /// row when features fetch the matched lemma.
  Status DeepValidate() const;

  std::vector<LemmaHit> ProbeEntities(std::string_view text,
                                      int k) const override;
  std::vector<LemmaHit> ProbeTypes(std::string_view text,
                                   int k) const override;
  ResolvedToken ResolveEntityToken(std::string_view token) const override;
  const CatalogView& catalog() const override { return *catalog_; }
  int64_t num_postings() const override { return header_.num_postings; }

  /// Snapshots are immutable: no shared mutable vocabulary.
  Vocabulary* mutable_vocabulary() const override { return nullptr; }
  Vocabulary CopyVocabulary() const override;

  /// Binary-searched token lookup (same ids as the serialized build).
  TokenId LookupToken(std::string_view token) const;
  double TokenIdf(TokenId t) const;

 private:
  LemmaIndexHeader header_;
  const CatalogView* catalog_ = nullptr;
  ArenaView token_texts_;
  std::span<const int64_t> token_doc_freq_;
  std::span<const TokenId> tokens_by_text_;
  CsrView<LemmaPosting> entity_postings_, type_postings_;
};

/// Zero-copy CorpusView over the corpus section.
class SnapshotCorpusView : public CorpusView {
 public:
  Status Init(const uint8_t* base, uint64_t size);

  /// Attaches the match-support section (format minor 1) to an Init'ed
  /// corpus view. `base/size` are the section's bytes. Validates shape:
  /// every cell-token ref in range with min_tokens >= 1; the reserved
  /// header fields are not read. Without this call the view reports
  /// HasMatchSupport() == false and engines fall back to unrefined
  /// bounds.
  Status AttachMatchSupport(const uint8_t* base, uint64_t size);

  /// Hostile-file invariants: token arenas and postings key arrays
  /// sorted, per-table relation rows sorted by (c1, c2), and every
  /// postings row table-sorted (the CorpusView ordering contract the
  /// search kernel's galloping cursors rely on) — all are binary
  /// searched by the engines. When a match-support section is attached,
  /// additionally: its token arena and postings rows sorted (engines
  /// *skip* tables based on it, so a lying index would silently drop
  /// evidence rather than crash).
  Status DeepValidate() const;

  int64_t num_tables() const override { return header_.num_tables; }
  int rows(int t) const override { return table_meta_[t].rows; }
  int cols(int t) const override { return table_meta_[t].cols; }
  int64_t table_id(int t) const override { return table_meta_[t].id; }
  std::string_view cell(int t, int r, int c) const override {
    const TableMetaDisk& m = table_meta_[t];
    return cells_.Get(m.cell_start + static_cast<uint64_t>(r) * m.cols + c);
  }
  std::string_view header(int t, int c) const override {
    const TableMetaDisk& m = table_meta_[t];
    return m.has_headers ? headers_.Get(m.col_start + c)
                         : std::string_view();
  }
  std::string_view context(int t) const override {
    return contexts_.Get(t);
  }

  TypeId ColumnType(int t, int c) const override {
    return column_types_[table_meta_[t].col_start + c];
  }
  EntityId CellEntity(int t, int r, int c) const override {
    const TableMetaDisk& m = table_meta_[t];
    return cell_entities_[m.cell_start + static_cast<uint64_t>(r) * m.cols +
                          c];
  }
  RelationCandidate RelationOf(int t, int c1, int c2) const override;
  /// Strided walk over the mmap'd cell arrays — one meta lookup per
  /// chunk instead of one virtual call + meta lookup per cell.
  void GatherColumn(int t, int c, int row_begin, int n, EntityId* entities,
                    std::string_view* cells) const override {
    const TableMetaDisk& m = table_meta_[t];
    uint64_t idx =
        m.cell_start + static_cast<uint64_t>(row_begin) * m.cols + c;
    if (entities != nullptr) {
      uint64_t i = idx;
      for (int k = 0; k < n; ++k, i += m.cols) {
        entities[k] = cell_entities_[i];
      }
    }
    if (cells != nullptr) {
      uint64_t i = idx;
      for (int k = 0; k < n; ++k, i += m.cols) cells[k] = cells_.Get(i);
    }
  }

  std::span<const ColumnRef> HeaderPostings(
      std::string_view token) const override;
  std::span<const int32_t> ContextPostings(
      std::string_view token) const override;
  std::span<const ColumnRef> TypePostings(TypeId t) const override;
  std::span<const RelationRef> RelationPostings(RelationId b) const override;
  std::span<const CellRef> EntityPostings(EntityId e) const override;

  bool HasMatchSupport() const override { return has_match_support_; }
  std::span<const CellTokenRef> CellTokenPostings(
      std::string_view token) const override;

  // --- Introspection (snapshot_tool inspect). ---
  int64_t num_cell_tokens() const { return cell_tokens_.size(); }

 private:
  CorpusHeader header_;
  std::span<const TableMetaDisk> table_meta_;
  ArenaView cells_, headers_, contexts_;
  std::span<const TypeId> column_types_;
  std::span<const EntityId> cell_entities_;
  CsrView<TableRelationDisk> table_relations_;
  ArenaView header_tokens_, context_tokens_;
  CsrView<ColumnRef> header_postings_;
  CsrView<int32_t> context_postings_;
  std::span<const TypeId> type_keys_;
  CsrView<ColumnRef> type_postings_;
  std::span<const RelationId> relation_keys_;
  CsrView<RelationRef> relation_postings_;
  std::span<const EntityId> entity_keys_;
  CsrView<CellRef> entity_postings_;
  // Match-support section (absent in minor-0 snapshots).
  bool has_match_support_ = false;
  ArenaView cell_tokens_;
  CsrView<CellTokenRef> cell_token_postings_;
};

}  // namespace storage
}  // namespace webtab

#endif  // WEBTAB_STORAGE_SNAPSHOT_VIEWS_H_
