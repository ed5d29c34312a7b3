#ifndef WEBTAB_SEARCH_CORPUS_INDEX_H_
#define WEBTAB_SEARCH_CORPUS_INDEX_H_

#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "annotate/corpus_annotator.h"
#include "search/corpus_view.h"
#include "text/vocabulary.h"

namespace webtab {

/// Transparent string hashing so string_view lookups probe the postings
/// maps without materializing a std::string per query token.
struct TransparentStringHash {
  using is_transparent = void;
  size_t operator()(std::string_view s) const {
    return std::hash<std::string_view>{}(s);
  }
};

/// Token-keyed postings map with heterogeneous (string_view) lookup.
template <typename V>
using TokenPostingsMap =
    std::unordered_map<std::string, std::vector<V>, TransparentStringHash,
                       std::equal_to<>>;

/// In-memory postings over an annotated table corpus; implements
/// CorpusView so the search engines are agnostic to whether the corpus
/// came from a fresh annotation run or an mmap'd snapshot.
class CorpusIndex : public CorpusView {
 public:
  // Nested aliases kept for existing call sites.
  using ColumnRef = webtab::ColumnRef;
  using RelationRef = webtab::RelationRef;
  using CellRef = webtab::CellRef;

  /// Builds the index; takes ownership of the annotated tables. When
  /// `closure` is non-null, type postings are expanded to catalog
  /// ancestors (querying T1 = person matches columns annotated actor).
  explicit CorpusIndex(std::vector<AnnotatedTable> tables,
                       ClosureCache* closure = nullptr);

  int64_t num_tables() const override {
    return static_cast<int64_t>(tables_.size());
  }
  const AnnotatedTable& table(int i) const { return tables_[i]; }

  int rows(int t) const override { return tables_[t].table.rows(); }
  int cols(int t) const override { return tables_[t].table.cols(); }
  int64_t table_id(int t) const override { return tables_[t].table.id(); }
  std::string_view cell(int t, int r, int c) const override {
    return tables_[t].table.cell(r, c);
  }
  std::string_view header(int t, int c) const override {
    return tables_[t].table.header(c);
  }
  std::string_view context(int t) const override {
    return tables_[t].table.context();
  }

  TypeId ColumnType(int t, int c) const override {
    return tables_[t].annotation.TypeOf(c);
  }
  EntityId CellEntity(int t, int r, int c) const override {
    return tables_[t].annotation.EntityOf(r, c);
  }
  RelationCandidate RelationOf(int t, int c1, int c2) const override {
    return tables_[t].annotation.RelationOf(c1, c2);
  }
  /// Direct strided walk over the owned table/annotation storage — the
  /// non-virtual accessors inline, which is the point of the batch.
  void GatherColumn(int t, int c, int row_begin, int n, EntityId* entities,
                    std::string_view* cells) const override {
    const AnnotatedTable& at = tables_[t];
    if (entities != nullptr) {
      for (int i = 0; i < n; ++i) {
        entities[i] = at.annotation.EntityOf(row_begin + i, c);
      }
    }
    if (cells != nullptr) {
      for (int i = 0; i < n; ++i) cells[i] = at.table.cell(row_begin + i, c);
    }
  }

  std::span<const ColumnRef> HeaderPostings(
      std::string_view token) const override;
  std::span<const int32_t> ContextPostings(
      std::string_view token) const override;
  std::span<const ColumnRef> TypePostings(TypeId t) const override;
  std::span<const RelationRef> RelationPostings(RelationId b) const override;
  std::span<const CellRef> EntityPostings(EntityId e) const override;

  // Match-support index: the in-memory build always carries it.
  bool HasMatchSupport() const override { return true; }
  std::span<const CellTokenRef> CellTokenPostings(
      std::string_view token) const override;

  // --- Serialization access (snapshot writer): the raw postings maps. ---
  const TokenPostingsMap<ColumnRef>& header_postings_map() const {
    return header_postings_;
  }
  const TokenPostingsMap<int32_t>& context_postings_map() const {
    return context_postings_;
  }
  const std::unordered_map<TypeId, std::vector<ColumnRef>>&
  type_postings_map() const {
    return type_postings_;
  }
  const std::unordered_map<RelationId, std::vector<RelationRef>>&
  relation_postings_map() const {
    return relation_postings_;
  }
  const std::unordered_map<EntityId, std::vector<CellRef>>&
  entity_postings_map() const {
    return entity_postings_;
  }
  const TokenPostingsMap<CellTokenRef>& cell_token_postings_map() const {
    return cell_token_postings_;
  }

 private:
  std::vector<AnnotatedTable> tables_;
  TokenPostingsMap<ColumnRef> header_postings_;
  TokenPostingsMap<int32_t> context_postings_;
  std::unordered_map<TypeId, std::vector<ColumnRef>> type_postings_;
  std::unordered_map<RelationId, std::vector<RelationRef>>
      relation_postings_;
  std::unordered_map<EntityId, std::vector<CellRef>> entity_postings_;
  // Match-support index: cell token -> (table, col, min cell tokens),
  // sorted unique by (table, col) — column-granular so engine bounds
  // track where E2 text can actually match, with the min cell size
  // feeding the Jaccard feasibility test.
  TokenPostingsMap<CellTokenRef> cell_token_postings_;
};

}  // namespace webtab

#endif  // WEBTAB_SEARCH_CORPUS_INDEX_H_
