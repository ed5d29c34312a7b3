#ifndef WEBTAB_SEARCH_CORPUS_VIEW_H_
#define WEBTAB_SEARCH_CORPUS_VIEW_H_

#include <cstdint>
#include <span>
#include <string_view>

#include "catalog/ids.h"

namespace webtab {

/// Posting payloads. Fixed all-int32 layouts so the same element type
/// backs in-memory vectors and mmap'd snapshot arrays verbatim.
struct ColumnRef {
  int32_t table = 0;
  int32_t col = 0;
};
static_assert(sizeof(ColumnRef) == 8, "postings are mmap'd verbatim");

struct RelationRef {
  int32_t table = 0;
  int32_t c1 = 0;
  int32_t c2 = 0;
  int32_t swapped = 0;  // 0/1; int32 keeps the struct pad-free on disk.
};
static_assert(sizeof(RelationRef) == 16, "postings are mmap'd verbatim");

struct CellRef {
  int32_t table = 0;
  int32_t row = 0;
  int32_t col = 0;
};
static_assert(sizeof(CellRef) == 12, "postings are mmap'd verbatim");

/// Cell-token posting: one column that contains the token in at least
/// one cell. `min_tokens` is the smallest distinct-token count of any
/// such cell — the match-support probe needs it because a single shared
/// token only satisfies Jaccard >= 0.5 against a short enough cell
/// (3*inter >= na + nb), so e.g. a two-token person name cannot match a
/// full-name cell that shares just the given name. `cooc` is a 64-bit
/// bloom over the *other* distinct tokens sharing a cell with this one
/// in this column (union across cells): a multi-token overlap needs two
/// target tokens in one cell, which requires their mutual bloom bits —
/// a column holding "Pavel Novak" and "Maria Kovac" has both tokens of
/// "Pavel Kovac" but no co-occurring pair, so it is provably dead.
struct CellTokenRef {
  int32_t table = 0;
  int32_t col = 0;
  int32_t min_tokens = 0;
  uint32_t reserved = 0;  // Zero on disk; keeps cooc 8-byte aligned.
  uint64_t cooc = 0;
};
static_assert(sizeof(CellTokenRef) == 24, "postings are mmap'd verbatim");

/// Bloom mask for a token's appearance in CellTokenRef::cooc — two
/// bits from independent slices of an FNV-1a hash (membership requires
/// both, squaring the false-positive rate). A fixed inline hash so the
/// build side (corpus_index, snapshot writer) and the query side
/// (BuildMatchSupport) agree across processes — std::hash is not
/// guaranteed stable between binaries.
inline uint64_t CellTokenMask(std::string_view token) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : token) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return (1ull << (h & 63)) | (1ull << ((h >> 6) & 63));
}

/// Read-only access to an annotated table corpus and its postings (the
/// paper indexes 25M tables with Lucene; same access paths here):
///  - header/context token postings for the string-only baseline,
///  - column-type postings and pair-relation postings for the hardened
///    engines,
///  - per-table cell text and annotation access.
///
/// Two backends: the in-memory CorpusIndex build, and the zero-copy
/// snapshot view over an mmap'd file. All four search engines run against
/// this interface and produce identical rankings on both.
class CorpusView {
 public:
  virtual ~CorpusView() = default;

  virtual int64_t num_tables() const = 0;

  // --- Per-table access (t indexes the corpus, not the source id). ---
  virtual int rows(int t) const = 0;
  virtual int cols(int t) const = 0;
  virtual int64_t table_id(int t) const = 0;
  virtual std::string_view cell(int t, int r, int c) const = 0;
  virtual std::string_view header(int t, int c) const = 0;
  virtual std::string_view context(int t) const = 0;

  // --- Per-table annotation access. ---
  virtual TypeId ColumnType(int t, int c) const = 0;
  virtual EntityId CellEntity(int t, int r, int c) const = 0;
  /// Relation on the ordered pair (c1 < c2); {kNa, false} when absent.
  virtual RelationCandidate RelationOf(int t, int c1, int c2) const = 0;

  /// Batched column gather: fills entities[i] = CellEntity(t, row_begin
  /// + i, c) and cells[i] = cell(t, row_begin + i, c) for i in [0, n).
  /// Either output may be null to skip that lane. The batch scoring
  /// kernels read cells exclusively through this — one virtual call per
  /// (column, row chunk) instead of two per cell — and both backends
  /// override it with direct strided walks over their storage. The
  /// default loops the scalar accessors, so alternative CorpusView
  /// implementations stay correct without writing a gather.
  virtual void GatherColumn(int t, int c, int row_begin, int n,
                            EntityId* entities,
                            std::string_view* cells) const {
    if (entities != nullptr) {
      for (int i = 0; i < n; ++i) {
        entities[i] = CellEntity(t, row_begin + i, c);
      }
    }
    if (cells != nullptr) {
      for (int i = 0; i < n; ++i) cells[i] = cell(t, row_begin + i, c);
    }
  }

  // --- Postings. ---
  //
  // Ordering contract: every postings list is sorted by non-decreasing
  // table index. The search kernel's galloping cursors
  // (posting_cursor.h) binary-search inside the spans, so an
  // out-of-order list would silently drop or double-count evidence.
  // The in-memory build guarantees it by construction (checked at
  // build time); snapshot files are checked by
  // SnapshotCorpusView::DeepValidate under Snapshot::OpenValidated.
  //
  /// Tables whose header row contains `token` (any column).
  virtual std::span<const ColumnRef> HeaderPostings(
      std::string_view token) const = 0;
  /// Tables whose context contains `token`.
  virtual std::span<const int32_t> ContextPostings(
      std::string_view token) const = 0;
  /// Columns annotated with type `t` — including via subtype when the
  /// index was built with a closure: postings are stored on the annotated
  /// type and every catalog ancestor.
  virtual std::span<const ColumnRef> TypePostings(TypeId t) const = 0;
  /// Column pairs annotated with relation `b`.
  virtual std::span<const RelationRef> RelationPostings(
      RelationId b) const = 0;
  /// Cells annotated with entity `e`.
  virtual std::span<const CellRef> EntityPostings(EntityId e) const = 0;

  // --- Match-support index (optional capability). ---
  //
  // A cell-token index: for every token appearing in any cell, the
  // (table, column) pairs whose column contains it. The select engines
  // use it to prove a candidate column contributes zero text evidence
  // (CellMatchesText requires enough shared tokens) and drop it from
  // their bounds exactly. It defaults to "absent" so alternative
  // CorpusView implementations keep working — engines then fall back to
  // the unrefined ascending scan.

  /// True when CellTokenPostings is populated.
  virtual bool HasMatchSupport() const { return false; }
  /// Columns with at least one cell containing `token`, sorted by
  /// (table, col), unique, each carrying the min distinct-token count
  /// among the containing cells. Column-granular on purpose: engines
  /// match E2 text only against specific columns, and a token common
  /// elsewhere in the table must not keep the column alive.
  virtual std::span<const CellTokenRef> CellTokenPostings(
      std::string_view /*token*/) const {
    return {};
  }
};

}  // namespace webtab

#endif  // WEBTAB_SEARCH_CORPUS_VIEW_H_
