#ifndef WEBTAB_INDEX_COLUMN_PROBE_H_
#define WEBTAB_INDEX_COLUMN_PROBE_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "index/lemma_index.h"
#include "table/table.h"

namespace webtab {

/// Column-major batched lemma probe — the §4.3 entity probe restructured
/// around the redundancy real web tables exhibit (cells in a column
/// repeat values heavily, and distinct cells of one column share tokens):
///
///   1. every cell of the column is deduped to a distinct string,
///   2. every distinct string is tokenized exactly once,
///   3. every distinct token is resolved against the LemmaIndexView
///      exactly once (one lookup + IDF + postings fetch per token,
///      shared by all cells containing it),
///   4. every distinct cell is scored in one sweep over its token
///      occurrences into a dense global-lemma accumulator: each posting
///      maps to g = entity_lemma_start[id] + lemma_ord by arithmetic
///      alone, so the hot loop never hashes.
///
/// Scores, ranking and tie-breaks are bit-identical to per-cell
/// LemmaIndexView::ProbeEntities on both backends (asserted by
/// tests/candidate_equivalence_test.cc). All storage lives in the batch
/// and is reused across columns and tables; the dense accumulator is
/// sized once per catalog. Not thread-safe; use one per worker.
class ColumnProbeBatch {
 public:
  ColumnProbeBatch() = default;
  ColumnProbeBatch(const ColumnProbeBatch&) = delete;
  ColumnProbeBatch& operator=(const ColumnProbeBatch&) = delete;

  /// Probes column `c` of `table`: top-`max_hits` entity hits per
  /// distinct cell string, then drops hits scoring below `min_score`
  /// (the ProbeEntities-then-filter order of candidate generation).
  /// Results stay valid until the next ProbeColumn call.
  void ProbeColumn(const Table& table, int c, const LemmaIndexView& index,
                   int max_hits, double min_score);

  /// Distinct cell strings seen in the probed column.
  int num_distinct() const { return num_distinct_; }

  /// Distinct index of row `r`'s cell.
  int DistinctOfRow(int r) const { return row_distinct_[r]; }

  /// Scored hits for distinct cell `d`, best first.
  const std::vector<LemmaHit>& Hits(int d) const { return hits_[d]; }

  /// Lifetime count of postings entries visited by the scoring sweep.
  int64_t postings_walked() const { return postings_walked_; }

 private:
  /// One distinct token of the column, resolved once against the index.
  struct LocalToken {
    double idf = 0.0;
    std::span<const LemmaPosting> postings;
  };

  /// Sizes the dense accumulator for `index`'s catalog (no-op when the
  /// catalog is unchanged since the last call).
  void EnsureDenseAccumulator(const LemmaIndexView& index);

  /// Interns `token`, resolving it against `index` when first seen.
  int InternToken(const std::string& token, const LemmaIndexView& index);

  /// Scores distinct cell `d` into hits_[d].
  void ScoreDistinct(int d, int max_hits, double min_score);

  /// Folds the touched lemmas into hits_[d]: an exact bounded top-k of
  /// objects, each at its best lemma, screened by min_score and, once
  /// the top is full, by its k-th score.
  void ReduceTouched(int d, int max_hits, double min_score,
                     double query_norm, size_t ntokens);

  // --- Per-column state (cleared by ProbeColumn). ---
  int num_distinct_ = 0;
  std::vector<int> row_distinct_;
  /// Keys view the table's cell storage, which outlives the probe.
  std::unordered_map<std::string_view, int> distinct_of_text_;

  /// Token occurrences per distinct cell, flattened: distinct `d` owns
  /// cell_tokens_[cell_token_begin_[d] .. cell_token_begin_[d+1]).
  std::vector<int> cell_tokens_;
  std::vector<size_t> cell_token_begin_;

  /// Column-local token table. Map keys own their text (tokens are
  /// transient Tokenize output).
  std::unordered_map<std::string, int> token_local_;
  std::vector<LocalToken> tokens_;
  /// TokenizeInto buffer; element capacities persist across cells.
  std::vector<std::string> tokenize_scratch_;

  // --- Dense global-lemma accumulator (sized per catalog). ---
  /// CSR base: lemma (id, ord) lives at entity_lemma_start_[id] + ord.
  /// Ordinals use the same 16-bit truncation as the per-cell kernel's
  /// packed key, so any collision merges exactly the same pairs.
  const CatalogView* dense_catalog_ = nullptr;
  std::vector<int64_t> entity_lemma_start_;
  int64_t epoch_ = 0;
  std::vector<double> acc_;       // Per global lemma: idf^2 overlap sum.
  std::vector<int64_t> stamp_;    // Per global lemma: epoch of last touch.
  std::vector<int32_t> len_;      // Per global lemma: last-seen token count.
  /// Lemmas touched by the current cell, as parallel (global, id, ord)
  /// lanes — the batch the score reduction runs over.
  std::vector<int64_t> touched_g_;
  std::vector<int32_t> touched_id_;
  std::vector<int32_t> touched_ord_;

  /// Per-len scoring cache (see ReduceTouched): lemma norm, the exact
  /// kernel denominator fl(qn * ln), and a conservative prescreen
  /// threshold, stamped by the scoring epoch so entries lazily refresh
  /// per cell. Lens past the cache take the uncached exact path.
  struct LenCache {
    int64_t stamp = 0;
    double ln = 0.0;
    double denom = 0.0;
    double screen = -1.0;
  };
  static constexpr int32_t kLenCacheSize = 160;
  std::vector<LenCache> len_cache_;

  // --- Per-object reduction scratch (sized per catalog). ---
  int64_t object_epoch_ = 0;
  /// Per object id: object_epoch_ while the object is in top_.
  std::vector<int64_t> object_stamp_;
  /// The current cell's top objects, best first (score desc, id asc).
  std::vector<LemmaHit> top_;

  std::vector<std::vector<LemmaHit>> hits_;

  int64_t postings_walked_ = 0;
};

}  // namespace webtab

#endif  // WEBTAB_INDEX_COLUMN_PROBE_H_
