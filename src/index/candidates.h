#ifndef WEBTAB_INDEX_CANDIDATES_H_
#define WEBTAB_INDEX_CANDIDATES_H_

#include <map>
#include <span>
#include <utility>
#include <vector>

#include "catalog/closure.h"
#include "index/column_probe.h"
#include "index/lemma_index.h"
#include "table/table.h"

namespace webtab {

/// Knobs for the candidate generation of §4.3. The paper reports typical
/// ambiguity of 7-8 entities per cell and hundreds of types per column;
/// the caps keep factor tables bounded while preserving that regime.
struct CandidateOptions {
  int max_entities_per_cell = 8;  // Paper §6.1.1: typically 7-8 per cell.
  int max_types_per_column = 48;
  int max_relations_per_pair = 16;
  double min_entity_score = 0.15;
  /// Columns whose numeric fraction exceeds this get no entity candidates
  /// (the paper annotates non-numeric columns; §6.1.2).
  double numeric_column_threshold = 0.7;
};

/// Candidate label sets for one table (before adding the `na` option).
/// RelationCandidate lives in catalog/ids.h.
struct TableCandidates {
  /// cells[r][c]: scored entity candidates for cell (r,c), best first.
  std::vector<std::vector<std::vector<LemmaHit>>> cells;
  /// column_types[c]: candidate types, from ∪_{E ∈ Erc} T(E) (§4.3),
  /// scored by support and specificity, best first.
  std::vector<std::vector<TypeId>> column_types;
  /// Candidate relations per column pair (c < c'); pairs with no
  /// candidates are absent.
  std::map<std::pair<int, int>, std::vector<RelationCandidate>> relations;
};

/// Reusable scratch for GenerateCandidates: the column probe batch plus
/// the per-column distinct structure that the type-space and relation
/// phases consume, and flat vote/support scratch. One per worker
/// (annotators, trainers and serving workers each own one); reuse across
/// tables keeps steady-state candidate generation free of per-cell
/// allocations. A default-constructed instance is ready to use.
struct CandidateWorkspace {
  ColumnProbeBatch batch;

  /// Distinct-cell structure of each probed column, retained for the
  /// type and relation phases. Columns without entity candidates
  /// (numeric) have num_distinct == 0.
  struct ColumnDistincts {
    int num_distinct = 0;
    std::vector<int> row_distinct;   // Row -> distinct index, or -1.
    std::vector<int> row_count;      // Distinct -> multiplicity.
    std::vector<int> first_row;      // Distinct -> first row carrying it.
    /// Distinct d's hit ids, ascending, are
    /// hit_ids[hit_begin[d] .. hit_begin[d + 1]).
    std::vector<int> hit_begin;
    std::vector<EntityId> hit_ids;

    std::span<const EntityId> HitIds(int d) const {
      return std::span<const EntityId>(hit_ids).subspan(
          hit_begin[d], hit_begin[d + 1] - hit_begin[d]);
    }
  };
  std::vector<ColumnDistincts> columns;

  /// Relation phase: one key per row, d1 * nd2 + d2 over the distinct
  /// indices of the column pair, sorted so each distinct row-pair is a
  /// run. Reused across pairs.
  std::vector<int64_t> pair_keys;

  /// Type phase: dense per-TypeId support with epoch stamps instead of a
  /// per-cell std::set + per-column hash map. `type_sup_stamp` validates
  /// `type_support` entries for the current column epoch; `type_cell_stamp`
  /// dedupes a type within one distinct cell (the set's old job). Stamps
  /// never equal 0, so freshly grown entries read as untouched.
  std::vector<int> type_support;
  std::vector<uint32_t> type_sup_stamp;
  std::vector<uint32_t> type_cell_stamp;
  uint32_t type_epoch = 0;
  uint32_t type_cell_seq = 0;
  std::vector<TypeId> type_touched;
  struct ScoredType {
    TypeId type;
    int support;
    double specificity;
  };
  std::vector<ScoredType> type_scored;

  /// Relation-vote phase: dense votes indexed rel*2+swapped with the same
  /// stamping discipline, replacing the std::map accumulator.
  std::vector<int> rel_votes;
  std::vector<uint32_t> rel_stamp;
  uint32_t rel_epoch = 0;
  std::vector<int32_t> rel_touched;
  std::vector<std::pair<RelationCandidate, int>> rel_ranked;
};

/// Runs the §4.3 candidate generation as a column-major batched
/// pipeline: each column's cells are deduped and probed in one
/// ColumnProbeBatch sweep (each distinct token's postings fetched once),
/// the type space is scored over distinct cells weighted by multiplicity,
/// and relation discovery votes over distinct row-pairs. Results are
/// identical to probing every cell independently (asserted against a
/// reference per-cell prober in tests/candidate_equivalence_test.cc).
/// Works against any LemmaIndexView backend (in-memory or snapshot).
/// `workspace` may be null (a transient one is used); passing a
/// persistent workspace avoids rebuilding scratch per table.
TableCandidates GenerateCandidates(const Table& table,
                                   const LemmaIndexView& index,
                                   ClosureCache* closure,
                                   const CandidateOptions& options,
                                   CandidateWorkspace* workspace = nullptr);

/// Same, into `out`, reusing its storage (the annotator keeps one).
void GenerateCandidates(const Table& table, const LemmaIndexView& index,
                        ClosureCache* closure,
                        const CandidateOptions& options,
                        CandidateWorkspace* workspace, TableCandidates* out);

}  // namespace webtab

#endif  // WEBTAB_INDEX_CANDIDATES_H_
