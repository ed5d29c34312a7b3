#ifndef WEBTAB_SEARCH_SEARCH_WORKSPACE_H_
#define WEBTAB_SEARCH_SEARCH_WORKSPACE_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "exec/bit_vector.h"
#include "exec/score_batch.h"
#include "search/corpus_view.h"
#include "search/posting_cursor.h"
#include "search/query.h"

namespace webtab {
namespace search_internal {

/// Flat epoch-stamped EntityId -> score accumulator (open addressing,
/// power-of-two capacity). Begin() is O(touched of the previous use);
/// steady state performs no allocations. Used for the join engine's leg
/// expansions, where answers are always resolved entities.
class EntityAccumulator {
 public:
  void Begin();
  /// Insert-or-find; returns the slot's score for `+=`.
  double& Add(EntityId e);
  size_t size() const { return touched_.size(); }

  /// Extracts (entity, score) pairs sorted by (score desc, id asc) into
  /// `out` (reused), truncated to `limit` when limit >= 0.
  void ExtractRanked(int limit,
                     std::vector<std::pair<EntityId, double>>* out) const;

  /// Unordered access to this epoch's entries (insertion order).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (uint32_t i : touched_) fn(slots_[i].entity, slots_[i].score);
  }

 private:
  struct Slot {
    uint64_t epoch = 0;
    EntityId entity = kNa;
    double score = 0.0;
  };
  void Grow();

  std::vector<Slot> slots_;
  std::vector<uint32_t> touched_;
  // Starts at 1: slot epoch 0 means "never used", so the probe loops
  // terminate even if an accumulator is used before its first Begin().
  uint64_t epoch_ = 1;
};

/// The evidence accumulator behind every engine's ranking — the flat
/// replacement for the retired map-backed EvidenceAggregator. Answers
/// are keyed either by resolved entity id or by normalized answer text
/// (paper: "aggregate evidence in favor of known entities; cluster,
/// dedup, rank"); scores accumulate; the display string is the first
/// non-empty raw form from the lowest-indexed table (identical to
/// first-seen under the engines' ascending table scan). Text keys and
/// display strings live in a per-query arena, so steady state performs
/// no allocations.
class EvidenceMap {
 public:
  void Begin();
  void AddEntity(int32_t table, EntityId e, std::string_view raw_text,
                 double score);
  /// `normalized` must already be NormalizeText'd (empty keys are
  /// dropped, matching the reference aggregator); `raw` is the display
  /// form.
  void AddText(int32_t table, std::string_view normalized,
               std::string_view raw, double score);

  size_t size() const { return touched_.size(); }
  double max_score() const { return max_score_; }

  /// Emits the ranking into `out` (reused; zero steady-state
  /// allocations — surplus element strings are recycled through an
  /// internal spare pool when the result count shrinks, so their
  /// capacity survives). k <= 0 emits everything; k > 0 emits the
  /// first k under the documented (score desc, entity id asc —
  /// unresolved text answers carry kNa and sort first among ties —,
  /// text asc) tie-break.
  void EmitRanked(int k, std::vector<SearchResult>* out);

  /// Copies this epoch's scores into `scratch` (reused) for the prune
  /// rule's gap test.
  void CopyScores(std::vector<double>* scratch) const;

 private:
  struct Slot {
    uint64_t epoch = 0;
    uint64_t hash = 0;
    EntityId entity = kNa;  // kNa: text-keyed answer
    uint32_t key_off = 0, key_len = 0;    // text key (arena)
    uint32_t disp_off = 0, disp_len = 0;  // display string (arena)
    int32_t disp_table = 0;
    double score = 0.0;
  };

  std::string_view KeyOf(const Slot& s) const {
    return {arena_.data() + s.key_off, s.key_len};
  }
  std::string_view DisplayOf(const Slot& s) const {
    return {arena_.data() + s.disp_off, s.disp_len};
  }
  Slot& FindOrInsert(uint64_t hash, EntityId entity,
                     std::string_view text_key);
  void MaybeTakeDisplay(Slot* slot, int32_t table, std::string_view raw);
  void Grow();

  std::vector<Slot> slots_;
  std::vector<uint32_t> touched_;
  std::string arena_;
  uint64_t epoch_ = 1;  // Slot epoch 0 = never used (see EntityAccumulator).
  double max_score_ = 0.0;
  std::vector<uint32_t> order_;            // EmitRanked scratch
  std::vector<std::string> spare_strings_;  // recycled result texts
};

/// Memoizes the engines' shared E2 text predicate (CellMatchesText in
/// tests/reference_search.h: exact normalized match, else token-set
/// Jaccard >= 0.5) against one target string per query. Distinct cell
/// strings are evaluated once; repeats — the common case in entity
/// columns — cost a hash probe. Results are bit-identical to CellMatchesText: same
/// normalization, same distinct-token counts, same double division.
/// Keys are string_views into the corpus mapping (stable for the
/// query's duration); stale entries die with the epoch stamp.
class TextMatchMemo {
 public:
  /// `normalized_target` must already be NormalizeText'd (idempotent,
  /// so engines pass the query's pre-normalized E2 form). Begins a new
  /// epoch.
  void SetTarget(std::string_view normalized_target);
  bool Matches(std::string_view cell);

  /// The target's distinct normalized tokens (sorted). A cell can match
  /// only if it shares at least one of these (Jaccard >= 0.5 needs an
  /// intersection; exact match is a superset of that) — the soundness
  /// basis of the match-support prune. Empty when the target normalizes
  /// to zero tokens, in which case no token-based elimination is valid.
  std::span<const std::string> TargetTokens() const {
    return {target_tokens_.data(), target_token_count_};
  }

 private:
  struct Slot {
    uint64_t epoch = 0;
    uint64_t hash = 0;
    const char* ptr = nullptr;
    uint32_t len = 0;
    bool value = false;
  };
  bool Compute(std::string_view cell);
  void Grow();

  std::vector<Slot> slots_;
  size_t used_ = 0;
  uint64_t epoch_ = 1;  // Slot epoch 0 = never used (see EntityAccumulator).
  std::string target_;
  std::vector<std::string> target_tokens_;  // sorted unique, first n
  size_t target_token_count_ = 0;
  // Per-cell scratch.
  std::string norm_;
  std::vector<std::string> tokens_;
};

/// One candidate table of a select query's plan: the column runs (ranges
/// into SearchWorkspace::col_pool, or posting-run bounds for the
/// relation engine) plus the prune bound — an upper bound on the
/// evidence any single answer can still gain from this table.
struct PlannedTable {
  int32_t table = 0;
  uint32_t a_begin = 0, a_end = 0;  // answer-side columns / run begin-end
  uint32_t b_begin = 0, b_end = 0;  // E2-side columns
  double bound = 0.0;
};

inline int32_t PostingTable(const PlannedTable& p) { return p.table; }

}  // namespace search_internal

/// Reusable per-worker scratch for the table-at-a-time search kernel —
/// the search-side twin of PR 4's CandidateWorkspace. Holds the flat
/// evidence accumulator, the memoized E2 text matcher, the query plan
/// and column pools, and the top-k prune state. One instance serves any
/// number of sequential queries against any CorpusView backend; all
/// internal storage is epoch-stamped or cleared-in-place, so steady
/// state allocates nothing. Not thread-safe: one workspace per worker.
class SearchWorkspace {
 public:
  struct QueryStats {
    int64_t tables_planned = 0;
    int64_t tables_scored = 0;
    bool stopped_early = false;
  };

  /// One planned table's fate in the EXPLAIN decision log. The log is
  /// the counters' ledger: one entry per planned table (or per relation
  /// run for the join engine), in scan order, so
  ///   log.size()      == stats().tables_planned
  ///   count(kScored)  == stats().tables_scored
  ///   any non-scored  == stats().stopped_early
  /// hold exactly — asserted by the serving layer and the equivalence
  /// sweep.
  struct TableDecision {
    enum class Verdict : uint8_t {
      /// The table was scored (bound survived, or pruning was off).
      kScored,
      /// The per-table upper bound proved zero contribution, so the
      /// scan skipped it (exact elimination). The join engine uses this
      /// verdict for relation runs proven matchless.
      kPrunedZeroBound,
      /// Left unscanned behind a proven-safe early stop (zero suffix
      /// bound or the top-k gap test).
      kPrunedSuffix,
    };
    int32_t table = 0;
    Verdict verdict = Verdict::kScored;
    /// The table's per-answer upper bound — the number that justified a
    /// kPrunedZeroBound verdict. Meaningful only when
    /// decision_bounds_valid.
    double bound = 0.0;
    /// Remaining suffix mass after this table — the number the stop
    /// rule compared against. Meaningful only when
    /// decision_bounds_valid.
    double suffix_after = 0.0;
  };

  /// Begins a select-style query: resets the evidence map and seeds the
  /// text memo with the query's normalized E2 form.
  void BeginSelect(std::string_view normalized_e2);

  /// Memoized CellMatchesText(cell, target) against the BeginSelect /
  /// SetMatchTarget string.
  bool CellMatches(std::string_view cell) { return memo_.Matches(cell); }
  /// Retargets the memo mid-query (join legs ground different strings).
  void SetMatchTarget(std::string_view normalized_target) {
    memo_.SetTarget(normalized_target);
  }

  void AddEntity(int32_t table, EntityId e, std::string_view raw,
                 double score) {
    evidence_.AddEntity(table, e, raw, score);
  }
  void AddText(int32_t table, std::string_view raw, double score);

  /// The safe early-termination rule. `remaining` is the sum over
  /// unscanned tables of PlannedTable::bound — an upper bound on any
  /// single answer's missing evidence. Stopping is allowed only when
  /// more than k answers exist and every adjacent gap among the current
  /// top k+1 scores strictly exceeds `remaining`: then no unscanned
  /// table can reorder the prefix or promote an outside answer into it,
  /// so the pruned prefix equals the full ranking's. Ties (gap 0) block
  /// stopping, which is what keeps the documented tie-break exact.
  bool ShouldStop(int k, double remaining);

  /// Ranks the accumulated evidence into `out` (reused).
  void EmitRanked(const TopKOptions& topk, std::vector<SearchResult>* out);

  /// Builds `support_cols` for the tables a query will ask about — the
  /// columns of those tables where a cell could possibly text-match
  /// the current target, from the corpus's column-granular
  /// CellTokenPostings: a matching cell needs at least ceil(nb/2) of
  /// the target's nb tokens (CellMatchesText's Jaccard >= 0.5 forces
  /// it), so a column containing fewer distinct target tokens is
  /// provably matchless. `tables` must ascend by table (repeats are
  /// skipped): the select engines pass their plan, the join its leg-2
  /// relation postings. Each target token's posting list is galloped
  /// to each listed table, so the cost is tables x target tokens x
  /// log(gap), not the target's whole posting lists. Returns false
  /// only when the backend lacks match support, and engines must then
  /// eliminate nothing on it. A target with no tokens normalizes to "",
  /// which exact-matches only cells that also normalize to "": its
  /// support is the listed tables' columns in the index's empty-token
  /// sentinel row, and the result is true.
  bool BuildMatchSupport(
      const CorpusView& corpus,
      std::span<const search_internal::PlannedTable> tables);
  bool BuildMatchSupport(const CorpusView& corpus,
                         std::span<const RelationRef> tables);

  /// Membership tests against the last BuildMatchSupport result
  /// (sorted by (table, col)). Only tables passed to it can answer
  /// true.
  bool ColumnHasMatchSupport(int32_t table, int32_t col) const {
    auto cmp = [](const ColumnRef& r, const ColumnRef& key) {
      if (r.table != key.table) return r.table < key.table;
      return r.col < key.col;
    };
    return std::binary_search(support_cols.begin(), support_cols.end(),
                              ColumnRef{table, col}, cmp);
  }
  bool TableHasMatchSupport(int32_t table) const {
    auto it = std::lower_bound(
        support_cols.begin(), support_cols.end(), table,
        [](const ColumnRef& r, int32_t t) { return r.table < t; });
    return it != support_cols.end() && it->table == table;
  }

  const QueryStats& stats() const { return query_stats; }

  /// Arms EXPLAIN capture for subsequent queries (sticky across
  /// queries; BeginSelect clears the log, not the flag). Off — the
  /// default — costs one branch per planned table and keeps the
  /// zero-allocation contract; on, the kernel appends one
  /// TableDecision per planned table, growing decision_log.
  void EnableExplain(bool on) { explain_enabled_ = on; }
  bool explain_enabled() const { return explain_enabled_; }

  // --- Engine-facing scratch (internal to src/search/). ---
  std::vector<search_internal::PlannedTable> plan;
  std::vector<double> suffix_bound;       // suffix sums over `plan`
  std::vector<int32_t> col_pool;          // planned column ranges
  std::vector<ColumnRef> side_a, side_b;  // baseline header-union sides
  std::vector<int32_t> context_tables;    // baseline context bonus
  std::vector<ColumnRef> support_cols;    // BuildMatchSupport result

  // --- Vectorized batch kernel scratch (src/exec). ---
  /// Columnar lanes of the row-chunk scoring sweeps.
  exec::ScoreBatch batch;
  /// Per-plan-lane scoring verdicts, filled by ComputeColumnVerdicts
  /// before the score scan. For the type/baseline engines a lane is a
  /// col_pool position (b-side columns); for the relation engine it is
  /// a relation-posting index. has_entity: the column holds at least
  /// one E2-annotated cell, so the entity comparison can fire.
  /// has_support: the column can text-match the target (or the backend
  /// cannot prove otherwise), so the memo probe can fire. A lane with
  /// neither is a proven no-op and its column scan is skipped exactly.
  exec::BitVector lane_has_entity, lane_has_support;
  /// Answer-side gathered lanes for a scoring chunk: slot k holds
  /// column k's rows at stride exec::kBatchSize. Grown past the high
  /// water mark only (EnsureGatherCapacity), zero steady-state
  /// allocations.
  std::vector<EntityId> gather_entities;
  std::vector<std::string_view> gather_cells;
  void EnsureGatherCapacity(uint32_t num_columns) {
    const size_t need = size_t{num_columns} * exec::kBatchSize;
    if (gather_entities.size() < need) gather_entities.resize(need);
    if (gather_cells.size() < need) gather_cells.resize(need);
  }

  search_internal::EntityAccumulator leg_acc;  // join leg expansion
  std::vector<std::pair<EntityId, double>> binding_list;  // join bindings
  std::string norm_scratch;  // join E3 normalization
  QueryStats query_stats;   // written by the engines per query
  /// EXPLAIN decision log for the last query (empty unless
  /// explain_enabled()); one entry per planned table in scan order.
  std::vector<TableDecision> decision_log;
  /// True when decision_log's bound/suffix_after fields were really
  /// computed (pruned select scan); false for prune-off scans and the
  /// join engine, whose eliminations are support proofs, not bounds.
  bool decision_bounds_valid = false;

 private:
  search_internal::EvidenceMap evidence_;
  search_internal::TextMatchMemo memo_;
  std::string text_key_scratch_;
  std::vector<double> score_scratch_;
  // Exponential backoff for the O(answers) gap test (see ShouldStop).
  int64_t stop_check_skip_ = 0;
  int64_t stop_check_backoff_ = 1;
  bool explain_enabled_ = false;

  // BuildMatchSupport scratch. One target token's cell-token posting at
  // the current table, tagged with the token's bloom bit: a column's
  // group needs to know which token each entry came from to run the
  // pairwise co-occurrence test.
  struct SupportEntry {
    int32_t col;
    int32_t min_tokens;
    uint64_t bit;   // CellTokenMask(target token)
    uint64_t cooc;  // posting's co-occurrence bloom
  };
  std::vector<SupportEntry> support_scratch_;  // one table, sorted by col
  /// One forward cursor per target token (or the empty-token sentinel).
  struct SupportCursor {
    search_internal::PostingCursor<CellTokenRef> postings;
    uint64_t bit;  // CellTokenMask(target token)
  };
  std::vector<SupportCursor> support_cursors_;

  template <typename Ref>
  bool BuildSupport(const CorpusView& corpus, std::span<const Ref> tables);
  void GatherTableSupport(int32_t table);
};

/// Per-thread workspace backing the convenience engine wrappers (the
/// engines never nest, so all four share one instance per thread).
/// Hot-path callers should own a workspace instead.
SearchWorkspace& ThreadLocalSearchWorkspace();

}  // namespace webtab

#endif  // WEBTAB_SEARCH_SEARCH_WORKSPACE_H_
