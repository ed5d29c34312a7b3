#ifndef WEBTAB_SEARCH_SELECT_KERNEL_H_
#define WEBTAB_SEARCH_SELECT_KERNEL_H_

#include <algorithm>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "search/posting_cursor.h"
#include "search/search_workspace.h"

namespace webtab {
namespace search_internal {

/// Appends `run`'s distinct column indices to `pool` in ascending order
/// (the reference engines' std::set semantics) and returns the appended
/// [begin, end) range. Runs are one table's worth of postings, almost
/// always a handful of columns, so the fast path dedups through a
/// fixed stack ring with an insertion sort — no tail std::sort, no
/// erase, one bulk append into the pool per run. Oversized runs fall
/// back to the sort+unique treatment with identical semantics.
inline std::pair<uint32_t, uint32_t> AppendUniqueCols(
    std::span<const ColumnRef> run, std::vector<int32_t>* pool) {
  const uint32_t begin = static_cast<uint32_t>(pool->size());
  constexpr size_t kRing = 64;
  if (run.size() <= kRing) {
    int32_t ring[kRing];
    size_t n = 0;
    for (const ColumnRef& ref : run) {
      const int32_t c = ref.col;
      size_t pos = n;
      while (pos > 0 && ring[pos - 1] > c) --pos;
      if (pos > 0 && ring[pos - 1] == c) continue;  // duplicate
      for (size_t j = n; j > pos; --j) ring[j] = ring[j - 1];
      ring[pos] = c;
      ++n;
    }
    pool->insert(pool->end(), ring, ring + n);
    return {begin, static_cast<uint32_t>(pool->size())};
  }
  for (const ColumnRef& ref : run) pool->push_back(ref.col);
  std::sort(pool->begin() + begin, pool->end());
  pool->erase(std::unique(pool->begin() + begin, pool->end()),
              pool->end());
  return {begin, static_cast<uint32_t>(pool->size())};
}

/// Counts one posting list's entries at successive tables via a
/// forward galloping cursor — the engines' per-table n_e2 probe for
/// the refined bounds. Tables must be asked in ascending order, which
/// is exactly the order bound_of runs over the plan.
template <typename Ref>
class PostingRunCounter {
 public:
  explicit PostingRunCounter(std::span<const Ref> postings)
      : cursor_(postings) {}

  int32_t CountAt(int32_t table) {
    return static_cast<int32_t>(Run(table).size());
  }

  /// Entries at (table, col). Entity postings are built column-major
  /// within a table (corpus_index.cc's c-then-r loop, serialized
  /// verbatim by the snapshot writer), so each run is col-sorted.
  /// Repeated probes of one table reuse the cached run.
  int32_t CountAtCol(int32_t table, int32_t col) {
    std::span<const Ref> run = Run(table);
    auto lo = std::lower_bound(
        run.begin(), run.end(), col,
        [](const Ref& r, int32_t c) { return r.col < c; });
    auto hi = std::upper_bound(
        lo, run.end(), col,
        [](int32_t c, const Ref& r) { return c < r.col; });
    return static_cast<int32_t>(hi - lo);
  }

 private:
  std::span<const Ref> Run(int32_t table) {
    if (table == run_table_) return run_;
    cursor_.SeekTable(table);
    run_table_ = table;
    run_ = (!cursor_.done() && cursor_.table() == table)
               ? cursor_.TakeRun()
               : std::span<const Ref>();
    return run_;
  }

  PostingCursor<Ref> cursor_;
  int32_t run_table_ = -1;
  std::span<const Ref> run_;
};

/// Fills every plan entry's bound in one ascending pass with one
/// forward E2-run counter. A table with no match support and no
/// E2-annotated cell can yield neither a text fallback nor an annotated
/// hit, so its bound is exactly 0.0 — the same double the engine's
/// refined formula gives it — and only the other tables pay
/// `refined_of(p, &e2_runs)`, which shares the counter. Engines
/// without an entity path pass empty E2 spans.
template <typename RefinedFn>
void FillRefinedBounds(SearchWorkspace* ws,
                       std::span<const CellRef> e2_postings,
                       RefinedFn&& refined_of) {
  PostingRunCounter<CellRef> e2_runs(e2_postings);
  for (PlannedTable& p : ws->plan) {
    const bool alive = ws->TableHasMatchSupport(p.table) ||
                       e2_runs.CountAt(p.table) > 0;
    p.bound = alive ? refined_of(p, &e2_runs) : 0.0;
  }
}

/// Sizes the scoring-verdict lanes (all bits clear). Engines call this
/// once after planning; FillColumnVerdicts / FillRelationVerdicts then
/// populate one scored table's lanes at a time — lazily, so pruned
/// scans never pay verdicts for tables they skip. Laziness is sound
/// because score_table runs in ascending table order, which is exactly
/// the forward posting counter's requirement.
inline void PrepareVerdictLanes(SearchWorkspace* ws, size_t num_lanes) {
  ws->lane_has_entity.Resize(static_cast<uint32_t>(num_lanes));
  ws->lane_has_support.Resize(static_cast<uint32_t>(num_lanes));
}

/// Fills ws->lane_has_entity / lane_has_support for one scored table's
/// E2-side columns (lane = col_pool position over [b_begin, b_end)) —
/// the scoring-side verdict pass. has_entity: the column holds an
/// E2-annotated cell, so the batch scorer gathers the entity lane and
/// runs the comparison. has_support: the column can text-match the
/// target (or the backend cannot prove otherwise), so the memo probe
/// runs. Both false proves the column's scan emits no Add at all, and
/// the scorer skips it — exact, including on full-rank scans where the
/// bound screen never runs.
inline void FillColumnVerdicts(SearchWorkspace* ws, const PlannedTable& p,
                               PostingRunCounter<CellRef>* e2_runs,
                               bool e2_present, bool support_valid) {
  for (uint32_t bi = p.b_begin; bi < p.b_end; ++bi) {
    const int32_t col = ws->col_pool[bi];
    ws->lane_has_entity.Assign(
        bi, e2_present && e2_runs->CountAtCol(p.table, col) > 0);
    ws->lane_has_support.Assign(
        bi, !support_valid || ws->ColumnHasMatchSupport(p.table, col));
  }
}

/// Relation-engine variant of FillColumnVerdicts: lanes are
/// relation-posting indices and the probed column is each pair's
/// object column.
inline void FillRelationVerdicts(SearchWorkspace* ws,
                                 const PlannedTable& p,
                                 std::span<const RelationRef> postings,
                                 PostingRunCounter<CellRef>* e2_runs,
                                 bool e2_present, bool support_valid) {
  for (uint32_t ri = p.a_begin; ri < p.a_end; ++ri) {
    const RelationRef& ref = postings[ri];
    const int32_t object_col = ref.swapped ? ref.c1 : ref.c2;
    ws->lane_has_entity.Assign(
        ri, e2_present && e2_runs->CountAtCol(p.table, object_col) > 0);
    ws->lane_has_support.Assign(
        ri,
        !support_valid || ws->ColumnHasMatchSupport(p.table, object_col));
  }
}

/// Scores one E2-side column of `table` kBatchSize rows at a time — the
/// row-chunk scorer every engine's scan runs on. Per chunk it gathers
/// only the lanes the column's verdicts need, then compacts the rows
/// that score into the selection vector (batch->active ascending,
/// parallel row scores in batch->score): a cell annotated with `e2`
/// scores `hit`, otherwise a text match against the workspace target
/// scores `fallback`. `on_chunk(rb, n)` runs only for chunks with
/// survivors, so their answer-side gathers are lazy. A column with
/// neither verdict is a proven no-op and is skipped outright. The memo
/// is probed for exactly the cells the reference engines probe, and an
/// entity hit short-circuits it.
template <typename OnChunkFn>
void ScoreColumnChunks(SearchWorkspace* ws, const CorpusView& index,
                       int32_t table, int32_t col, EntityId e2,
                       bool has_entity, bool has_support, double hit,
                       double fallback, OnChunkFn&& on_chunk) {
  if (!has_entity && !has_support) return;
  exec::ScoreBatch& batch = ws->batch;
  const int num_rows = index.rows(table);
  for (int rb = 0; rb < num_rows; rb += static_cast<int>(exec::kBatchSize)) {
    const int n = std::min(static_cast<int>(exec::kBatchSize), num_rows - rb);
    index.GatherColumn(table, col, rb, n,
                       has_entity ? batch.entity.data() : nullptr,
                       has_support ? batch.text.data() : nullptr);
    uint32_t* tids = batch.active.mutable_data();
    uint32_t m = 0;
    // A lane the verdicts left ungathered is never read: each test
    // checks its verdict first.
    for (int i = 0; i < n; ++i) {
      double rs = 0.0;
      if (has_entity && batch.entity[i] == e2) {
        rs = hit;
      } else if (has_support && ws->CellMatches(batch.text[i])) {
        rs = fallback;
      }
      tids[m] = static_cast<uint32_t>(i);
      batch.score[m] = rs;
      m += static_cast<uint32_t>(rs > 0.0);
    }
    batch.active.SetSize(m);
    if (m > 0) on_chunk(rb, n);
  }
}

/// The (b-column × row chunks × a-columns) sweep of the col_pool
/// engines (type, baseline): each b-column goes through
/// ScoreColumnChunks under its verdict lanes, and each surviving chunk
/// gathers the answer-side lanes once and emits `emit(k, i, rs)` in the
/// reference engines' exact (b asc, row asc, a asc) order — so every
/// Add call, and with it every accumulated double and display string,
/// is bit-identical to tests/reference_search.h.
template <typename EmitFn>
void ScoreTableBatched(SearchWorkspace* ws, const CorpusView& index,
                       const PlannedTable& p, EntityId e2, double hit,
                       double fallback, bool need_answer_entities,
                       EmitFn&& emit) {
  const exec::ScoreBatch& batch = ws->batch;
  const int table = p.table;
  const uint32_t a_count = p.a_end - p.a_begin;
  if (a_count == 0) return;
  ws->EnsureGatherCapacity(a_count);
  for (uint32_t bi = p.b_begin; bi < p.b_end; ++bi) {
    const int c2 = ws->col_pool[bi];
    ScoreColumnChunks(
        ws, index, table, c2, e2, ws->lane_has_entity.Test(bi),
        ws->lane_has_support.Test(bi), hit, fallback, [&](int rb, int n) {
          for (uint32_t k = 0; k < a_count; ++k) {
            index.GatherColumn(
                table, ws->col_pool[p.a_begin + k], rb, n,
                need_answer_entities
                    ? ws->gather_entities.data() + k * exec::kBatchSize
                    : nullptr,
                ws->gather_cells.data() + k * exec::kBatchSize);
          }
          const uint32_t m = batch.active.size();
          for (uint32_t j = 0; j < m; ++j) {
            const uint32_t i = batch.active[j];
            const double rs = batch.score[j];
            for (uint32_t k = 0; k < a_count; ++k) {
              if (ws->col_pool[p.a_begin + k] == c2) continue;
              emit(k, i, rs);
            }
          }
        });
  }
}

/// Fills ws->suffix_bound: suffix_bound[i] = Σ plan[j].bound for j > i —
/// the prune rule's "remaining evidence mass" after scoring table i.
inline void ComputeSuffixBounds(SearchWorkspace* ws) {
  ws->suffix_bound.resize(ws->plan.size());
  double acc = 0.0;
  for (size_t i = ws->plan.size(); i-- > 0;) {
    ws->suffix_bound[i] = acc;
    acc += ws->plan[i].bound;
  }
}

/// Folds one finished query's plan/scan stats into the process-wide
/// registry and the attached trace (if any). Once per query, off the
/// per-table loop: the registry totals mirror the per-query stats the
/// serving layer already reports. Called by RunPlannedTables for the
/// select engines and by JoinSearch directly (its stats count relation
/// runs rather than select-plan tables).
inline void RecordQueryStatsMetrics(
    const SearchWorkspace::QueryStats& stats) {
  static obs::Counter* planned =
      obs::MetricsRegistry::Get().GetCounter("search.tables_planned");
  static obs::Counter* scored =
      obs::MetricsRegistry::Get().GetCounter("search.tables_scored");
  static obs::Counter* stops =
      obs::MetricsRegistry::Get().GetCounter("search.prune_stops");
  planned->Add(stats.tables_planned);
  scored->Add(stats.tables_scored);
  if (stats.stopped_early) stops->Add(1);
  obs::TraceAddCounter("tables_planned", stats.tables_planned);
  obs::TraceAddCounter("tables_scored", stats.tables_scored);
  if (stats.stopped_early) obs::TraceAddCounter("prune_stops", 1);
}

/// The shared execution skeleton every select engine runs after
/// building its plan: record plan stats, compute per-table bounds and
/// suffix sums when pruning applies (`fill_bounds()` writes every
/// plan entry's upper bound on one answer's evidence), then score
/// tables in ascending order with the safe early-stop check after
/// each.
/// Keeping this in one place keeps the stop condition and stats
/// accounting from drifting apart across engines.
///
/// Two exact eliminations besides the PR 5 gap test:
///   - A table whose bound is 0 is skipped without scoring: a zero
///     upper bound proves it contributes no Add call at all, so the
///     reference scan of the same table is a no-op and skipping it
///     leaves every accumulated double bit-identical.
///   - When the suffix bound after table pi is exactly 0, every
///     remaining table is a proven no-op and the scan ends with the
///     ranking equal to the full one (ShouldStop never fires on
///     remaining == 0, so this stop must live here).
/// Scan order stays ascending — reordering would change double
/// summation order and break bit-identity with the reference.
template <typename BoundFillFn, typename ScoreFn>
void RunPlannedTables(SearchWorkspace* ws, const TopKOptions& topk,
                      BoundFillFn&& fill_bounds, ScoreFn&& score_table) {
  using Decision = SearchWorkspace::TableDecision;
  ws->query_stats.tables_planned = static_cast<int64_t>(ws->plan.size());
  const bool prune = topk.k > 0 && topk.prune;
  // EXPLAIN capture: one branch per table when off (the serving
  // default), so the zero-allocation / <=2% overhead contract holds;
  // when on, every planned table lands in the decision log with the
  // bound that decided its fate.
  const bool explain = ws->explain_enabled();
  if (explain) ws->decision_bounds_valid = prune;
  if (prune) {
    obs::TraceSpan bound_span("search.bounds");
    fill_bounds();
    ComputeSuffixBounds(ws);
  }
  {
    obs::TraceSpan score_span("search.score");
    for (size_t pi = 0; pi < ws->plan.size(); ++pi) {
      const double bound = prune ? ws->plan[pi].bound : 0.0;
      const double suffix = prune ? ws->suffix_bound[pi] : 0.0;
      if (prune && bound <= 0.0) {
        if (explain) {
          ws->decision_log.push_back({ws->plan[pi].table,
                                      Decision::Verdict::kPrunedZeroBound,
                                      bound, suffix});
        }
        continue;
      }
      score_table(ws->plan[pi]);
      ++ws->query_stats.tables_scored;
      if (explain) {
        ws->decision_log.push_back(
            {ws->plan[pi].table, Decision::Verdict::kScored, bound, suffix});
      }
      if (!prune) continue;
      // Stop when the remaining tail is a proven no-op (suffix == 0) or
      // the top-k gap test proves the prefix final.
      if (suffix <= 0.0 || ws->ShouldStop(topk.k, suffix)) {
        if (explain) {
          for (size_t pj = pi + 1; pj < ws->plan.size(); ++pj) {
            ws->decision_log.push_back({ws->plan[pj].table,
                                        Decision::Verdict::kPrunedSuffix,
                                        ws->plan[pj].bound,
                                        ws->suffix_bound[pj]});
          }
        }
        break;
      }
    }
  }
  if (prune) {
    // Any table the scan never scored — skipped as zero-bound or left
    // behind a stop — counts as pruned work.
    ws->query_stats.stopped_early =
        ws->query_stats.tables_scored < ws->query_stats.tables_planned;
  }
  RecordQueryStatsMetrics(ws->query_stats);
}

}  // namespace search_internal
}  // namespace webtab

#endif  // WEBTAB_SEARCH_SELECT_KERNEL_H_
