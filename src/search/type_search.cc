#include "search/type_search.h"

#include "search/select_kernel.h"

namespace webtab {

std::vector<SearchResult> TypeSearch(const CorpusView& index,
                                     const SelectQuery& query) {
  // Normalize E2's string form once (not per cell comparison).
  return TypeSearch(index, query, NormalizeSelectQuery(query));
}

std::vector<SearchResult> TypeSearch(const CorpusView& index,
                                     const SelectQuery& query,
                                     const NormalizedSelectQuery& nq) {
  std::vector<SearchResult> out;
  TypeSearch(index, query, nq, TopKOptions{},
             &ThreadLocalSearchWorkspace(), &out);
  return out;
}

void TypeSearch(const CorpusView& index, const SelectQuery& query,
                const NormalizedSelectQuery& nq, const TopKOptions& topk,
                SearchWorkspace* ws, std::vector<SearchResult>* out) {
  using search_internal::AppendUniqueCols;
  using search_internal::IntersectByTable;
  using search_internal::PlannedTable;
  using search_internal::PostingRunCounter;

  ws->BeginSelect(nq.e2_text);
  const bool prune = topk.k > 0 && topk.prune;
  const bool e2_present = query.e2 != kNa;
  const std::span<const CellRef> e2_postings =
      e2_present ? index.EntityPostings(query.e2)
                 : std::span<const CellRef>();

  // Plan: leapfrog the two table-sorted type posting lists; a candidate
  // table needs a T1-typed column and a T2-typed column.
  obs::TraceSpan plan_span("search.plan");
  ws->plan.clear();
  ws->col_pool.clear();
  IntersectByTable(
      index.TypePostings(query.type1), index.TypePostings(query.type2),
      [&](int32_t table, std::span<const ColumnRef> run1,
          std::span<const ColumnRef> run2) {
        PlannedTable p;
        p.table = table;
        std::tie(p.a_begin, p.a_end) = AppendUniqueCols(run1, &ws->col_pool);
        std::tie(p.b_begin, p.b_end) = AppendUniqueCols(run2, &ws->col_pool);
        ws->plan.push_back(p);
      });
  plan_span.End();

  // Match-support refinement: with the cell-token index we know exactly
  // which planned columns can text-match E2 (CellMatchesText needs a
  // shared token), and the entity postings say how many cells are
  // annotated with E2. A table with neither contributes zero evidence.
  // The support set is built on full-rank scans too: the scoring-side
  // verdicts eliminate proven-matchless columns there as well.
  const bool support_valid = ws->BuildMatchSupport(index, ws->plan);
  const bool refine = prune && support_valid;

  // Any single answer gains at most one row_score (max 1.0) per (row,
  // answer cell, matching E2 column) triple. With match support the E2
  // side tightens: per b-column, at most its count of E2-annotated
  // cells at 1.0 each, plus text fallbacks (0.6) only when that column
  // actually contains enough of the target's tokens.
  auto refined_bound = [&](const PlannedTable& p,
                           PostingRunCounter<CellRef>* e2_runs) {
    const double rows = index.rows(p.table);
    const double a = p.a_end - p.a_begin;
    const double b = p.b_end - p.b_begin;
    double bound = rows * a * b;
    double refined = 0.0;
    for (uint32_t bi = p.b_begin; bi < p.b_end; ++bi) {
      const int col = ws->col_pool[bi];
      refined += e2_runs->CountAtCol(p.table, col);
      if (ws->ColumnHasMatchSupport(p.table, col)) {
        refined += 0.6 * rows;
      }
    }
    return std::min(bound, a * refined);
  };
  auto fill_bounds = [&] {
    if (!refine) {
      for (PlannedTable& p : ws->plan) {
        const double rows = index.rows(p.table);
        const double a = p.a_end - p.a_begin;
        const double b = p.b_end - p.b_begin;
        p.bound = rows * a * b;
      }
      return;
    }
    search_internal::FillRefinedBounds(ws, e2_postings, refined_bound);
  };

  // Lazy verdict counter: scored tables arrive in ascending order, so
  // one forward counter serves every FillColumnVerdicts call.
  PostingRunCounter<CellRef> verdict_runs{e2_postings};
  auto score_table = [&](const PlannedTable& p) {
    search_internal::FillColumnVerdicts(ws, p, &verdict_runs, e2_present,
                                        support_valid);
    const int table = p.table;
    // Row score: 1.0 for an annotated hit, 0.6 for a text fallback.
    search_internal::ScoreTableBatched(
        ws, index, p, query.e2, /*hit=*/1.0, /*fallback=*/0.6,
        /*need_answer_entities=*/true,
        [&](uint32_t k, uint32_t i, double rs) {
          const size_t lane = k * exec::kBatchSize + i;
          EntityId answer = ws->gather_entities[lane];
          if (answer != kNa) {
            ws->AddEntity(table, answer, ws->gather_cells[lane], rs);
          } else {
            ws->AddText(table, ws->gather_cells[lane], rs * 0.8);
          }
        });
  };

  search_internal::PrepareVerdictLanes(ws, ws->col_pool.size());
  search_internal::RunPlannedTables(ws, topk, fill_bounds, score_table);
  ws->EmitRanked(topk, out);
}

}  // namespace webtab
