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
  // Match-support refinement: with the cell-token index we know exactly
  // which tables can text-match E2 (CellMatchesText needs a shared
  // token), and the entity postings say how many cells are annotated
  // with E2. A table with neither contributes zero evidence. The batch
  // path builds the support set even on full-rank scans — its
  // scoring-side verdicts eliminate proven-matchless columns there too.
  const bool support_valid =
      (prune || topk.batch) && ws->BuildMatchSupport(index);
  const bool refine = prune && support_valid;
  const bool e2_present = query.e2 != kNa;
  const std::span<const CellRef> e2_postings =
      e2_present ? index.EntityPostings(query.e2)
                 : std::span<const CellRef>();
  const PostingBlockSpan e2_blocks = e2_present
                                         ? index.EntityPostingBlocks(query.e2)
                                         : PostingBlockSpan();

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
    search_internal::FillRefinedBounds(ws, e2_postings, e2_blocks,
                                       refined_bound);
  };

  auto scalar_score = [&](const PlannedTable& p) {
    const int table = p.table;
    const int num_rows = index.rows(table);
    for (uint32_t bi = p.b_begin; bi < p.b_end; ++bi) {
      const int c2 = ws->col_pool[bi];
      for (int r = 0; r < num_rows; ++r) {
        double row_score = 0.0;
        EntityId cell_entity = index.CellEntity(table, r, c2);
        if (query.e2 != kNa && cell_entity == query.e2) {
          row_score = 1.0;  // Annotated hit.
        } else if (ws->CellMatches(index.cell(table, r, c2))) {
          row_score = 0.6;  // Text fallback.
        }
        if (row_score <= 0.0) continue;
        for (uint32_t ai = p.a_begin; ai < p.a_end; ++ai) {
          const int c1 = ws->col_pool[ai];
          if (c1 == c2) continue;
          EntityId answer = index.CellEntity(table, r, c1);
          if (answer != kNa) {
            ws->AddEntity(table, answer, index.cell(table, r, c1),
                          row_score);
          } else {
            ws->AddText(table, index.cell(table, r, c1), row_score * 0.8);
          }
        }
      }
    }
  };

  // Lazy verdict counter: scored tables arrive in ascending order, so
  // one forward counter serves every FillColumnVerdicts call.
  PostingRunCounter<CellRef> verdict_runs{e2_postings, e2_blocks};
  auto batch_score = [&](const PlannedTable& p) {
    search_internal::FillColumnVerdicts(ws, p, &verdict_runs, e2_present,
                                        support_valid);
    const int table = p.table;
    // Row-chunk scoring pass: survivors keep the same row_score the
    // scalar loop computes, and the memo is probed for exactly the
    // same cells in the same order (an entity hit short-circuits it).
    auto score_chunk = [&](exec::ScoreBatch* batch, int n, bool has_entity,
                           bool has_support) {
      uint32_t* tids = batch->active.mutable_data();
      uint32_t m = 0;
      if (has_entity && has_support) {
        for (int i = 0; i < n; ++i) {
          double rs = 0.0;
          if (batch->entity[i] == query.e2) {
            rs = 1.0;
          } else if (ws->CellMatches(batch->text[i])) {
            rs = 0.6;
          }
          tids[m] = static_cast<uint32_t>(i);
          batch->score[m] = rs;
          m += static_cast<uint32_t>(rs > 0.0);
        }
      } else if (has_entity) {
        // No column support: the memo is provably false on every cell,
        // so only the annotated comparison can fire.
        for (int i = 0; i < n; ++i) {
          tids[m] = static_cast<uint32_t>(i);
          batch->score[m] = 1.0;
          m += static_cast<uint32_t>(batch->entity[i] == query.e2);
        }
      } else {
        // No E2 annotation in the column: only the text fallback.
        for (int i = 0; i < n; ++i) {
          tids[m] = static_cast<uint32_t>(i);
          batch->score[m] = 0.6;
          m += static_cast<uint32_t>(ws->CellMatches(batch->text[i]));
        }
      }
      batch->active.SetSize(m);
    };
    search_internal::ScoreTableBatched(
        ws, index, p, /*need_answer_entities=*/true, score_chunk,
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

  if (topk.batch) {
    search_internal::PrepareVerdictLanes(ws, ws->col_pool.size());
    search_internal::RunPlannedTables(ws, topk, fill_bounds, batch_score);
  } else {
    search_internal::RunPlannedTables(ws, topk, fill_bounds, scalar_score);
  }
  ws->EmitRanked(topk, out);
}

}  // namespace webtab
