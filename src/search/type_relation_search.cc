#include "search/type_relation_search.h"

#include "search/select_kernel.h"

namespace webtab {

std::vector<SearchResult> TypeRelationSearch(const CorpusView& index,
                                             const SelectQuery& query) {
  // Normalize E2's string form once (not per cell comparison).
  return TypeRelationSearch(index, query, NormalizeSelectQuery(query));
}

std::vector<SearchResult> TypeRelationSearch(
    const CorpusView& index, const SelectQuery& query,
    const NormalizedSelectQuery& nq) {
  std::vector<SearchResult> out;
  TypeRelationSearch(index, query, nq, TopKOptions{},
             &ThreadLocalSearchWorkspace(), &out);
  return out;
}

void TypeRelationSearch(const CorpusView& index, const SelectQuery& query,
                        const NormalizedSelectQuery& nq,
                        const TopKOptions& topk, SearchWorkspace* ws,
                        std::vector<SearchResult>* out) {
  using search_internal::PlannedTable;
  using search_internal::PostingCursor;
  using search_internal::PostingRunCounter;

  ws->BeginSelect(nq.e2_text);
  const bool prune = topk.k > 0 && topk.prune;
  const bool e2_present = query.e2 != kNa;
  const std::span<const CellRef> e2_postings =
      e2_present ? index.EntityPostings(query.e2)
                 : std::span<const CellRef>();

  // Plan: group the relation's table-sorted postings into per-table
  // runs (a_begin/a_end index the postings span itself).
  obs::TraceSpan plan_span("search.plan");
  std::span<const RelationRef> postings =
      index.RelationPostings(query.relation);
  ws->plan.clear();
  PostingCursor<RelationRef> cursor(postings);
  while (!cursor.done()) {
    PlannedTable p;
    p.table = cursor.table();
    std::span<const RelationRef> run = cursor.TakeRun();
    p.a_begin = static_cast<uint32_t>(run.data() - postings.data());
    p.a_end = p.a_begin + static_cast<uint32_t>(run.size());
    ws->plan.push_back(p);
  }
  plan_span.End();

  // See type_search.cc: entity postings bound the annotated E2 hits,
  // the cell-token support set bounds where text fallback can fire.
  const bool support_valid = ws->BuildMatchSupport(index, ws->plan);
  const bool refine = prune && support_valid;

  // Max row_score is 1.2; one answer can gain it once per (row,
  // annotated pair) of the table. Refined: per pair at most the object
  // column's E2-annotated cell count (1.2 each) plus, only when that
  // object column can text-match the target, rows text fallbacks
  // (0.7).
  auto refined_bound = [&](const PlannedTable& p,
                           PostingRunCounter<CellRef>* e2_runs) {
    const double rows = index.rows(p.table);
    const double runs = p.a_end - p.a_begin;
    double bound = rows * 1.2 * runs;
    double refined = 0.0;
    for (uint32_t ri = p.a_begin; ri < p.a_end; ++ri) {
      const RelationRef& ref = postings[ri];
      const int object_col = ref.swapped ? ref.c1 : ref.c2;
      // Only E2 annotations in this pair's object column count.
      refined += 1.2 * e2_runs->CountAtCol(p.table, object_col);
      if (ws->ColumnHasMatchSupport(p.table, object_col)) {
        refined += 0.7 * rows;
      }
    }
    return std::min(bound, refined);
  };
  auto fill_bounds = [&] {
    if (!refine) {
      for (PlannedTable& p : ws->plan) {
        const double rows = index.rows(p.table);
        const double runs = p.a_end - p.a_begin;
        p.bound = rows * 1.2 * runs;
      }
      return;
    }
    search_internal::FillRefinedBounds(ws, e2_postings, refined_bound);
  };

  // Lazy verdict counter: scored tables arrive in ascending order, so
  // one forward counter serves every FillRelationVerdicts call.
  PostingRunCounter<CellRef> verdict_runs{e2_postings};
  const exec::ScoreBatch& batch = ws->batch;
  auto score_table = [&](const PlannedTable& p) {
    search_internal::FillRelationVerdicts(ws, p, postings, &verdict_runs,
                                          e2_present, support_valid);
    for (uint32_t ri = p.a_begin; ri < p.a_end; ++ri) {
      const RelationRef& ref = postings[ri];
      // Subject column holds E1 (answers); object column holds E2.
      const int subject_col = ref.swapped ? ref.c2 : ref.c1;
      const int object_col = ref.swapped ? ref.c1 : ref.c2;
      // Relation + entity annotated is the strongest evidence (1.2);
      // a text fallback in the object column scores 0.7.
      search_internal::ScoreColumnChunks(
          ws, index, ref.table, object_col, query.e2,
          ws->lane_has_entity.Test(ri), ws->lane_has_support.Test(ri),
          /*hit=*/1.2, /*fallback=*/0.7, [&](int rb, int n) {
            index.GatherColumn(ref.table, subject_col, rb, n,
                               ws->gather_entities.data(),
                               ws->gather_cells.data());
            const uint32_t m = batch.active.size();
            for (uint32_t j = 0; j < m; ++j) {
              const uint32_t i = batch.active[j];
              const double rs = batch.score[j];
              EntityId answer = ws->gather_entities[i];
              if (answer != kNa) {
                ws->AddEntity(ref.table, answer, ws->gather_cells[i], rs);
              } else {
                ws->AddText(ref.table, ws->gather_cells[i], rs * 0.8);
              }
            }
          });
    }
  };

  search_internal::PrepareVerdictLanes(ws, postings.size());
  ws->EnsureGatherCapacity(1);
  search_internal::RunPlannedTables(ws, topk, fill_bounds, score_table);
  ws->EmitRanked(topk, out);
}

}  // namespace webtab
