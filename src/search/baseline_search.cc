#include "search/baseline_search.h"

#include <algorithm>

#include "search/select_kernel.h"

namespace webtab {

namespace {

/// Collects the union of one query side's header-token postings into
/// `side` (reused), sorted by (table, col) with duplicates removed —
/// the scratch replacement for the retired std::map<int, std::set<int>>
/// materialization. Each token's postings arrive table-sorted; the
/// union across tokens needs one sort of the combined (small) list.
void CollectHeaderSide(const CorpusView& index,
                       const std::vector<std::string>& tokens,
                       std::vector<ColumnRef>* side) {
  side->clear();
  for (const std::string& token : tokens) {
    std::span<const ColumnRef> postings = index.HeaderPostings(token);
    side->insert(side->end(), postings.begin(), postings.end());
  }
  std::sort(side->begin(), side->end(),
            [](const ColumnRef& a, const ColumnRef& b) {
              if (a.table != b.table) return a.table < b.table;
              return a.col < b.col;
            });
  side->erase(std::unique(side->begin(), side->end(),
                          [](const ColumnRef& a, const ColumnRef& b) {
                            return a.table == b.table && a.col == b.col;
                          }),
              side->end());
}

}  // namespace

std::vector<SearchResult> BaselineSearch(const CorpusView& index,
                                         const SelectQuery& query) {
  // All query strings pass through the shared tokenizer exactly once.
  return BaselineSearch(index, query, NormalizeSelectQuery(query));
}

std::vector<SearchResult> BaselineSearch(const CorpusView& index,
                                         const SelectQuery& query,
                                         const NormalizedSelectQuery& nq) {
  std::vector<SearchResult> out;
  BaselineSearch(index, query, nq, TopKOptions{},
             &ThreadLocalSearchWorkspace(), &out);
  return out;
}

void BaselineSearch(const CorpusView& index, const SelectQuery& /*query*/,
                    const NormalizedSelectQuery& nq, const TopKOptions& topk,
                    SearchWorkspace* ws, std::vector<SearchResult>* out) {
  // The baseline interprets all inputs as strings, so it is fully
  // determined by the normalized form.
  using search_internal::AppendUniqueCols;
  using search_internal::IntersectByTable;
  using search_internal::PlannedTable;
  using search_internal::PostingRunCounter;

  ws->BeginSelect(nq.e2_text);
  const bool prune = topk.k > 0 && topk.prune;

  // Candidate columns per side via header-token postings.
  obs::TraceSpan plan_span("search.plan");
  CollectHeaderSide(index, nq.type1_tokens, &ws->side_a);
  CollectHeaderSide(index, nq.type2_tokens, &ws->side_b);

  // Context-match bonus tables (sorted unique; binary searched below).
  ws->context_tables.clear();
  for (const std::string& token : nq.relation_tokens) {
    std::span<const int32_t> postings = index.ContextPostings(token);
    ws->context_tables.insert(ws->context_tables.end(), postings.begin(),
                              postings.end());
  }
  std::sort(ws->context_tables.begin(), ws->context_tables.end());
  ws->context_tables.erase(
      std::unique(ws->context_tables.begin(), ws->context_tables.end()),
      ws->context_tables.end());

  ws->plan.clear();
  ws->col_pool.clear();
  IntersectByTable(
      std::span<const ColumnRef>(ws->side_a),
      std::span<const ColumnRef>(ws->side_b),
      [&](int32_t table, std::span<const ColumnRef> run1,
          std::span<const ColumnRef> run2) {
        PlannedTable p;
        p.table = table;
        std::tie(p.a_begin, p.a_end) = AppendUniqueCols(run1, &ws->col_pool);
        std::tie(p.b_begin, p.b_end) = AppendUniqueCols(run2, &ws->col_pool);
        ws->plan.push_back(p);
      });
  plan_span.End();

  // The baseline's only match path is CellMatchesText against E2's
  // string, so a table outside the match-support set scores nothing.
  // The set is built on full-rank scans too: the scoring-side verdicts
  // skip proven-matchless columns exactly.
  const bool support_valid = ws->BuildMatchSupport(index, ws->plan);
  const bool refine = prune && support_valid;

  auto table_score = [&](int32_t table) {
    return std::binary_search(ws->context_tables.begin(),
                              ws->context_tables.end(), table)
               ? 1.5
               : 1.0;
  };

  // Only E2-side columns that can text-match the target contribute
  // (the baseline has no entity path), so b shrinks to the supported
  // count — 0 eliminates the table outright.
  auto refined_bound = [&](const PlannedTable& p,
                           PostingRunCounter<CellRef>* /*e2_runs*/) {
    double b = 0.0;
    for (uint32_t bi = p.b_begin; bi < p.b_end; ++bi) {
      if (ws->ColumnHasMatchSupport(p.table, ws->col_pool[bi])) {
        b += 1.0;
      }
    }
    return static_cast<double>(index.rows(p.table)) *
           table_score(p.table) * (p.a_end - p.a_begin) * b;
  };
  auto fill_bounds = [&] {
    if (!refine) {
      for (PlannedTable& p : ws->plan) {
        const double b = p.b_end - p.b_begin;
        p.bound = static_cast<double>(index.rows(p.table)) *
                  table_score(p.table) * (p.a_end - p.a_begin) * b;
      }
      return;
    }
    search_internal::FillRefinedBounds(ws, std::span<const CellRef>(),
                                       refined_bound);
  };

  // Lazy verdicts (no entity lane in the baseline: support only).
  PostingRunCounter<CellRef> verdict_runs{std::span<const CellRef>()};
  auto score_table = [&](const PlannedTable& p) {
    search_internal::FillColumnVerdicts(ws, p, &verdict_runs,
                                        /*e2_present=*/false,
                                        support_valid);
    const int table = p.table;
    // Every text-matching row scores the table's context score.
    search_internal::ScoreTableBatched(
        ws, index, p, /*e2=*/kNa, /*hit=*/0.0,
        /*fallback=*/table_score(table), /*need_answer_entities=*/false,
        [&](uint32_t k, uint32_t i, double rs) {
          ws->AddText(table, ws->gather_cells[k * exec::kBatchSize + i],
                      rs);
        });
  };

  search_internal::PrepareVerdictLanes(ws, ws->col_pool.size());
  search_internal::RunPlannedTables(ws, topk, fill_bounds, score_table);
  ws->EmitRanked(topk, out);
}

}  // namespace webtab
