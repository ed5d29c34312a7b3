#include "search/join_search.h"

#include <algorithm>

#include "search/select_kernel.h"
#include "text/tokenizer.h"

namespace webtab {

namespace {

/// Collects bindings of the unbound side of relation `rel` given the
/// grounded side, by scanning the relation's annotated column pairs
/// through the shared row-chunk scorer (row score 1.0 where the grounded
/// column holds the grounded entity, else 0.6 on a text match).
/// grounded_is_object: the grounded entity sits in the object column.
/// Accumulates into the workspace's flat entity accumulator (the scratch
/// replacement for the retired per-call std::map). `grounded_text` must
/// be pre-normalized and already set as the workspace match target when
/// non-empty.
///
/// With a match-support backend, whole table runs are skipped when no
/// annotated pair's grounded column holds the grounded entity or (text
/// path) can text-match the target — both row conditions are then
/// provably false for every row, so the skip generates the exact same
/// Add calls as the full scan. `support_valid` says the workspace's
/// support set covers the current match target on `rel`'s tables;
/// without it, text-bearing legs scan everything.
void ExpandLeg(const CorpusView& index, RelationId rel, EntityId grounded,
               std::string_view grounded_text, bool grounded_is_object,
               bool support_valid, SearchWorkspace* ws,
               search_internal::EntityAccumulator* acc) {
  acc->Begin();
  ws->EnsureGatherCapacity(1);
  const exec::ScoreBatch& batch = ws->batch;
  const bool has_text = !grounded_text.empty();
  const bool can_skip =
      index.HasMatchSupport() && (!has_text || support_valid);
  search_internal::PostingRunCounter<CellRef> grounded_runs(
      grounded != kNa ? index.EntityPostings(grounded)
                      : std::span<const CellRef>());
  search_internal::PostingCursor<RelationRef> cursor(
      index.RelationPostings(rel));
  const bool explain = ws->explain_enabled();
  while (!cursor.done()) {
    const int32_t table = cursor.table();
    std::span<const RelationRef> run = cursor.TakeRun();
    ++ws->query_stats.tables_planned;
    if (can_skip) {
      bool possible = false;
      for (const RelationRef& ref : run) {
        int subject_col = ref.swapped ? ref.c2 : ref.c1;
        int object_col = ref.swapped ? ref.c1 : ref.c2;
        int grounded_col = grounded_is_object ? object_col : subject_col;
        // Per pair: the grounded entity must be annotated in the
        // grounded column itself, or (text path) that column must be
        // able to text-match the target.
        if (grounded != kNa &&
            grounded_runs.CountAtCol(table, grounded_col) > 0) {
          possible = true;
          break;
        }
        if (has_text && ws->ColumnHasMatchSupport(table, grounded_col)) {
          possible = true;
          break;
        }
      }
      if (!possible) {
        // The support proof shows every row contributes zero — same
        // exact-elimination class as a zero select bound (the join
        // engine computes no numeric bounds; decision_bounds_valid
        // stays false).
        if (explain) {
          ws->decision_log.push_back(
              {table,
               SearchWorkspace::TableDecision::Verdict::kPrunedZeroBound,
               0.0, 0.0});
        }
        continue;
      }
    }
    ++ws->query_stats.tables_scored;
    if (explain) {
      ws->decision_log.push_back(
          {table, SearchWorkspace::TableDecision::Verdict::kScored, 0.0,
           0.0});
    }
    for (const RelationRef& ref : run) {
      int subject_col = ref.swapped ? ref.c2 : ref.c1;
      int object_col = ref.swapped ? ref.c1 : ref.c2;
      int grounded_col = grounded_is_object ? object_col : subject_col;
      int free_col = grounded_is_object ? subject_col : object_col;
      // The same per-pair conditions the run-level skip tested, now at
      // pair granularity — a pair whose grounded column has neither the
      // grounded entity annotated nor (provable) text support emits no
      // Add for any row, so the scorer skips it exactly.
      const bool has_entity =
          grounded != kNa &&
          grounded_runs.CountAtCol(table, grounded_col) > 0;
      const bool has_support =
          has_text &&
          (!can_skip || ws->ColumnHasMatchSupport(table, grounded_col));
      search_internal::ScoreColumnChunks(
          ws, index, ref.table, grounded_col, grounded, has_entity,
          has_support, /*hit=*/1.0, /*fallback=*/0.6, [&](int rb, int n) {
            // Bindings need entities only — the free column's text is
            // never read, so the cell lane is skipped entirely.
            index.GatherColumn(ref.table, free_col, rb, n,
                               ws->gather_entities.data(), nullptr);
            const uint32_t m = batch.active.size();
            for (uint32_t j = 0; j < m; ++j) {
              EntityId answer = ws->gather_entities[batch.active[j]];
              if (answer != kNa) acc->Add(answer) += batch.score[j];
            }
          });
    }
  }
}

}  // namespace

std::vector<SearchResult> JoinSearch(const CorpusView& index,
                                     const JoinQuery& query) {
  std::vector<SearchResult> out;
  JoinSearch(index, query, TopKOptions{},
             &ThreadLocalSearchWorkspace(), &out);
  return out;
}

void JoinSearch(const CorpusView& index, const JoinQuery& query,
                const TopKOptions& topk, SearchWorkspace* ws,
                std::vector<SearchResult>* out) {
  // Normalize E3's string form once (idempotent, so scores match the
  // raw string bit for bit); it doubles as the leg-2 match target.
  NormalizeTextInto(query.e3_text, &ws->norm_scratch);
  ws->BeginSelect(ws->norm_scratch);
  // Run skipping is a provable no-op elimination (not a lossy prune),
  // so it stays on even for full-rank queries; stats count relation
  // runs rather than select-plan tables. Leg 2 is the only leg with a
  // text target, so support is built for R2's tables alone, before the
  // leg-2 scan that reads it.
  const bool support_valid =
      ws->BuildMatchSupport(index, index.RelationPostings(query.r2));

  // Leg 2: ground the join variable e2 from R2(e2, E3) (or swapped),
  // then keep the top-K bindings by evidence (score desc, id asc).
  // Trace-wise the binding leg is the plan (it fixes what leg 1 scans)
  // and the expansion loop is the scoring scan.
  obs::TraceSpan plan_span("search.plan");
  ExpandLeg(index, query.r2, query.e3, ws->norm_scratch,
            /*grounded_is_object=*/query.e2_is_subject, support_valid, ws,
            &ws->leg_acc);
  ws->leg_acc.ExtractRanked(std::max(0, query.max_join_entities),
                            &ws->binding_list);
  plan_span.End();

  // Leg 1: expand each binding through R1 toward e1. Per-binding
  // evidence sums are completed before the multiplicative chaining so
  // the doubles match the reference's map-then-multiply exactly.
  // Bindings are grounded entities with no text form, so every
  // unsupported run dies on the entity check alone.
  {
    obs::TraceSpan score_span("search.score");
    for (const auto& [e2, e2_score] : ws->binding_list) {
      ExpandLeg(index, query.r1, e2, /*grounded_text=*/{},
                /*grounded_is_object=*/query.e1_is_subject, support_valid,
                ws, &ws->leg_acc);
      const double binding_score = e2_score;
      ws->leg_acc.ForEach([&](EntityId e1, double evidence) {
        // Multiplicative chaining: weak join bindings contribute less.
        ws->AddEntity(/*table=*/0, e1, /*raw=*/{},
                      evidence * binding_score);
      });
    }
  }
  ws->query_stats.stopped_early =
      ws->query_stats.tables_scored < ws->query_stats.tables_planned;
  search_internal::RecordQueryStatsMetrics(ws->query_stats);
  ws->EmitRanked(topk, out);
}

}  // namespace webtab
