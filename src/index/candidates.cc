#include "index/candidates.h"

#include <algorithm>
#include <functional>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace webtab {

TableCandidates GenerateCandidates(const Table& table,
                                   const LemmaIndexView& index,
                                   ClosureCache* closure,
                                   const CandidateOptions& options,
                                   CandidateWorkspace* workspace) {
  CandidateWorkspace transient;
  CandidateWorkspace* ws = workspace != nullptr ? workspace : &transient;

  TableCandidates out;
  out.cells.assign(table.rows(),
                   std::vector<std::vector<LemmaHit>>(table.cols()));
  out.column_types.assign(table.cols(), {});

  // --- Entity candidates per cell: one batched probe per column (§4.3).
  // The batch dedupes repeated cell strings, fetches each distinct
  // token's postings once, and scores every distinct cell in one sweep;
  // the distinct structure is retained per column so the type and
  // relation phases below work over distinct cells instead of rows.
  ws->columns.resize(table.cols());
  const int64_t walked_before = ws->batch.postings_walked();
  obs::TraceSpan probe_span("annotate.probe");
  for (int c = 0; c < table.cols(); ++c) {
    CandidateWorkspace::ColumnDistincts& col = ws->columns[c];
    col.num_distinct = 0;
    col.row_distinct.clear();
    col.row_count.clear();
    col.first_row.clear();
    bool numeric_column =
        table.NumericFraction(c) > options.numeric_column_threshold;
    if (numeric_column) {
      col.row_distinct.assign(table.rows(), -1);
      continue;
    }
    ws->batch.ProbeColumn(table, c, index, options.max_entities_per_cell,
                          options.min_entity_score);
    col.num_distinct = ws->batch.num_distinct();
    col.row_count.assign(col.num_distinct, 0);
    col.first_row.assign(col.num_distinct, -1);
    col.row_distinct.resize(table.rows());
    for (int r = 0; r < table.rows(); ++r) {
      const int d = ws->batch.DistinctOfRow(r);
      col.row_distinct[r] = d;
      ++col.row_count[d];
      if (col.first_row[d] < 0) {
        col.first_row[d] = r;
        out.cells[r][c] = ws->batch.Hits(d);
      } else {
        out.cells[r][c] = out.cells[col.first_row[d]][c];
      }
    }
  }

  // --- Type candidates per column: ∪_{E ∈ Erc} T(E), scored. Support
  // counts rows, computed once per distinct cell and weighted by its
  // multiplicity — integer-identical to the per-row accumulation.
  // Accumulation is a dense per-TypeId array with two stamp lanes: the
  // column epoch validates support entries, the per-cell seq dedupes a
  // type within one distinct cell. Integer adds commute and the final
  // sort is a total order, so the output matches the old set+hash-map
  // path exactly.
  probe_span.End();
  obs::TraceSpan type_support_span("annotate.type_support");
  const CatalogView& catalog = closure->catalog();
  const int32_t num_types = catalog.num_types();
  if (static_cast<int32_t>(ws->type_support.size()) < num_types) {
    ws->type_support.resize(num_types, 0);
    ws->type_sup_stamp.resize(num_types, 0);
    ws->type_cell_stamp.resize(num_types, 0);
  }
  for (int c = 0; c < table.cols(); ++c) {
    const CandidateWorkspace::ColumnDistincts& col = ws->columns[c];
    if (++ws->type_epoch == 0) {
      std::fill(ws->type_sup_stamp.begin(), ws->type_sup_stamp.end(), 0u);
      ws->type_epoch = 1;
    }
    ws->type_touched.clear();
    for (int d = 0; d < col.num_distinct; ++d) {
      if (++ws->type_cell_seq == 0) {
        std::fill(ws->type_cell_stamp.begin(), ws->type_cell_stamp.end(),
                  0u);
        ws->type_cell_seq = 1;
      }
      for (const LemmaHit& hit : out.cells[col.first_row[d]][c]) {
        for (TypeId t : closure->TypeAncestors(hit.id)) {
          if (ws->type_cell_stamp[t] == ws->type_cell_seq) continue;
          ws->type_cell_stamp[t] = ws->type_cell_seq;
          if (ws->type_sup_stamp[t] != ws->type_epoch) {
            ws->type_sup_stamp[t] = ws->type_epoch;
            ws->type_support[t] = 0;
            ws->type_touched.push_back(t);
          }
          ws->type_support[t] += col.row_count[d];
        }
      }
    }
    ws->type_scored.clear();
    for (TypeId t : ws->type_touched) {
      ws->type_scored.push_back(CandidateWorkspace::ScoredType{
          t, ws->type_support[t], closure->TypeSpecificity(t)});
    }
    std::sort(ws->type_scored.begin(), ws->type_scored.end(),
              [](const CandidateWorkspace::ScoredType& a,
                 const CandidateWorkspace::ScoredType& b) {
                if (a.support != b.support) return a.support > b.support;
                if (a.specificity != b.specificity) {
                  return a.specificity > b.specificity;
                }
                return a.type < b.type;
              });
    int keep = std::min<int>(static_cast<int>(ws->type_scored.size()),
                             options.max_types_per_column);
    out.column_types[c].reserve(keep);
    for (int i = 0; i < keep; ++i) {
      out.column_types[c].push_back(ws->type_scored[i].type);
    }
  }

  // --- Relation candidates per column pair (catalog tuple probes).
  // Votes run over distinct row-pairs weighted by how many rows carry
  // the pair, so the tuple index is probed once per distinct entity
  // pairing instead of once per row. ForEachRelationBetween visits the
  // backend's index in place (no per-call vector), and votes accumulate
  // in a dense rel*2+swapped array under the stamp discipline; the
  // ranked sort is a total order, so output matches the std::map path.
  type_support_span.End();
  obs::TraceSpan relation_votes_span("annotate.relation_votes");
  const int32_t num_rel_keys = catalog.num_relations() * 2;
  if (static_cast<int32_t>(ws->rel_votes.size()) < num_rel_keys) {
    ws->rel_votes.resize(num_rel_keys, 0);
    ws->rel_stamp.resize(num_rel_keys, 0);
  }
  for (int c1 = 0; c1 < table.cols(); ++c1) {
    const CandidateWorkspace::ColumnDistincts& col1 = ws->columns[c1];
    if (col1.num_distinct == 0) continue;
    for (int c2 = c1 + 1; c2 < table.cols(); ++c2) {
      const CandidateWorkspace::ColumnDistincts& col2 = ws->columns[c2];
      if (col2.num_distinct == 0) continue;
      const int nd2 = col2.num_distinct;

      if (++ws->rel_epoch == 0) {
        std::fill(ws->rel_stamp.begin(), ws->rel_stamp.end(), 0u);
        ws->rel_epoch = 1;
      }
      ws->rel_touched.clear();
      int vote_multiplicity = 0;
      const std::function<void(RelationId, bool)> vote_fn =
          [&](RelationId rel, bool swapped) {
            const int32_t key =
                static_cast<int32_t>(rel) * 2 + (swapped ? 1 : 0);
            if (ws->rel_stamp[key] != ws->rel_epoch) {
              ws->rel_stamp[key] = ws->rel_epoch;
              ws->rel_votes[key] = 0;
              ws->rel_touched.push_back(key);
            }
            ws->rel_votes[key] += vote_multiplicity;
          };
      auto vote_pair = [&](int d1, int d2, int multiplicity) {
        vote_multiplicity = multiplicity;
        for (const LemmaHit& h1 : out.cells[col1.first_row[d1]][c1]) {
          for (const LemmaHit& h2 : out.cells[col2.first_row[d2]][c2]) {
            catalog.ForEachRelationBetween(h1.id, h2.id, vote_fn);
          }
        }
      };
      // Distinct row-pairs are runs of equal keys in the sorted row
      // keys; each run votes once with its length as multiplicity.
      ws->pair_keys.clear();
      for (int r = 0; r < table.rows(); ++r) {
        ws->pair_keys.push_back(
            static_cast<int64_t>(col1.row_distinct[r]) * nd2 +
            col2.row_distinct[r]);
      }
      std::sort(ws->pair_keys.begin(), ws->pair_keys.end());
      for (size_t begin = 0; begin < ws->pair_keys.size();) {
        const int64_t key = ws->pair_keys[begin];
        size_t end = begin + 1;
        while (end < ws->pair_keys.size() && ws->pair_keys[end] == key) {
          ++end;
        }
        vote_pair(static_cast<int>(key / nd2), static_cast<int>(key % nd2),
                  static_cast<int>(end - begin));
        begin = end;
      }

      if (ws->rel_touched.empty()) continue;
      ws->rel_ranked.clear();
      for (const int32_t key : ws->rel_touched) {
        ws->rel_ranked.emplace_back(
            RelationCandidate{key / 2, (key & 1) != 0}, ws->rel_votes[key]);
      }
      std::sort(ws->rel_ranked.begin(), ws->rel_ranked.end(),
                [](const auto& a, const auto& b) {
                  if (a.second != b.second) return a.second > b.second;
                  return a.first < b.first;
                });
      std::vector<RelationCandidate>& list = out.relations[{c1, c2}];
      int keep = std::min<int>(static_cast<int>(ws->rel_ranked.size()),
                               options.max_relations_per_pair);
      list.reserve(keep);
      for (int i = 0; i < keep; ++i) list.push_back(ws->rel_ranked[i].first);
    }
  }

  relation_votes_span.End();

  // Per-table accounting (the candidate stage dominates annotation cost
  // — the paper's Figure 7); shard-local adds, once per table, so the
  // batched probe loop itself stays untouched.
  static obs::Counter* tables =
      obs::MetricsRegistry::Get().GetCounter("candidates.tables");
  static obs::Counter* cells =
      obs::MetricsRegistry::Get().GetCounter("candidates.cells");
  static obs::Counter* postings_walked =
      obs::MetricsRegistry::Get().GetCounter("candidates.postings_walked");
  tables->Add(1);
  cells->Add(static_cast<int64_t>(table.rows()) * table.cols());
  postings_walked->Add(ws->batch.postings_walked() - walked_before);
  return out;
}

}  // namespace webtab
