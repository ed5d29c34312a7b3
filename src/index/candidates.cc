#include "index/candidates.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace webtab {

namespace {

/// Calls visit(i) for every key i of a subject run [begin, end) of
/// `pairs` whose object is in `objects` (ascending, unique), in key
/// order. Each object's key is galloped to from the previous object's
/// position, so a short run costs about a linear merge and a hub
/// subject's long run is not walked key by key.
template <typename Visit>
void IntersectRun(const PairIndex& pairs, uint64_t begin, uint64_t end,
                  std::span<const EntityId> objects, Visit&& visit) {
  if (begin == end) return;
  const uint64_t* keys = pairs.keys.data();
  const uint64_t subject = keys[begin] & ~uint64_t{0xFFFFFFFF};
  uint64_t lo = begin;
  for (const EntityId o : objects) {
    const uint64_t target = subject | static_cast<uint32_t>(o);
    // Every key in [begin, lo) is below target; double the step until a
    // key reaches it, then binary search the last bracket.
    uint64_t hi = lo;
    for (uint64_t step = 1; hi < end && keys[hi] < target; step <<= 1) {
      lo = hi + 1;
      hi = lo + step;
    }
    hi = std::min(hi, end);
    lo = static_cast<uint64_t>(std::lower_bound(keys + lo, keys + hi,
                                                target) -
                               keys);
    if (lo == end) return;
    if (keys[lo] == target) visit(lo++);
  }
}

}  // namespace

TableCandidates GenerateCandidates(const Table& table,
                                   const LemmaIndexView& index,
                                   ClosureCache* closure,
                                   const CandidateOptions& options,
                                   CandidateWorkspace* workspace) {
  CandidateWorkspace transient;
  TableCandidates out;
  GenerateCandidates(table, index, closure, options,
                     workspace != nullptr ? workspace : &transient, &out);
  return out;
}

void GenerateCandidates(const Table& table, const LemmaIndexView& index,
                        ClosureCache* closure,
                        const CandidateOptions& options,
                        CandidateWorkspace* ws, TableCandidates* out_ptr) {
  TableCandidates& out = *out_ptr;
  out.cells.resize(table.rows());
  for (std::vector<std::vector<LemmaHit>>& row : out.cells) {
    row.resize(table.cols());
    for (std::vector<LemmaHit>& cell : row) cell.clear();
  }
  out.column_types.resize(table.cols());
  for (std::vector<TypeId>& types : out.column_types) types.clear();
  out.relations.clear();

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
    // Each distinct cell's hit ids, ascending, for the relation vote's
    // run intersections (hit ids are unique within a cell).
    col.hit_begin.assign(1, 0);
    col.hit_ids.clear();
    for (int d = 0; d < col.num_distinct; ++d) {
      for (const LemmaHit& hit : ws->batch.Hits(d)) {
        col.hit_ids.push_back(hit.id);
      }
      std::sort(col.hit_ids.begin() + col.hit_begin.back(),
                col.hit_ids.end());
      col.hit_begin.push_back(static_cast<int>(col.hit_ids.size()));
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
    for (int i = 0; i < keep; ++i) {
      out.column_types[c].push_back(ws->type_scored[i].type);
    }
  }

  // --- Relation candidates per column pair (catalog pair index).
  // Votes run over distinct row-pairs weighted by how many rows carry
  // the pair. A distinct pair (d1, d2) intersects each of d1's hits'
  // subject runs in the pair index with d2's hit ids (forward votes),
  // and each of d2's hits' runs with d1's ids (swapped votes): exactly
  // the tuples RelationsBetween(h1, h2) finds over every hit pair,
  // without a lookup per pair. Votes are integer adds into a dense
  // rel*2+swapped array under the stamp discipline, and the ranked sort
  // is a total order, so visiting order cannot change the output.
  type_support_span.End();
  obs::TraceSpan relation_votes_span("annotate.relation_votes");
  const PairIndex pairs = catalog.pair_index();
  const int32_t num_rel_keys = catalog.num_relations() * 2;
  if (static_cast<int32_t>(ws->rel_votes.size()) < num_rel_keys) {
    ws->rel_votes.resize(num_rel_keys, 0);
    ws->rel_stamp.resize(num_rel_keys, 0);
  }
  for (int c1 = 0; c1 < table.cols() && !pairs.keys.empty(); ++c1) {
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
      int multiplicity = 0;
      auto vote = [&](uint64_t i, int swapped) {
        for (const RelationId rel : pairs.Relations(i)) {
          const int32_t key = static_cast<int32_t>(rel) * 2 + swapped;
          if (ws->rel_stamp[key] != ws->rel_epoch) {
            ws->rel_stamp[key] = ws->rel_epoch;
            ws->rel_votes[key] = 0;
            ws->rel_touched.push_back(key);
          }
          ws->rel_votes[key] += multiplicity;
        }
      };
      auto vote_forward = [&](uint64_t i) { vote(i, 0); };
      auto vote_swapped = [&](uint64_t i) { vote(i, 1); };
      auto vote_pair = [&](int d1, int d2) {
        const std::span<const EntityId> ids1 = col1.HitIds(d1);
        const std::span<const EntityId> ids2 = col2.HitIds(d2);
        for (const EntityId e1 : ids1) {
          IntersectRun(pairs, pairs.subject_start[e1],
                       pairs.subject_start[e1 + 1], ids2, vote_forward);
        }
        for (const EntityId e2 : ids2) {
          IntersectRun(pairs, pairs.subject_start[e2],
                       pairs.subject_start[e2 + 1], ids1, vote_swapped);
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
        multiplicity = static_cast<int>(end - begin);
        vote_pair(static_cast<int>(key / nd2), static_cast<int>(key % nd2));
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
}

}  // namespace webtab
