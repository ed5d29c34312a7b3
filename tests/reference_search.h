#ifndef WEBTAB_TESTS_REFERENCE_SEARCH_H_
#define WEBTAB_TESTS_REFERENCE_SEARCH_H_

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "search/corpus_view.h"
#include "search/join_search.h"
#include "search/query.h"
#include "text/similarity.h"
#include "text/tokenizer.h"

namespace webtab {
namespace testing_util {

/// Does `cell_text` plausibly mention the query's E2 string? Exact
/// normalized match or strong token overlap (covers abbreviated forms).
/// Callers pass the query side pre-normalized (NormalizeSelectQuery);
/// normalization is idempotent so the measures are unchanged.
///
/// This is the semantic ground truth for the kernel's memoized
/// TextMatchMemo (src/search/search_workspace.h), which must return
/// bit-identical results — asserted by tests/search_equivalence_test.cc.
inline bool CellMatchesText(std::string_view cell_text,
                            std::string_view e2_text) {
  if (ExactNormalizedMatch(cell_text, e2_text)) return true;
  return JaccardSimilarity(cell_text, e2_text) >= 0.5;
}

/// The retired map/set-backed search engines, retained verbatim as the
/// reference the cursor/workspace kernel is checked against: fresh
/// std::map<int, std::set<int>> postings materialization per query,
/// full row scans through the shared CellMatchesText predicate, and a
/// std::map-backed evidence aggregator with a full sort. The kernel's
/// full ranking (TopKOptions k <= 0) must reproduce their output
/// exactly — same answers, same doubles, same order — on both corpus
/// backends. Also used by bench/search_bench.cc as the "before" timing.
///
/// One deliberate difference from the retired code: the aggregator's
/// score-tie comparison ranks by *ascending* entity id (kNa text
/// answers first), fixing the descending-id inconsistency with the
/// repo-wide (score desc, id asc) convention. The kernel implements
/// the same fixed convention.
class ReferenceEvidenceAggregator {
 public:
  void AddEntity(EntityId e, std::string_view text, double score) {
    auto& slot = by_entity_[e];
    slot.first += score;
    if (slot.second.empty()) slot.second = std::string(text);
  }

  void AddText(std::string_view raw, double score) {
    std::string key = NormalizeText(raw);
    if (key.empty()) return;
    auto& slot = by_text_[key];
    slot.first += score;
    if (slot.second.empty()) slot.second = std::string(raw);
  }

  std::vector<SearchResult> Ranked() const {
    std::vector<SearchResult> out;
    for (const auto& [e, slot] : by_entity_) {
      out.push_back(SearchResult{e, slot.second, slot.first});
    }
    for (const auto& [key, slot] : by_text_) {
      out.push_back(SearchResult{kNa, slot.second, slot.first});
    }
    std::sort(out.begin(), out.end(),
              [](const SearchResult& a, const SearchResult& b) {
                if (a.score != b.score) return a.score > b.score;
                if (a.entity != b.entity) return a.entity < b.entity;
                return a.text < b.text;
              });
    return out;
  }

 private:
  std::map<EntityId, std::pair<double, std::string>> by_entity_;
  std::map<std::string, std::pair<double, std::string>> by_text_;
};

inline std::vector<SearchResult> ReferenceBaselineSearch(
    const CorpusView& index, const SelectQuery& query,
    const NormalizedSelectQuery& nq) {
  std::map<int, std::set<int>> t1_cols;
  std::map<int, std::set<int>> t2_cols;
  for (const std::string& token : nq.type1_tokens) {
    for (const ColumnRef& ref : index.HeaderPostings(token)) {
      t1_cols[ref.table].insert(ref.col);
    }
  }
  for (const std::string& token : nq.type2_tokens) {
    for (const ColumnRef& ref : index.HeaderPostings(token)) {
      t2_cols[ref.table].insert(ref.col);
    }
  }
  std::set<int> context_tables;
  for (const std::string& token : nq.relation_tokens) {
    for (int32_t t : index.ContextPostings(token)) context_tables.insert(t);
  }

  ReferenceEvidenceAggregator agg;
  for (const auto& [table_idx, c1s] : t1_cols) {
    auto it2 = t2_cols.find(table_idx);
    if (it2 == t2_cols.end()) continue;
    const int num_rows = index.rows(table_idx);
    double table_score = context_tables.count(table_idx) ? 1.5 : 1.0;
    for (int c2 : it2->second) {
      for (int r = 0; r < num_rows; ++r) {
        if (!CellMatchesText(index.cell(table_idx, r, c2), nq.e2_text)) {
          continue;
        }
        for (int c1 : c1s) {
          if (c1 == c2) continue;
          agg.AddText(index.cell(table_idx, r, c1), table_score);
        }
      }
    }
  }
  return agg.Ranked();
}

inline std::vector<SearchResult> ReferenceTypeSearch(
    const CorpusView& index, const SelectQuery& query,
    const NormalizedSelectQuery& nq) {
  std::map<int, std::set<int>> t1_cols;
  std::map<int, std::set<int>> t2_cols;
  for (const ColumnRef& ref : index.TypePostings(query.type1)) {
    t1_cols[ref.table].insert(ref.col);
  }
  for (const ColumnRef& ref : index.TypePostings(query.type2)) {
    t2_cols[ref.table].insert(ref.col);
  }

  ReferenceEvidenceAggregator agg;
  for (const auto& [table_idx, c1s] : t1_cols) {
    auto it2 = t2_cols.find(table_idx);
    if (it2 == t2_cols.end()) continue;
    const int num_rows = index.rows(table_idx);
    for (int c2 : it2->second) {
      for (int r = 0; r < num_rows; ++r) {
        double row_score = 0.0;
        EntityId cell_entity = index.CellEntity(table_idx, r, c2);
        if (query.e2 != kNa && cell_entity == query.e2) {
          row_score = 1.0;
        } else if (CellMatchesText(index.cell(table_idx, r, c2),
                                   nq.e2_text)) {
          row_score = 0.6;
        }
        if (row_score <= 0.0) continue;
        for (int c1 : c1s) {
          if (c1 == c2) continue;
          EntityId answer = index.CellEntity(table_idx, r, c1);
          if (answer != kNa) {
            agg.AddEntity(answer, index.cell(table_idx, r, c1), row_score);
          } else {
            agg.AddText(index.cell(table_idx, r, c1), row_score * 0.8);
          }
        }
      }
    }
  }
  return agg.Ranked();
}

inline std::vector<SearchResult> ReferenceTypeRelationSearch(
    const CorpusView& index, const SelectQuery& query,
    const NormalizedSelectQuery& nq) {
  ReferenceEvidenceAggregator agg;
  for (const RelationRef& ref : index.RelationPostings(query.relation)) {
    int subject_col = ref.swapped ? ref.c2 : ref.c1;
    int object_col = ref.swapped ? ref.c1 : ref.c2;
    const int num_rows = index.rows(ref.table);
    for (int r = 0; r < num_rows; ++r) {
      double row_score = 0.0;
      EntityId obj = index.CellEntity(ref.table, r, object_col);
      if (query.e2 != kNa && obj == query.e2) {
        row_score = 1.2;
      } else if (CellMatchesText(index.cell(ref.table, r, object_col),
                                 nq.e2_text)) {
        row_score = 0.7;
      }
      if (row_score <= 0.0) continue;
      EntityId answer = index.CellEntity(ref.table, r, subject_col);
      if (answer != kNa) {
        agg.AddEntity(answer, index.cell(ref.table, r, subject_col),
                      row_score);
      } else {
        agg.AddText(index.cell(ref.table, r, subject_col),
                    row_score * 0.8);
      }
    }
  }
  return agg.Ranked();
}

namespace reference_internal {

inline std::map<EntityId, double> ExpandLeg(const CorpusView& index,
                                            RelationId rel,
                                            EntityId grounded,
                                            const std::string& grounded_text,
                                            bool grounded_is_object) {
  std::map<EntityId, double> bindings;
  for (const RelationRef& ref : index.RelationPostings(rel)) {
    int subject_col = ref.swapped ? ref.c2 : ref.c1;
    int object_col = ref.swapped ? ref.c1 : ref.c2;
    int grounded_col = grounded_is_object ? object_col : subject_col;
    int free_col = grounded_is_object ? subject_col : object_col;
    const int num_rows = index.rows(ref.table);
    for (int r = 0; r < num_rows; ++r) {
      double row_score = 0.0;
      EntityId cell = index.CellEntity(ref.table, r, grounded_col);
      if (grounded != kNa && cell == grounded) {
        row_score = 1.0;
      } else if (!grounded_text.empty() &&
                 CellMatchesText(index.cell(ref.table, r, grounded_col),
                                 grounded_text)) {
        row_score = 0.6;
      }
      if (row_score <= 0.0) continue;
      EntityId answer = index.CellEntity(ref.table, r, free_col);
      if (answer != kNa) bindings[answer] += row_score;
    }
  }
  return bindings;
}

}  // namespace reference_internal

inline std::vector<SearchResult> ReferenceJoinSearch(
    const CorpusView& index, const JoinQuery& query) {
  const std::string e3_text = NormalizeText(query.e3_text);

  std::map<EntityId, double> join_bindings =
      reference_internal::ExpandLeg(index, query.r2, query.e3, e3_text,
                                    /*grounded_is_object=*/
                                    query.e2_is_subject);

  std::vector<std::pair<EntityId, double>> ranked(join_bindings.begin(),
                                                  join_bindings.end());
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second > b.second;
              return a.first < b.first;
            });
  if (static_cast<int>(ranked.size()) > query.max_join_entities) {
    ranked.resize(query.max_join_entities);
  }

  ReferenceEvidenceAggregator agg;
  for (const auto& [e2, e2_score] : ranked) {
    std::map<EntityId, double> answers = reference_internal::ExpandLeg(
        index, query.r1, e2, /*grounded_text=*/"",
        /*grounded_is_object=*/query.e1_is_subject);
    for (const auto& [e1, evidence] : answers) {
      agg.AddEntity(e1, /*text=*/"", evidence * e2_score);
    }
  }
  return agg.Ranked();
}

}  // namespace testing_util
}  // namespace webtab

#endif  // WEBTAB_TESTS_REFERENCE_SEARCH_H_
