#ifndef WEBTAB_TESTS_REFERENCE_SEARCH_H_
#define WEBTAB_TESTS_REFERENCE_SEARCH_H_

#include <algorithm>
#include <bit>
#include <map>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "search/corpus_view.h"
#include "search/join_search.h"
#include "search/query.h"
#include "search/search_workspace.h"
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

/// The match-support builder as it stood before support was built for
/// the planned tables only, kept as the oracle for
/// SearchWorkspace::BuildMatchSupport: gather every corpus posting of
/// the target's distinct tokens, sort them by (table, col), and run the
/// Jaccard feasibility rule (the single-token arm and the co-occurrence
/// clique) on each column's group. Returns the surviving columns of the
/// whole corpus, sorted by (table, col). A target with no tokens
/// returns the empty-token sentinel row: the columns holding a cell
/// that normalizes to "". Empty when the backend has no match support.
inline std::vector<ColumnRef> ReferenceMatchSupport(
    const CorpusView& corpus, std::string_view normalized_target) {
  std::vector<ColumnRef> support_cols;
  if (!corpus.HasMatchSupport()) return support_cols;
  std::vector<std::string> tokens = Tokenize(normalized_target);
  std::sort(tokens.begin(), tokens.end());
  tokens.erase(std::unique(tokens.begin(), tokens.end()), tokens.end());
  if (tokens.empty()) {
    for (const CellTokenRef& r :
         corpus.CellTokenPostings(std::string_view())) {
      support_cols.push_back(ColumnRef{r.table, r.col});
    }
    return support_cols;
  }
  struct SupportEntry {
    int32_t table;
    int32_t col;
    int32_t min_tokens;
    uint64_t bit;
    uint64_t cooc;
  };
  std::vector<SupportEntry> support_scratch;
  for (const std::string& token : tokens) {
    const uint64_t mask = CellTokenMask(token);
    for (const CellTokenRef& r : corpus.CellTokenPostings(token)) {
      support_scratch.push_back(
          SupportEntry{r.table, r.col, r.min_tokens, mask, r.cooc});
    }
  }
  std::sort(support_scratch.begin(), support_scratch.end(),
            [](const SupportEntry& a, const SupportEntry& b) {
              if (a.table != b.table) return a.table < b.table;
              return a.col < b.col;
            });
  const size_t nb = tokens.size();
  const size_t multi = std::max<size_t>(2, (nb + 1) / 2);
  const size_t n = support_scratch.size();
  for (size_t i = 0; i < n;) {
    size_t j = i;
    int32_t best = support_scratch[i].min_tokens;
    while (j < n && support_scratch[j].table == support_scratch[i].table &&
           support_scratch[j].col == support_scratch[i].col) {
      best = std::min(best, support_scratch[j].min_tokens);
      ++j;
    }
    bool alive = nb <= 2 && static_cast<size_t>(best) + nb <= 3;
    const size_t g = j - i;
    if (!alive && g >= multi && g > 12) {
      alive = true;
    }
    if (!alive && g >= multi && g <= 12) {
      for (size_t inter = multi; inter <= g && !alive; ++inter) {
        const int32_t cap = static_cast<int32_t>(3 * inter - nb);
        for (uint32_t bits = 0; bits < (1u << g) && !alive; ++bits) {
          if (static_cast<size_t>(std::popcount(bits)) != inter) continue;
          bool ok = true;
          for (size_t x = 0; x < g && ok; ++x) {
            if (!(bits >> x & 1u)) continue;
            if (support_scratch[i + x].min_tokens > cap) {
              ok = false;
              break;
            }
            for (size_t y = x + 1; y < g && ok; ++y) {
              if (!(bits >> y & 1u)) continue;
              const uint64_t bx = support_scratch[i + x].bit;
              const uint64_t by = support_scratch[i + y].bit;
              ok = (support_scratch[i + x].cooc & by) == by &&
                   (support_scratch[i + y].cooc & bx) == bx;
            }
          }
          alive = ok;
        }
      }
    }
    if (alive) {
      support_cols.push_back(
          ColumnRef{support_scratch[i].table, support_scratch[i].col});
    }
    i = j;
  }
  return support_cols;
}

/// Everything the match-support checks need to know about one target
/// on one corpus, computed once per target: the oracle's whole-corpus
/// support, the columns holding at least one target token, and the
/// columns holding a cell that CellMatchesText the target. All three
/// are sorted by (table, col) and unique.
struct SupportOracle {
  size_t target_tokens = 0;
  std::vector<ColumnRef> support;
  std::vector<ColumnRef> token_columns;
  std::vector<ColumnRef> matching;
};

inline SupportOracle MakeSupportOracle(const CorpusView& corpus,
                                       std::string_view normalized_target) {
  SupportOracle oracle;
  oracle.support = ReferenceMatchSupport(corpus, normalized_target);
  std::set<std::pair<int32_t, int32_t>> token_columns;
  std::vector<std::string> tokens = Tokenize(normalized_target);
  std::sort(tokens.begin(), tokens.end());
  tokens.erase(std::unique(tokens.begin(), tokens.end()), tokens.end());
  oracle.target_tokens = tokens.size();
  for (const std::string& token : tokens) {
    for (const CellTokenRef& r : corpus.CellTokenPostings(token)) {
      token_columns.insert({r.table, r.col});
    }
  }
  for (const auto& [t, c] : token_columns) {
    oracle.token_columns.push_back(ColumnRef{t, c});
  }
  for (int t = 0; t < corpus.num_tables(); ++t) {
    for (int c = 0; c < corpus.cols(t); ++c) {
      for (int r = 0; r < corpus.rows(t); ++r) {
        if (CellMatchesText(corpus.cell(t, r, c), normalized_target)) {
          oracle.matching.push_back(ColumnRef{t, c});
          break;
        }
      }
    }
  }
  return oracle;
}

/// One BuildMatchSupport result checked against the oracle.
struct SupportCheck {
  /// Empty when `support` equals the oracle's support restricted to the
  /// listed tables and holds every text-matching column of them; else
  /// the first violation.
  std::string violation;
  size_t kept = 0;  // columns in `support`
  /// Columns of the listed tables holding a target token that `support`
  /// proves matchless.
  size_t eliminated = 0;
};

/// Checks `support`, built for `tables` (any posting type with a
/// table; repeats allowed), against `oracle`.
template <typename Ref>
SupportCheck CheckMatchSupport(const SupportOracle& oracle,
                               std::span<const Ref> tables,
                               std::span<const ColumnRef> support) {
  std::set<int32_t> listed;
  for (const Ref& ref : tables) {
    listed.insert(search_internal::PostingTable(ref));
  }
  auto restrict = [&](const std::vector<ColumnRef>& cols) {
    std::vector<std::pair<int32_t, int32_t>> out;
    for (const ColumnRef& c : cols) {
      if (listed.count(c.table) != 0) out.push_back({c.table, c.col});
    }
    return out;
  };
  std::vector<std::pair<int32_t, int32_t>> got;
  for (const ColumnRef& c : support) got.push_back({c.table, c.col});
  SupportCheck check;
  check.kept = got.size();
  if (got != restrict(oracle.support)) {
    check.violation = "support differs from the restricted oracle";
  }
  for (const auto& column : restrict(oracle.matching)) {
    if (!std::binary_search(got.begin(), got.end(), column)) {
      check.violation = "text-matching column " +
                        std::to_string(column.first) + ":" +
                        std::to_string(column.second) + " not in support";
    }
  }
  for (const auto& column : restrict(oracle.token_columns)) {
    if (!std::binary_search(got.begin(), got.end(), column)) {
      ++check.eliminated;
    }
  }
  return check;
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
