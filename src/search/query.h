#ifndef WEBTAB_SEARCH_QUERY_H_
#define WEBTAB_SEARCH_QUERY_H_

#include <string>
#include <vector>

#include "catalog/catalog_view.h"
#include "catalog/ids.h"
#include "common/status.h"

namespace webtab {

/// The §5 select-project query: given R, T1, T2 and a grounded E2 ∈+ T2,
/// return ranked E1 ∈+ T1 with R(E1, E2). The string form carries what a
/// no-annotation baseline sees; the ids carry the "hardened" query.
struct SelectQuery {
  RelationId relation = kNa;
  TypeId type1 = kNa;
  TypeId type2 = kNa;
  EntityId e2 = kNa;        // kNa when E2 is not in the catalog.
  std::string e2_text;      // Always present (string form of E2).
  // String forms for the baseline (Figure 3 "interpret all inputs as
  // strings").
  std::string relation_text;
  std::string type1_text;
  std::string type2_text;
};

/// One ranked answer. `entity` is resolved for annotation-aware engines;
/// the baseline returns raw strings (entity == kNa).
struct SearchResult {
  EntityId entity = kNa;
  std::string text;
  double score = 0.0;
};

struct JoinQuery;  // join_search.h

/// How much of the ranking a caller wants. Every engine accepts one and
/// answers it with one scan: the row-chunk scorer in select_kernel.h,
/// checked against the reference engines in tests/reference_search.h.
///  - k <= 0: the full exact ranking (byte-identical to the reference
///    engines — same answers, same doubles, same order).
///  - k > 0, prune = false: the exact full ranking truncated to its
///    first k entries (still score-exact).
///  - k > 0, prune = true: the same top-k *prefix* (same answers in the
///    same order, under the documented (score desc, entity id asc, text
///    asc) tie-break), computed with safe early termination: the kernel
///    tracks a per-table upper bound on any single answer's remaining
///    evidence and stops scanning once no unscanned table can change the
///    prefix. Reported scores are the evidence accumulated up to the
///    proof point — exact lower bounds, not the full-rank totals — and
///    an *entity* answer's display text is resolved from scanned tables
///    only (it can be empty in the pathological case where the entity's
///    every scanned cell is blank; the ranking itself is unaffected,
///    since ties between distinct entities break on id before text).
///    The join engine has no table bounds: it ranks fully and truncates.
struct TopKOptions {
  int k = 0;
  bool prune = true;
};

/// Validates catalog ids carried by a query against `catalog`: kNa means
/// "absent" and is always legal (engines fall back to text matching),
/// but any other out-of-range id returns kInvalidArgument naming the
/// field — the serving layer echoes this to clients instead of letting
/// snapshot accessors CHECK-fail on garbage ids.
Status ValidateSelectQuery(const SelectQuery& query,
                           const CatalogView& catalog);
Status ValidateJoinQuery(const JoinQuery& query, const CatalogView& catalog);

/// The query's string inputs pushed through the shared tokenizer exactly
/// once. Every engine consumes this (instead of re-tokenizing per probe),
/// and the serving result cache keys on the same normalization — so two
/// textual spellings that the engines cannot distinguish ("George
/// Clooney" / "george  clooney.") share one cache entry and one ranking.
struct NormalizedSelectQuery {
  std::vector<std::string> type1_tokens;
  std::vector<std::string> type2_tokens;
  std::vector<std::string> relation_tokens;
  /// NormalizeText(e2_text); normalization is idempotent, so feeding
  /// this back through the similarity measures gives bit-identical
  /// scores to the raw string.
  std::string e2_text;
};

NormalizedSelectQuery NormalizeSelectQuery(const SelectQuery& query);

/// Canonical, collision-resistant string key for result caching: ids plus
/// the normalized string forms, so the key distinguishes exactly what the
/// engines distinguish. Engine choice is NOT part of the key; prepend it.
/// The two-argument form reuses an existing normalization (one tokenizer
/// pass per request: key and engine share it).
std::string SelectQueryCacheKey(const SelectQuery& query);
std::string SelectQueryCacheKey(const SelectQuery& query,
                                const NormalizedSelectQuery& normalized);
std::string JoinQueryCacheKey(const JoinQuery& query);

}  // namespace webtab

#endif  // WEBTAB_SEARCH_QUERY_H_
