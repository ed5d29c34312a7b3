#ifndef WEBTAB_SEARCH_JOIN_SEARCH_H_
#define WEBTAB_SEARCH_JOIN_SEARCH_H_

#include <string>
#include <vector>

#include "search/corpus_view.h"
#include "search/query.h"
#include "search/search_workspace.h"

namespace webtab {

/// The paper's future-work query form (§2.1):
///   R1(e1 ∈ T1, e2 ∈ T2) ∧ R2(e2 ∈ T2, E3 ∈ T3)
/// — a join through the unbound entity e2, answered *without fuzzy text
/// matching* because both legs run over entity/relation annotations.
/// Role flags orient each leg: with e1_is_subject=false the first leg
/// reads R1(e2, e1), so "actors in movies directed by D" is
///   JoinQuery{r1=acted_in, e1_is_subject=false,
///             r2=directed,  e2_is_subject=true, e3=D}.
struct JoinQuery {
  RelationId r1 = kNa;
  bool e1_is_subject = true;  // e1's role in R1 (e2 takes the other).
  RelationId r2 = kNa;
  bool e2_is_subject = true;  // e2's role in R2 (E3 takes the other).
  EntityId e3 = kNa;
  std::string e3_text;        // Fallback when E3 is not in the catalog.
  /// How many join-variable bindings to expand (top-scored first).
  int max_join_entities = 20;
};

/// Two-stage evaluation over the annotated corpus: ground e2 via the R2
/// leg (like Figure 4), then expand each binding through the R1 leg,
/// aggregating evidence multiplicatively per answer entity.
std::vector<SearchResult> JoinSearch(const CorpusView& index,
                                     const JoinQuery& query);
/// Kernel form: reusable workspace, results into `out`. Top-k applies
/// to the final ranking; the legs themselves are already bounded by
/// max_join_entities, so no table pruning runs inside them.
void JoinSearch(const CorpusView& index, const JoinQuery& query,
                const TopKOptions& topk, SearchWorkspace* workspace,
                std::vector<SearchResult>* out);

}  // namespace webtab

#endif  // WEBTAB_SEARCH_JOIN_SEARCH_H_
