#ifndef WEBTAB_INFERENCE_TABLE_GRAPH_H_
#define WEBTAB_INFERENCE_TABLE_GRAPH_H_

#include <utility>
#include <vector>

#include "inference/factor_graph.h"
#include "model/features.h"
#include "model/label_space.h"
#include "table/annotation.h"

namespace webtab {

/// Schedule groups matching Appendix D's message order.
inline constexpr int kGroupPhi3 = 1;
inline constexpr int kGroupPhi5 = 2;
inline constexpr int kGroupPhi4 = 3;

/// Which FactorGraph representation BuildTableGraph emits.
enum class FactorRepChoice {
  /// Structure-aware: φ3 as sparse pairwise factors (nonzero scores
  /// only), φ4/φ5 as implicit ternary factors (per-relation bases,
  /// per-side unaries/gates, tuple hits as overrides). Falls back to
  /// dense per factor when the weights break the override-dominance
  /// precondition or when a sparse factor would be denser than its
  /// table. This is both faster to build (φ5 drops from O(B·E1·E2) to
  /// O(B·(E1+E2)+tuples) feature probes per row) and faster to run BP
  /// over (see belief_propagation.h).
  kStructured = 0,
  /// Dense log tables for every factor (the legacy representation);
  /// used by equivalence tests and as the before-side of benchmarks.
  kDense = 1,
};

struct TableGraphOptions {
  /// When false, relation variables and φ4/φ5 factors are omitted,
  /// reducing the model to Eq. (2) (§4.4.1 special case).
  bool use_relations = true;
  FactorRepChoice factor_rep = FactorRepChoice::kStructured;
};

/// The factor graph for one table plus the bookkeeping to translate
/// between graph variables and table coordinates (Figure 10's structure).
/// Variables with trivial (na-only) domains are not materialized; their
/// label is implicitly na.
struct TableGraph {
  FactorGraph graph;
  /// entity_var[r][c]: variable id or -1.
  std::vector<std::vector<int>> entity_var;
  /// type_var[c]: variable id or -1.
  std::vector<int> type_var;
  /// Relation variable per ordered column pair, ascending by pair.
  std::vector<std::pair<std::pair<int, int>, int>> relation_var;

  /// Decodes a BP/brute-force assignment into a TableAnnotation.
  TableAnnotation DecodeAssignment(const std::vector<int>& assignment,
                                   const TableLabelSpace& space) const;

  /// Encodes an annotation as a full assignment (for scoring / training).
  /// Labels missing from a domain map to na (index 0).
  std::vector<int> EncodeAnnotation(const TableAnnotation& annotation,
                                    const TableLabelSpace& space) const;
};

/// Scratch for building table graphs: node potentials, the φ3 column
/// rows, factor tables and entries, the implicit-factor spec and φ5's
/// label-of-entity array. All of it is reused, so with a reused
/// TableGraph the graph's storage stops allocating once both have grown
/// to the worker's largest table (preparing cell and header texts for
/// φ1/φ2 still may). One per worker; not thread-safe.
struct TableGraphScratch {
  std::vector<double> potentials;
  Phi3Column phi3;
  std::vector<int> phi3_slots;
  std::vector<size_t> phi3_bucket;
  std::vector<double> table;
  std::vector<FactorGraph::SparseEntry> entries;
  FactorGraph::ImplicitTernarySpec spec;
  /// φ5: label index of each right-side candidate entity, valid where
  /// label_stamp[e] == label_epoch (sized per catalog).
  std::vector<int32_t> label_of;
  std::vector<uint32_t> label_stamp;
  uint32_t label_epoch = 0;
};

/// Materializes node potentials (φ1, φ2) and factors (φ3, φ4, φ5) from the
/// feature computer under weights `w` into `out`, rebuilt in place.
void BuildTableGraph(const Table& table, const TableLabelSpace& space,
                     FeatureComputer* features, const Weights& w,
                     const TableGraphOptions& options,
                     TableGraphScratch* scratch, TableGraph* out);

/// Convenience form with fresh scratch.
TableGraph BuildTableGraph(const Table& table, const TableLabelSpace& space,
                           FeatureComputer* features, const Weights& w,
                           const TableGraphOptions& options =
                               TableGraphOptions());

}  // namespace webtab

#endif  // WEBTAB_INFERENCE_TABLE_GRAPH_H_
