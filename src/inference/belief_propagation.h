#ifndef WEBTAB_INFERENCE_BELIEF_PROPAGATION_H_
#define WEBTAB_INFERENCE_BELIEF_PROPAGATION_H_

#include <cstdint>
#include <vector>

#include "inference/factor_graph.h"

namespace webtab {

struct BpOptions {
  /// The paper reports convergence "within three iterations" (§4.4.2);
  /// we allow a few more as safety margin.
  int max_iterations = 10;
  /// Convergence threshold on the max absolute message change.
  double tolerance = 1e-6;
  /// 0 = no damping; d in (0,1) mixes d*old + (1-d)*new messages.
  double damping = 0.0;
  /// Residual-based factor scheduling: a factor whose last update changed
  /// nothing and whose adjacent beliefs are untouched since is skipped in
  /// later sweeps. The skip criterion is exact (inputs bitwise unchanged,
  /// previous delta exactly zero), so results are identical to running
  /// every factor every sweep — only converged work is elided.
  bool residual_scheduling = true;
  /// EXPLAIN support: record the per-iteration max residual
  /// (BpResult::residual_trail) and per-variable decode margins
  /// (BpResult::decode_margins). Off by default — capturing fills two
  /// vectors per run, which the zero-steady-state-allocation paths must
  /// not pay for. Messages, schedule, and the decoded assignment are
  /// unaffected either way.
  bool capture_convergence = false;
};

struct BpResult {
  std::vector<int> assignment;  // Label index per variable (-1 if domain 0).
  int iterations = 0;
  bool converged = false;
  double score = 0.0;           // Log-score of the decoded assignment.
  double max_residual = 0.0;    // Last iteration's message change.
  int64_t factor_updates = 0;   // Kernel executions across all sweeps.
  int64_t factor_skips = 0;     // Factors elided by residual scheduling.

  // Filled only when BpOptions::capture_convergence:
  /// Max message residual after each iteration (size == iterations) —
  /// the convergence curve EXPLAIN reports.
  std::vector<double> residual_trail;
  /// Per-variable decode margin: best belief minus runner-up belief
  /// (0 for domains of size <= 1, where decoding is trivial). Small
  /// margins flag near-tie decodes.
  std::vector<double> decode_margins;
};

/// Reusable scratch for RunBeliefPropagation: message arena, beliefs,
/// schedule, and all per-factor kernel scratch live here, so repeated
/// runs (e.g. one per table in a corpus) perform no per-iteration heap
/// allocation and amortize setup allocations across tables. A workspace
/// may be reused freely across graphs of different shapes; buffers only
/// grow. Not thread-safe; use one per worker.
class BpWorkspace {
 public:
  BpWorkspace() = default;
  BpWorkspace(const BpWorkspace&) = delete;
  BpWorkspace& operator=(const BpWorkspace&) = delete;

 private:
  friend BpResult RunBeliefPropagation(const FactorGraph& graph,
                                       const BpOptions& options,
                                       BpWorkspace* workspace);

  void Prepare(const FactorGraph& graph);

  // Views of the graph's factors, taken once per run.
  std::vector<FactorGraph::Factor> factors_;

  // Flat arenas. belief_ holds per-variable beliefs at var_off_[v];
  // msg_ holds factor->var messages at msg_off_[adj_start_[f] + i].
  std::vector<double> belief_;
  std::vector<int64_t> var_off_;
  std::vector<double> msg_;
  std::vector<int64_t> msg_off_;
  std::vector<int64_t> adj_start_;

  // Schedule (factor ids in ascending group order) and residual-skip
  // state: per-variable belief versions, per-adjacency last-seen
  // versions, per-factor "last update was a no-op" flags.
  std::vector<int> order_;
  std::vector<uint32_t> version_;
  std::vector<uint32_t> last_seen_;
  std::vector<uint8_t> last_zero_;

  // Largest variable domain, computed in Prepare; scratch slot stride.
  int max_dom_ = 1;

  // Kernel scratch, sized to the largest domain / entry list.
  std::vector<double> in_scratch_;    // var->factor messages, 3 slots.
  std::vector<double> new_scratch_;   // new factor->var messages, 3 slots.
  std::vector<uint8_t> marks_;        // per-label excision marks.
  std::vector<double> slab_a_on_, slab_a_off_;  // per-slab class maxima.
  std::vector<double> slab_b_on_, slab_b_off_;
  std::vector<double> term_on_, term_off_;      // per-slab merged terms.
};

/// Sequential max-product belief propagation in log domain. Within each
/// iteration, factors are processed in ascending group order, which
/// realizes the schedule of Appendix D when table graphs assign
/// φ3 < φ5 < φ4 groups: messages flow entities→types, entities→relations,
/// types→relations and back, repeated to convergence. On factor trees
/// (e.g. the relation-free model of §4.4.1) the result is exact.
///
/// Max-marginalization dispatches on the factor representation: dense
/// tables are enumerated once per sweep; kSparsePair factors run in
/// expected O(L0 + L1 + nnz); kImplicitTernary factors run in
/// O(B·(Dx+Dy) + nnz) via class-wise maxima (see factor_graph.h). All
/// representations compute exact max-marginals, so mixing them changes
/// cost, not results.
///
/// `workspace` is optional; passing one reuses its buffers so repeated
/// calls allocate nothing in steady state.
BpResult RunBeliefPropagation(const FactorGraph& graph,
                              const BpOptions& options = BpOptions(),
                              BpWorkspace* workspace = nullptr);

}  // namespace webtab

#endif  // WEBTAB_INFERENCE_BELIEF_PROPAGATION_H_
