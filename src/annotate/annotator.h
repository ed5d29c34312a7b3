#ifndef WEBTAB_ANNOTATE_ANNOTATOR_H_
#define WEBTAB_ANNOTATE_ANNOTATOR_H_

#include <memory>

#include "catalog/catalog_view.h"
#include "catalog/closure.h"
#include "index/candidates.h"
#include "inference/belief_propagation.h"
#include "inference/table_graph.h"
#include "model/features.h"
#include "model/label_space.h"
#include "model/weights.h"
#include "table/annotation.h"
#include "table/table.h"

namespace webtab {

/// Everything configurable about the collective annotator.
struct AnnotatorOptions {
  CandidateOptions candidates;
  FeatureOptions features;
  BpOptions bp;
  Weights weights = Weights::Default();
  /// false reduces to the exact relation-free model (§4.4.1).
  bool use_relations = true;
  /// Factor representation emitted for inference (see table_graph.h).
  /// kStructured exploits the φ3/φ4/φ5 shapes for faster graph builds
  /// and BP sweeps with identical results; kDense keeps full log tables.
  FactorRepChoice factor_rep = FactorRepChoice::kStructured;
  /// Extension (§4.4.1): decode entity columns under a uniqueness
  /// constraint via min-cost flow after BP fixes column types.
  bool unique_column_constraint = false;
};

/// EXPLAIN payload for one annotate request: what the pipeline had to
/// choose from (per-column candidate counts) and how certain inference
/// was (BP convergence curve, per-column decode margins). Filled only
/// on request — capturing allocates, so the serving fast path never
/// pays for it.
struct AnnotateExplain {
  struct ColumnExplain {
    int column = 0;
    /// Σ over rows of the cell's scored entity candidates (Erc sizes).
    int64_t entity_candidates = 0;
    /// Candidate types for the column (∪ T(E), §4.3).
    int type_candidates = 0;
    TypeId decoded_type = kNa;
    /// Best-minus-runner-up belief of the column's type variable; 0
    /// when the domain was trivial or the column had no type variable.
    /// Small margins flag near-tie type decisions.
    double decode_margin = 0.0;
  };
  std::vector<ColumnExplain> columns;
  /// Column pairs with at least one candidate relation.
  int relation_pairs = 0;
  int bp_iterations = 0;
  bool bp_converged = false;
  double bp_max_residual = 0.0;
  /// Max message residual after each BP iteration (the convergence
  /// curve; size == bp_iterations).
  std::vector<double> bp_residual_trail;
  int64_t bp_factor_updates = 0;
  int64_t bp_factor_skips = 0;
};

/// Per-table cost breakdown backing Figure 7 / §6.1.2 (the paper: ~80% of
/// time in lemma probes + similarity, <1% in inference).
struct AnnotationTiming {
  double candidate_seconds = 0.0;  // Index probes (Erc, Tc, Bcc').
  double graph_seconds = 0.0;      // Feature/potential materialization.
  double inference_seconds = 0.0;  // Message passing.
  double total_seconds = 0.0;
  int bp_iterations = 0;
  bool bp_converged = true;
};

/// The paper's collective annotator: candidate generation → factor graph
/// (φ1..φ5) → max-product BP → decoded TableAnnotation. One instance per
/// worker (owns per-worker caches); the catalog and index are shared,
/// read-only.
class TableAnnotator {
 public:
  /// `vocabulary` overrides the index's vocabulary for feature
  /// similarity (which interns query tokens); pass a private copy per
  /// worker for lock-free parallel annotation. nullptr uses the index's
  /// shared vocabulary when the backend has one (in-memory build), or a
  /// private materialized copy for immutable snapshot backends. The
  /// override must outlive the annotator. Both `catalog` and `index` may
  /// be in-memory builds or mmap'd snapshot views.
  TableAnnotator(const CatalogView* catalog, const LemmaIndexView* index,
                 AnnotatorOptions options = AnnotatorOptions(),
                 Vocabulary* vocabulary = nullptr);

  TableAnnotator(const TableAnnotator&) = delete;
  TableAnnotator& operator=(const TableAnnotator&) = delete;

  /// Annotates one table. `timing` and `explain` are optional; passing
  /// `explain` turns on BP convergence capture for this run only.
  TableAnnotation Annotate(const Table& table,
                           AnnotationTiming* timing = nullptr,
                           AnnotateExplain* explain = nullptr);

  /// Like Annotate but also returns the label space / candidates, for
  /// evaluation drivers that need the baselines on identical candidates.
  TableAnnotation AnnotateWithCandidates(const Table& table,
                                         TableCandidates* candidates_out,
                                         AnnotationTiming* timing = nullptr,
                                         AnnotateExplain* explain = nullptr);

  const AnnotatorOptions& options() const { return options_; }
  /// Mutable so experiment drivers can swap trained weights in place.
  AnnotatorOptions* mutable_options() { return &options_; }

  ClosureCache* closure() { return &closure_; }
  FeatureComputer* features() { return &features_; }
  const LemmaIndexView& index() const { return *index_; }

 private:
  /// Optional §4.4.1 min-cost-flow re-decode (no-op unless
  /// options_.unique_column_constraint); runs inside the decode span.
  void ApplyUniqueConstraint(const Table& table,
                             const TableLabelSpace& space,
                             TableAnnotation* annotation);

  const CatalogView* catalog_;
  const LemmaIndexView* index_;
  AnnotatorOptions options_;
  ClosureCache closure_;
  /// Private vocabulary copy, materialized only when the index backend
  /// has no mutable vocabulary (snapshot views) and none was injected.
  std::unique_ptr<Vocabulary> owned_vocab_;
  FeatureComputer features_;
  /// Reused across tables so steady-state BP performs no allocations.
  BpWorkspace bp_workspace_;
  /// Column-probe batch + candidate scratch, reused across tables like
  /// the BP workspace (and, through the annotator, across serving
  /// requests and corpus-annotation work items).
  CandidateWorkspace candidate_workspace_;
  /// Annotate's candidates, label space and factor graph, rebuilt in
  /// place per table with the graph build's scratch, so a warmed worker
  /// allocates little more than the annotation it returns.
  TableCandidates candidates_;
  TableLabelSpace space_;
  TableGraph graph_;
  TableGraphScratch graph_scratch_;
};

}  // namespace webtab

#endif  // WEBTAB_ANNOTATE_ANNOTATOR_H_
