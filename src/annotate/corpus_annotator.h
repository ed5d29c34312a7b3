#ifndef WEBTAB_ANNOTATE_CORPUS_ANNOTATOR_H_
#define WEBTAB_ANNOTATE_CORPUS_ANNOTATOR_H_

#include <vector>

#include "annotate/annotator.h"

namespace webtab {

/// A table with its system annotation — the unit stored in the search
/// index (§5).
struct AnnotatedTable {
  Table table;
  TableAnnotation annotation;
};

/// Aggregate timing over a corpus run (drives Figure 7).
struct CorpusTimingStats {
  std::vector<double> per_table_millis;
  /// Sum of per-table annotation time across workers (CPU cost).
  double total_seconds = 0.0;
  /// Elapsed wall-clock for the whole corpus; equals total_seconds for
  /// single-threaded runs, smaller under the thread pool.
  double wall_seconds = 0.0;
  double candidate_seconds = 0.0;
  double graph_seconds = 0.0;
  double inference_seconds = 0.0;
  int64_t converged_tables = 0;
  std::vector<int> bp_iteration_counts;

  double MeanMillisPerTable() const;
  /// Fraction of total time spent probing the index / computing text
  /// similarity (candidate + potential materialization) vs inference.
  double ProbeFraction() const;
  double InferenceFraction() const;
};

/// Annotates every table, returning annotated tables and timing stats.
std::vector<AnnotatedTable> AnnotateCorpus(TableAnnotator* annotator,
                                           const std::vector<Table>& tables,
                                           CorpusTimingStats* stats =
                                               nullptr);

struct CorpusAnnotatorOptions {
  AnnotatorOptions annotator;
  /// Worker threads; <= 1 annotates inline on the calling thread.
  /// Tables are independent (§6.1.2 annotates a 250k-table stream), so
  /// each worker owns a private TableAnnotator (closure + feature
  /// caches, similarity scratch, BP + column-probe workspaces) and a
  /// private Vocabulary copy — similarity probes intern query tokens,
  /// so sharing the index's vocabulary across threads would race. The
  /// type closures are computed once per call and copied into every
  /// worker's closure cache. The shared Catalog and LemmaIndex are only
  /// read. Output order and annotations are identical regardless of
  /// thread count.
  int num_threads = 1;
};

/// Annotates a corpus on a pool of worker threads, constructing one
/// annotator per worker. `stats` (optional) aggregates across workers;
/// per_table_millis stays in table order. Both backends work: in-memory
/// builds, or snapshot views — in which case every worker reads the same
/// shared read-only mapping (one physical copy of the catalog and
/// postings across the pool) and only the small mutable state (closure
/// caches, BP workspace, vocabulary copy) is per-worker.
std::vector<AnnotatedTable> AnnotateCorpusParallel(
    const CatalogView* catalog, const LemmaIndexView* index,
    const CorpusAnnotatorOptions& options, const std::vector<Table>& tables,
    CorpusTimingStats* stats = nullptr);

}  // namespace webtab

#endif  // WEBTAB_ANNOTATE_CORPUS_ANNOTATOR_H_
