#include "annotate/corpus_annotator.h"

#include <atomic>
#include <memory>
#include <thread>

#include "common/timer.h"

namespace webtab {

namespace {

/// Per-worker accumulator, merged into CorpusTimingStats at join time.
struct WorkerStats {
  double total_seconds = 0.0;
  double candidate_seconds = 0.0;
  double graph_seconds = 0.0;
  double inference_seconds = 0.0;
  int64_t converged_tables = 0;
};

void RecordTiming(const AnnotationTiming& timing, int index,
                  CorpusTimingStats* stats, WorkerStats* local) {
  stats->per_table_millis[index] = timing.total_seconds * 1e3;
  stats->bp_iteration_counts[index] = timing.bp_iterations;
  local->total_seconds += timing.total_seconds;
  local->candidate_seconds += timing.candidate_seconds;
  local->graph_seconds += timing.graph_seconds;
  local->inference_seconds += timing.inference_seconds;
  if (timing.bp_converged) ++local->converged_tables;
}

void MergeWorkerStats(const WorkerStats& local, CorpusTimingStats* stats) {
  stats->total_seconds += local.total_seconds;
  stats->candidate_seconds += local.candidate_seconds;
  stats->graph_seconds += local.graph_seconds;
  stats->inference_seconds += local.inference_seconds;
  stats->converged_tables += local.converged_tables;
}

}  // namespace

double CorpusTimingStats::MeanMillisPerTable() const {
  if (per_table_millis.empty()) return 0.0;
  double total = 0.0;
  for (double t : per_table_millis) total += t;
  return total / static_cast<double>(per_table_millis.size());
}

double CorpusTimingStats::ProbeFraction() const {
  if (total_seconds <= 0.0) return 0.0;
  return (candidate_seconds + graph_seconds) / total_seconds;
}

double CorpusTimingStats::InferenceFraction() const {
  if (total_seconds <= 0.0) return 0.0;
  return inference_seconds / total_seconds;
}

std::vector<AnnotatedTable> AnnotateCorpus(TableAnnotator* annotator,
                                           const std::vector<Table>& tables,
                                           CorpusTimingStats* stats) {
  WallTimer wall;
  std::vector<AnnotatedTable> out;
  out.reserve(tables.size());
  for (const Table& table : tables) {
    AnnotationTiming timing;
    TableAnnotation annotation = annotator->Annotate(table, &timing);
    if (stats != nullptr) {
      stats->per_table_millis.push_back(timing.total_seconds * 1e3);
      stats->total_seconds += timing.total_seconds;
      stats->candidate_seconds += timing.candidate_seconds;
      stats->graph_seconds += timing.graph_seconds;
      stats->inference_seconds += timing.inference_seconds;
      stats->bp_iteration_counts.push_back(timing.bp_iterations);
      if (timing.bp_converged) ++stats->converged_tables;
    }
    out.push_back(AnnotatedTable{table, std::move(annotation)});
  }
  if (stats != nullptr) stats->wall_seconds += wall.ElapsedSeconds();
  return out;
}

std::vector<AnnotatedTable> AnnotateCorpusParallel(
    const CatalogView* catalog, const LemmaIndexView* index,
    const CorpusAnnotatorOptions& options, const std::vector<Table>& tables,
    CorpusTimingStats* stats) {
  const int num_threads =
      std::max(1, std::min(options.num_threads,
                           static_cast<int>(tables.size())));
  if (num_threads <= 1) {
    TableAnnotator annotator(catalog, index, options.annotator);
    return AnnotateCorpus(&annotator, tables, stats);
  }

  WallTimer wall;
  std::vector<AnnotatedTable> out(tables.size());
  CorpusTimingStats collected;
  collected.per_table_millis.assign(tables.size(), 0.0);
  collected.bp_iteration_counts.assign(tables.size(), 0);
  std::vector<WorkerStats> worker_stats(num_threads);

  // Type closures are computed once here and copied into each worker,
  // as the serving layer does per snapshot, instead of every worker
  // warming its own.
  ClosureCache prototype(catalog);
  prototype.PrecomputeTypeClosures();

  std::atomic<size_t> next{0};
  auto worker = [&](int worker_id) {
    // Private vocabulary: similarity features intern query tokens, and
    // interning never changes existing IDF statistics, so per-worker
    // copies produce identical scores to a shared instance. For snapshot
    // backends this is the only materialization; catalog and postings
    // stay in the shared mapping.
    Vocabulary vocab = index->CopyVocabulary();
    TableAnnotator annotator(catalog, index, options.annotator, &vocab);
    annotator.closure()->SeedFrom(prototype);
    WorkerStats* local = &worker_stats[worker_id];
    while (true) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= tables.size()) break;
      AnnotationTiming timing;
      TableAnnotation annotation = annotator.Annotate(tables[i], &timing);
      out[i] = AnnotatedTable{tables[i], std::move(annotation)};
      if (stats != nullptr) {
        RecordTiming(timing, static_cast<int>(i), &collected, local);
      }
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(num_threads);
  for (int t = 0; t < num_threads; ++t) threads.emplace_back(worker, t);
  for (std::thread& t : threads) t.join();

  if (stats != nullptr) {
    stats->per_table_millis.insert(stats->per_table_millis.end(),
                                   collected.per_table_millis.begin(),
                                   collected.per_table_millis.end());
    stats->bp_iteration_counts.insert(stats->bp_iteration_counts.end(),
                                      collected.bp_iteration_counts.begin(),
                                      collected.bp_iteration_counts.end());
    for (const WorkerStats& local : worker_stats) {
      MergeWorkerStats(local, stats);
    }
    stats->wall_seconds += wall.ElapsedSeconds();
  }
  return out;
}

}  // namespace webtab
