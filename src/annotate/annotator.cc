#include "annotate/annotator.h"

#include "common/timer.h"
#include "inference/unique_constraint.h"
#include "model/label_space.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace webtab {

TableAnnotator::TableAnnotator(const CatalogView* catalog,
                               const LemmaIndexView* index,
                               AnnotatorOptions options,
                               Vocabulary* vocabulary)
    : catalog_(catalog),
      index_(index),
      options_(std::move(options)),
      closure_(catalog),
      owned_vocab_(vocabulary == nullptr &&
                           index->mutable_vocabulary() == nullptr
                       ? std::make_unique<Vocabulary>(index->CopyVocabulary())
                       : nullptr),
      features_(&closure_,
                vocabulary != nullptr       ? vocabulary
                : owned_vocab_ != nullptr   ? owned_vocab_.get()
                                            : index->mutable_vocabulary(),
                options_.features) {}

TableAnnotation TableAnnotator::Annotate(const Table& table,
                                         AnnotationTiming* timing,
                                         AnnotateExplain* explain) {
  TableCandidates candidates;
  return AnnotateWithCandidates(table, &candidates, timing, explain);
}

TableAnnotation TableAnnotator::AnnotateWithCandidates(
    const Table& table, TableCandidates* candidates_out,
    AnnotationTiming* timing, AnnotateExplain* explain) {
  WallTimer total;
  WallTimer stage;

  TableAnnotation annotation;
  {
    obs::TraceSpan span("annotate.candidates");
    *candidates_out = GenerateCandidates(table, *index_, &closure_,
                                         options_.candidates,
                                         &candidate_workspace_);
  }
  const double candidate_seconds = stage.ElapsedSeconds();

  stage.Restart();
  obs::TraceSpan graph_span("annotate.graph_build");
  obs::TraceSpan label_space_span("annotate.label_space");
  TableLabelSpace space = TableLabelSpace::Build(table, *candidates_out);
  label_space_span.End();
  TableGraphOptions graph_options;
  graph_options.use_relations = options_.use_relations;
  graph_options.factor_rep = options_.factor_rep;
  TableGraph graph = BuildTableGraph(table, space, &features_,
                                     options_.weights, graph_options);
  graph_span.End();
  const double graph_seconds = stage.ElapsedSeconds();

  stage.Restart();
  BpResult bp;
  {
    obs::TraceSpan bp_span("annotate.bp");
    BpOptions bp_options = options_.bp;
    if (explain != nullptr) bp_options.capture_convergence = true;
    bp = RunBeliefPropagation(graph.graph, bp_options, &bp_workspace_);
  }
  {
    obs::TraceSpan decode_span("annotate.decode");
    annotation = graph.DecodeAssignment(bp.assignment, space);
    ApplyUniqueConstraint(table, space, &annotation);
  }
  const double inference_seconds = stage.ElapsedSeconds();

  static obs::Counter* tables_annotated =
      obs::MetricsRegistry::Get().GetCounter("annotate.tables");
  static obs::Counter* bp_iterations_total =
      obs::MetricsRegistry::Get().GetCounter("annotate.bp_iterations");
  tables_annotated->Add(1);
  bp_iterations_total->Add(bp.iterations);
  obs::TraceAddCounter("bp_iterations", bp.iterations);

  if (explain != nullptr) {
    explain->columns.clear();
    explain->columns.reserve(table.cols());
    for (int c = 0; c < table.cols(); ++c) {
      AnnotateExplain::ColumnExplain col;
      col.column = c;
      col.type_candidates =
          static_cast<int>(candidates_out->column_types[c].size());
      for (int r = 0; r < table.rows(); ++r) {
        col.entity_candidates +=
            static_cast<int64_t>(candidates_out->cells[r][c].size());
      }
      col.decoded_type = annotation.column_types[c];
      const int tv = graph.type_var[c];
      if (tv >= 0 &&
          tv < static_cast<int>(bp.decode_margins.size())) {
        col.decode_margin = bp.decode_margins[tv];
      }
      explain->columns.push_back(col);
    }
    explain->relation_pairs =
        static_cast<int>(candidates_out->relations.size());
    explain->bp_iterations = bp.iterations;
    explain->bp_converged = bp.converged;
    explain->bp_max_residual = bp.max_residual;
    explain->bp_residual_trail = std::move(bp.residual_trail);
    explain->bp_factor_updates = bp.factor_updates;
    explain->bp_factor_skips = bp.factor_skips;
  }

  if (timing != nullptr) {
    timing->candidate_seconds = candidate_seconds;
    timing->graph_seconds = graph_seconds;
    timing->inference_seconds = inference_seconds;
    timing->total_seconds = total.ElapsedSeconds();
    timing->bp_iterations = bp.iterations;
    timing->bp_converged = bp.converged;
  }
  return annotation;
}

void TableAnnotator::ApplyUniqueConstraint(const Table& table,
                                           const TableLabelSpace& space,
                                           TableAnnotation* annotation) {
  if (!options_.unique_column_constraint) return;
  // Re-decode each column's entities under a uniqueness constraint,
  // keeping the BP-chosen column type fixed (min-cost-flow extension).
  for (int c = 0; c < table.cols(); ++c) {
    TypeId t = annotation->column_types[c];
    std::vector<std::vector<EntityId>> domains(table.rows());
    std::vector<std::vector<double>> scores(table.rows());
    for (int r = 0; r < table.rows(); ++r) {
      const auto& domain = space.EntityDomain(r, c);
      domains[r] = domain;
      features_.Phi1Logs(options_.weights, table.cell(r, c), domain,
                         &scores[r]);
      if (t == kNa) continue;
      for (size_t l = 1; l < domain.size(); ++l) {
        scores[r][l] += features_.Phi3Log(options_.weights, t, domain[l]);
      }
    }
    std::vector<int> labels = AssignUniqueEntities(domains, scores);
    for (int r = 0; r < table.rows(); ++r) {
      annotation->cell_entities[r][c] = domains[r][labels[r]];
    }
  }
}

}  // namespace webtab
