#include "metrics.h"

#include <cmath>

#include "common/logging.h"
#include "serve/json.h"

namespace perfbench {

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> kSpecs = {
      {"setup_s", "s"},
      {"throughput_per_s", "1/s"},
      {"latency_p50_ms", "ms"},
      {"latency_p90_ms", "ms"},
      {"peak_rss_mb", "MiB"},
      {"success_rate", "ratio"},
      {"entity_accuracy", "ratio"},
      {"type_f1", "ratio"},
      {"relation_f1", "ratio"},
      {"search_map", "ratio"},
  };
  return kSpecs;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> kSpecs = {
      {"serve.protocol_ms", "ms"},
      {"serve.queue_ms.p50", "ms"},
      {"serve.queue_ms.p99", "ms"},
      {"serve.work_ms.p50", "ms"},
      {"serve.hop_ms.p50", "ms"},
      {"serve.cache_hit_ratio", "ratio"},
      {"serve.latency_p99_ms", "ms"},
      {"annotate.candidates_ms", "ms"},
      {"annotate.graph_build_ms", "ms"},
      {"annotate.bp_ms", "ms"},
      {"annotate.decode_ms", "ms"},
      {"annotate.share.candidates", "ratio"},
      {"annotate.share.graph_build", "ratio"},
      {"annotate.share.bp", "ratio"},
      {"annotate.share.decode", "ratio"},
      {"annotate.stage_coverage", "ratio"},
      {"annotate.tables", "count"},
      {"annotate.cells", "count"},
      {"annotate.distinct_cell_ratio", "ratio"},
      {"annotate.entity_candidates_per_cell", "count"},
      {"annotate.type_candidates_per_column", "count"},
      {"annotate.relation_candidates_per_pair", "count"},
      {"annotate.graph_factors", "count"},
      {"annotate.bp_iterations", "count"},
      {"annotate.bp_converged_ratio", "ratio"},
      {"annotate.bp_skip_ratio", "ratio"},
      {"search.normalize_ms", "ms"},
      {"search.engine_ms.baseline", "ms"},
      {"search.engine_ms.type", "ms"},
      {"search.engine_ms.type_relation", "ms"},
      {"search.engine_ms.join", "ms"},
      {"search.queries", "count"},
      {"search.tables_planned", "count"},
      {"search.tables_scored", "count"},
      {"search.scored_ratio", "ratio"},
      {"search.stopped_early_ratio", "ratio"},
      {"search.map.baseline", "ratio"},
      {"search.map.type", "ratio"},
      {"setup.lemma_index_ms", "ms"},
      {"setup.corpus_annotate_ms", "ms"},
      {"setup.corpus_index_ms", "ms"},
      {"setup.snapshot_write_ms", "ms"},
      {"setup.snapshot_load_ms", "ms"},
      {"setup.warmup_ms", "ms"},
      {"storage.snapshot_bytes", "bytes"},
      {"bench.measured_requests", "count"},
      {"bench.trace_overhead_ratio", "ratio"},
  };
  return kSpecs;
}

std::string RenderResultLine(bool correct, int64_t attempted,
                             int64_t failed,
                             const std::vector<MetricSpec>& specs,
                             const std::map<std::string, double>& values) {
  using webtab::serve::Json;
  WEBTAB_CHECK(values.size() == specs.size())
      << "metric set differs from the spec";
  Json metrics = Json::Object();
  for (const MetricSpec& spec : specs) {
    auto it = values.find(spec.name);
    WEBTAB_CHECK(it != values.end()) << "metric not measured: " << spec.name;
    WEBTAB_CHECK(std::isfinite(it->second))
        << "metric not finite: " << spec.name;
    Json metric = Json::Object();
    metric.Set("value", Json::Number(it->second));
    metric.Set("unit", Json::String(spec.unit));
    metrics.Set(spec.name, std::move(metric));
  }
  Json line = Json::Object();
  line.Set("correct", Json::Bool(correct));
  line.Set("attempted", Json::Number(static_cast<double>(attempted)));
  line.Set("failed", Json::Number(static_cast<double>(failed)));
  line.Set("metrics", std::move(metrics));
  return line.Dump();
}

}  // namespace perfbench
