#include "serve/protocol.h"

#include <cmath>
#include <limits>
#include <utility>

#include "obs/metrics.h"
#include "obs/process_stats.h"
#include "serve/json.h"

namespace webtab {
namespace serve {

namespace {

Result<WireRequest::Op> ParseOp(std::string_view name) {
  using Op = WireRequest::Op;
  if (name == "annotate") return Op::kAnnotate;
  if (name == "search") return Op::kSearch;
  if (name == "join") return Op::kJoin;
  if (name == "swap") return Op::kSwap;
  if (name == "stats") return Op::kStats;
  if (name == "metrics") return Op::kMetrics;
  if (name == "timeseries") return Op::kTimeseries;
  if (name == "debug") return Op::kDebug;
  if (name == "quit") return Op::kQuit;
  return Status::InvalidArgument("unknown op: " + std::string(name));
}

/// Reads the optional integer field `key` into `*out`, leaving it
/// untouched when the field is absent or not a number. JSON numbers
/// arrive as doubles, and converting a non-finite or out-of-range double
/// to an integer is undefined behaviour, so such values are rejected
/// with kInvalidArgument naming the field. In-range fractions truncate
/// toward zero.
template <typename Int>
Status GetIntField(const Json& json, std::string_view key, Int* out) {
  const Json* field = json.Find(key);
  if (field == nullptr || !field->is_number()) return Status::Ok();
  const double value = field->number_value();
  // min() is -2^(bits-1), so both limits are exact doubles; the negated
  // comparison also rejects NaN.
  constexpr double kMin = static_cast<double>(std::numeric_limits<Int>::min());
  if (!(value >= kMin && value < -kMin)) {
    return Status::InvalidArgument("\"" + std::string(key) +
                                   "\" is out of integer range");
  }
  *out = static_cast<Int>(value);
  return Status::Ok();
}

Status ParseTable(const Json& json, WireTable* out) {
  if (!json.is_object()) {
    return Status::InvalidArgument("\"table\" must be an object");
  }
  if (const Json* headers = json.Find("headers");
      headers != nullptr && headers->is_array()) {
    for (const Json& h : headers->items()) {
      out->headers.push_back(h.is_string() ? h.string_value() : "");
    }
  }
  const Json* rows = json.Find("rows");
  if (rows == nullptr || !rows->is_array()) {
    return Status::InvalidArgument("\"table.rows\" must be an array");
  }
  for (const Json& row : rows->items()) {
    if (!row.is_array()) {
      return Status::InvalidArgument("table rows must be arrays");
    }
    std::vector<std::string> cells;
    for (const Json& cell : row.items()) {
      cells.push_back(cell.is_string() ? cell.string_value() : "");
    }
    out->rows.push_back(std::move(cells));
  }
  out->context = json.GetString("context");
  return GetIntField(json, "id", &out->id);
}

}  // namespace

Result<WireRequest> ParseWireRequest(std::string_view line) {
  Result<Json> parsed = Json::Parse(line);
  if (!parsed.ok()) return parsed.status();
  const Json& json = *parsed;
  if (!json.is_object()) {
    return Status::InvalidArgument("request must be a JSON object");
  }

  WireRequest request;
  Result<WireRequest::Op> op = ParseOp(json.GetString("op"));
  if (!op.ok()) return op.status();
  request.op = *op;

  // "k" is an opt-in: absent (<= 0) keeps the engines on the exact
  // full ranking (scores and total_results as before; the renderer
  // still truncates the *displayed* list); present, it flows into the
  // engines as a pruned top-k request.
  WEBTAB_RETURN_IF_ERROR(GetIntField(json, "k", &request.top_k));
  WEBTAB_RETURN_IF_ERROR(
      GetIntField(json, "deadline_ms", &request.deadline_ms));

  switch (request.op) {
    case WireRequest::Op::kSearch: {
      Result<EngineKind> engine =
          ParseEngineKind(json.GetString("engine", "type_relation"));
      if (!engine.ok()) return engine.status();
      if (*engine == EngineKind::kJoin) {
        return Status::InvalidArgument("use \"op\":\"join\" for joins");
      }
      request.engine = *engine;
      request.select.relation = json.GetString("relation");
      request.select.type1 = json.GetString("type1");
      request.select.type2 = json.GetString("type2");
      request.select.e2 = json.GetString("e2");
      request.want_stats = json.GetBool("stats", false);
      request.want_trace = json.GetBool("trace", false);
      request.want_explain = json.GetBool("explain", false);
      break;
    }
    case WireRequest::Op::kJoin:
      request.engine = EngineKind::kJoin;
      request.want_stats = json.GetBool("stats", false);
      request.want_trace = json.GetBool("trace", false);
      request.want_explain = json.GetBool("explain", false);
      request.join.r1 = json.GetString("r1");
      request.join.r2 = json.GetString("r2");
      request.join.e3 = json.GetString("e3");
      request.join.e1_is_subject = json.GetBool("e1_is_subject", true);
      request.join.e2_is_subject = json.GetBool("e2_is_subject", true);
      WEBTAB_RETURN_IF_ERROR(GetIntField(json, "max_join_entities",
                                         &request.join.max_join_entities));
      break;
    case WireRequest::Op::kAnnotate: {
      request.want_trace = json.GetBool("trace", false);
      request.want_explain = json.GetBool("explain", false);
      const Json* table = json.Find("table");
      if (table == nullptr) {
        return Status::InvalidArgument("annotate requires \"table\"");
      }
      WEBTAB_RETURN_IF_ERROR(ParseTable(*table, &request.table));
      break;
    }
    case WireRequest::Op::kSwap:
      request.path = json.GetString("path");
      if (request.path.empty()) {
        return Status::InvalidArgument("swap requires \"path\"");
      }
      break;
    case WireRequest::Op::kTimeseries:
      request.window_s = json.GetNumber("window_s", 60.0);
      // A number literal too large for a double (1e999) parses as +inf,
      // which the response could not echo as JSON.
      if (!std::isfinite(request.window_s) || request.window_s <= 0.0) {
        return Status::InvalidArgument(
            "\"window_s\" must be finite and > 0");
      }
      break;
    case WireRequest::Op::kStats:
    case WireRequest::Op::kMetrics:
    case WireRequest::Op::kDebug:
    case WireRequest::Op::kQuit:
      break;
  }
  return request;
}

SelectQuery ResolveSelectQuery(const WireSelect& wire,
                               const CatalogView& catalog) {
  SelectQuery query;
  query.relation = catalog.FindRelationByName(wire.relation);
  query.type1 = catalog.FindTypeByName(wire.type1);
  query.type2 = catalog.FindTypeByName(wire.type2);
  query.e2 = catalog.FindEntityByName(wire.e2);
  query.e2_text = wire.e2;
  query.relation_text = wire.relation;
  query.type1_text = wire.type1;
  query.type2_text = wire.type2;
  return query;
}

namespace {

Status UnknownName(const char* field, const char* what,
                   const std::string& name) {
  return Status::InvalidArgument(std::string(field) + ": unknown " + what +
                                 " \"" + name + "\"");
}

}  // namespace

Status ValidateResolvedSelect(EngineKind engine, const WireSelect& wire,
                              const SelectQuery& query) {
  // Only names the chosen engine actually reads are required: the type
  // engine locates columns by type1/type2; the type_relation engine by
  // relation alone (it never reads the type ids); the baseline treats
  // everything as strings.
  if (engine == EngineKind::kType) {
    if (!wire.type1.empty() && query.type1 == kNa) {
      return UnknownName("type1", "type", wire.type1);
    }
    if (!wire.type2.empty() && query.type2 == kNa) {
      return UnknownName("type2", "type", wire.type2);
    }
  }
  if (engine == EngineKind::kTypeRelation && !wire.relation.empty() &&
      query.relation == kNa) {
    return UnknownName("relation", "relation", wire.relation);
  }
  return Status::Ok();
}

Status ValidateResolvedJoin(const WireJoin& wire, const JoinQuery& query) {
  if (!wire.r1.empty() && query.r1 == kNa) {
    return UnknownName("r1", "relation", wire.r1);
  }
  if (!wire.r2.empty() && query.r2 == kNa) {
    return UnknownName("r2", "relation", wire.r2);
  }
  return Status::Ok();
}

JoinQuery ResolveJoinQuery(const WireJoin& wire, const CatalogView& catalog) {
  JoinQuery query;
  query.r1 = catalog.FindRelationByName(wire.r1);
  query.r2 = catalog.FindRelationByName(wire.r2);
  query.e3 = catalog.FindEntityByName(wire.e3);
  query.e3_text = wire.e3;
  query.e1_is_subject = wire.e1_is_subject;
  query.e2_is_subject = wire.e2_is_subject;
  query.max_join_entities = wire.max_join_entities;
  return query;
}

Result<Table> WireToTable(const WireTable& wire) {
  const int rows = static_cast<int>(wire.rows.size());
  const size_t cols = rows > 0 ? wire.rows[0].size()
                               : wire.headers.size();
  if (rows == 0 && cols == 0) {
    return Status::InvalidArgument("table has no rows or headers");
  }
  for (const auto& row : wire.rows) {
    if (row.size() != cols) {
      return Status::InvalidArgument("table rows must be rectangular");
    }
  }
  if (!wire.headers.empty() && wire.headers.size() != cols) {
    return Status::InvalidArgument("header count must match columns");
  }
  Table table(rows, static_cast<int>(cols));
  for (size_t c = 0; c < wire.headers.size(); ++c) {
    table.set_header(static_cast<int>(c), wire.headers[c]);
  }
  for (int r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      table.set_cell(r, static_cast<int>(c), wire.rows[r][c]);
    }
  }
  table.set_context(wire.context);
  table.set_id(wire.id);
  return table;
}

namespace {

Json MetaJson(const RequestMetadata& meta) {
  Json json = Json::Object();
  json.Set("request_id",
           Json::Number(static_cast<double>(meta.request_id)));
  json.Set("version", Json::Number(static_cast<double>(
                          meta.snapshot_version)));
  json.Set("cache_hit", Json::Bool(meta.cache_hit));
  json.Set("queue_ms", Json::Number(meta.queue_millis));
  json.Set("work_ms", Json::Number(meta.work_millis));
  return json;
}

Json TraceJson(const obs::TraceSummary& trace) {
  Json json = Json::Object();
  json.Set("total_ms", Json::Number(trace.total_ms));
  json.Set("balanced", Json::Bool(trace.balanced));
  if (trace.overflowed) json.Set("overflowed", Json::Bool(true));
  Json stages = Json::Array();
  for (const auto& stage : trace.stages) {
    Json item = Json::Object();
    item.Set("name", Json::String(stage.name));
    item.Set("depth", Json::Number(stage.depth));
    item.Set("ms", Json::Number(stage.ms));
    item.Set("count", Json::Number(static_cast<double>(stage.count)));
    stages.Append(std::move(item));
  }
  json.Set("stages", std::move(stages));
  Json counters = Json::Object();
  for (const auto& counter : trace.counters) {
    counters.Set(counter.name,
                 Json::Number(static_cast<double>(counter.value)));
  }
  json.Set("counters", std::move(counters));
  return json;
}

/// Every registered metric: counters/gauges as plain numbers,
/// histograms as {count, sum, mean, p50, p95, p99, buckets:[{le,n}]}
/// with empty buckets elided (they carry no information and the full
/// 64-bucket array would dominate the stats line).
Json MetricsJson() {
  Json metrics = Json::Object();
  for (const obs::MetricDump& dump : obs::MetricsRegistry::Get().Dump()) {
    if (dump.kind != obs::MetricDump::Kind::kHistogram) {
      metrics.Set(dump.name,
                  Json::Number(static_cast<double>(dump.value)));
      continue;
    }
    const obs::HistogramSnapshot& snap = dump.histogram;
    Json h = Json::Object();
    h.Set("count", Json::Number(static_cast<double>(snap.count)));
    h.Set("sum", Json::Number(snap.sum));
    h.Set("mean", Json::Number(snap.Mean()));
    h.Set("p50", Json::Number(snap.Percentile(0.50)));
    h.Set("p95", Json::Number(snap.Percentile(0.95)));
    h.Set("p99", Json::Number(snap.Percentile(0.99)));
    Json buckets = Json::Array();
    for (size_t i = 0; i < snap.buckets.size(); ++i) {
      if (snap.buckets[i] == 0) continue;
      Json bucket = Json::Object();
      bucket.Set("le", Json::Number(obs::Histogram::BucketUpperBound(
                           static_cast<int>(i))));
      bucket.Set("n", Json::Number(static_cast<double>(snap.buckets[i])));
      buckets.Append(std::move(bucket));
    }
    h.Set("buckets", std::move(buckets));
    metrics.Set(dump.name, std::move(h));
  }
  return metrics;
}

const char* VerdictName(SearchWorkspace::TableDecision::Verdict verdict) {
  switch (verdict) {
    case SearchWorkspace::TableDecision::Verdict::kScored:
      return "scored";
    case SearchWorkspace::TableDecision::Verdict::kPrunedZeroBound:
      return "pruned_zero_bound";
    case SearchWorkspace::TableDecision::Verdict::kPrunedSuffix:
      return "pruned_suffix";
  }
  return "unknown";
}

/// The search EXPLAIN payload: one entry per planned table in scan
/// order, plus the counter cross-check (planned/scored/stopped_early
/// recomputed from the log itself must match the engine's stats —
/// "consistent" says whether they did).
Json SearchExplainJson(const SearchResponse& response) {
  using Verdict = SearchWorkspace::TableDecision::Verdict;
  Json explain = Json::Object();
  Json tables = Json::Array();
  int scored = 0;
  for (const SearchWorkspace::TableDecision& d : response.explain_log) {
    Json item = Json::Object();
    item.Set("table", Json::Number(static_cast<double>(d.table)));
    item.Set("verdict", Json::String(VerdictName(d.verdict)));
    if (response.explain_bounds_valid) {
      item.Set("bound", Json::Number(d.bound));
      item.Set("suffix_after", Json::Number(d.suffix_after));
    }
    if (d.verdict == Verdict::kScored) ++scored;
    tables.Append(std::move(item));
  }
  explain.Set("tables", std::move(tables));
  explain.Set("bounds_valid", Json::Bool(response.explain_bounds_valid));
  const int planned = static_cast<int>(response.explain_log.size());
  explain.Set("tables_planned",
              Json::Number(static_cast<double>(planned)));
  explain.Set("tables_scored", Json::Number(static_cast<double>(scored)));
  explain.Set("stopped_early", Json::Bool(scored < planned));
  const bool consistent =
      !response.has_stats ||
      (planned == response.stats.tables_planned &&
       scored == response.stats.tables_scored &&
       (scored < planned) == response.stats.stopped_early);
  explain.Set("consistent", Json::Bool(consistent));
  return explain;
}

/// The annotate EXPLAIN payload: per-column candidate mass and decode
/// margins, the relation pair count, and the BP convergence curve.
Json AnnotateExplainJson(const AnnotateExplain& explain,
                         const CatalogView* catalog) {
  Json json = Json::Object();
  Json columns = Json::Array();
  for (const AnnotateExplain::ColumnExplain& col : explain.columns) {
    Json item = Json::Object();
    item.Set("column", Json::Number(col.column));
    item.Set("entity_candidates",
             Json::Number(static_cast<double>(col.entity_candidates)));
    item.Set("type_candidates", Json::Number(col.type_candidates));
    Json decoded = Json::Null();
    if (col.decoded_type != kNa && catalog != nullptr) {
      Result<std::string_view> name =
          catalog->CheckedTypeName(col.decoded_type);
      if (name.ok()) decoded = Json::String(*name);
    }
    item.Set("decoded_type", std::move(decoded));
    item.Set("decode_margin", Json::Number(col.decode_margin));
    columns.Append(std::move(item));
  }
  json.Set("columns", std::move(columns));
  json.Set("relation_pairs", Json::Number(explain.relation_pairs));
  Json bp = Json::Object();
  bp.Set("iterations", Json::Number(explain.bp_iterations));
  bp.Set("converged", Json::Bool(explain.bp_converged));
  bp.Set("max_residual", Json::Number(explain.bp_max_residual));
  Json trail = Json::Array();
  for (double r : explain.bp_residual_trail) {
    trail.Append(Json::Number(r));
  }
  bp.Set("residual_trail", std::move(trail));
  bp.Set("factor_updates",
         Json::Number(static_cast<double>(explain.bp_factor_updates)));
  bp.Set("factor_skips",
         Json::Number(static_cast<double>(explain.bp_factor_skips)));
  json.Set("bp", std::move(bp));
  return json;
}

}  // namespace

std::string RenderSearchResponse(const SearchResponse& response,
                                 const CatalogView* catalog, int top_k,
                                 bool want_stats) {
  if (!response.status.ok()) return RenderErrorResponse(response.status);
  Json json = Json::Object();
  json.Set("ok", Json::Bool(true));
  Json results = Json::Array();
  int emitted = 0;
  for (const SearchResult& result : response.results) {
    if (top_k > 0 && emitted >= top_k) break;
    Json item = Json::Object();
    Json entity = Json::Null();
    if (result.entity != kNa && catalog != nullptr) {
      Result<std::string_view> name = catalog->CheckedEntityName(result.entity);
      if (name.ok()) entity = Json::String(*name);
    }
    item.Set("entity", std::move(entity));
    item.Set("text", Json::String(result.text));
    item.Set("score", Json::Number(result.score));
    results.Append(std::move(item));
    ++emitted;
  }
  json.Set("results", std::move(results));
  json.Set("total_results",
           Json::Number(static_cast<double>(response.results.size())));
  if (want_stats && response.has_stats) {
    Json stats = Json::Object();
    stats.Set("tables_planned",
              Json::Number(static_cast<double>(
                  response.stats.tables_planned)));
    stats.Set("tables_scored",
              Json::Number(static_cast<double>(
                  response.stats.tables_scored)));
    stats.Set("stopped_early", Json::Bool(response.stats.stopped_early));
    json.Set("stats", std::move(stats));
  }
  if (response.has_explain) {
    json.Set("explain", SearchExplainJson(response));
  }
  if (response.has_trace) json.Set("trace", TraceJson(response.trace));
  json.Set("meta", MetaJson(response.meta));
  return json.Dump();
}

std::string RenderAnnotateResponse(const AnnotateResponse& response,
                                   const CatalogView* catalog) {
  if (!response.status.ok()) return RenderErrorResponse(response.status);
  const TableAnnotation& annotation = response.annotation;
  Json json = Json::Object();
  json.Set("ok", Json::Bool(true));

  // Checked accessors: annotation ids normally come from the same
  // generation the names are rendered with, but a hostile or stale id
  // must degrade to null, never CHECK-abort the render path.
  auto type_name = [&](TypeId t) {
    if (t == kNa || catalog == nullptr) return Json::Null();
    Result<std::string_view> name = catalog->CheckedTypeName(t);
    return name.ok() ? Json::String(*name) : Json::Null();
  };
  auto entity_name = [&](EntityId e) {
    if (e == kNa || catalog == nullptr) return Json::Null();
    Result<std::string_view> name = catalog->CheckedEntityName(e);
    return name.ok() ? Json::String(*name) : Json::Null();
  };

  Json column_types = Json::Array();
  for (TypeId t : annotation.column_types) {
    column_types.Append(type_name(t));
  }
  json.Set("column_types", std::move(column_types));

  Json cells = Json::Array();
  for (const auto& row : annotation.cell_entities) {
    Json out_row = Json::Array();
    for (EntityId e : row) out_row.Append(entity_name(e));
    cells.Append(std::move(out_row));
  }
  json.Set("cell_entities", std::move(cells));

  Json relations = Json::Array();
  for (const auto& [pair, candidate] : annotation.relations) {
    if (candidate.is_na()) continue;
    Json rel = Json::Object();
    rel.Set("c1", Json::Number(pair.first));
    rel.Set("c2", Json::Number(pair.second));
    Json rel_name = Json::Null();
    if (catalog != nullptr) {
      Result<std::string_view> name =
          catalog->CheckedRelationName(candidate.relation);
      if (name.ok()) rel_name = Json::String(*name);
    }
    rel.Set("relation", std::move(rel_name));
    rel.Set("swapped", Json::Bool(candidate.swapped));
    relations.Append(std::move(rel));
  }
  json.Set("relations", std::move(relations));
  if (response.has_explain) {
    json.Set("explain", AnnotateExplainJson(response.explain, catalog));
  }
  if (response.has_trace) json.Set("trace", TraceJson(response.trace));
  json.Set("meta", MetaJson(response.meta));
  return json.Dump();
}

std::string RenderErrorResponse(const Status& status) {
  Json json = Json::Object();
  json.Set("ok", Json::Bool(false));
  json.Set("code", Json::String(StatusCodeName(status.code())));
  json.Set("error", Json::String(status.message()));
  return json.Dump();
}

std::string RenderSwapResponse(uint64_t version) {
  Json json = Json::Object();
  json.Set("ok", Json::Bool(true));
  json.Set("version", Json::Number(static_cast<double>(version)));
  return json.Dump();
}

std::string RenderStatsResponse(const ServiceStats& stats,
                                uint64_t snapshot_version,
                                const std::string& snapshot_path) {
  Json json = Json::Object();
  json.Set("ok", Json::Bool(true));
  json.Set("snapshot_version",
           Json::Number(static_cast<double>(snapshot_version)));
  json.Set("snapshot_path", Json::String(snapshot_path));
  json.Set("accepted", Json::Number(static_cast<double>(stats.accepted)));
  json.Set("rejected_overload",
           Json::Number(static_cast<double>(stats.rejected_overload)));
  json.Set("expired", Json::Number(static_cast<double>(stats.expired)));
  json.Set("completed", Json::Number(static_cast<double>(stats.completed)));
  json.Set("annotate_requests",
           Json::Number(static_cast<double>(stats.annotate_requests)));
  json.Set("search_requests",
           Json::Number(static_cast<double>(stats.search_requests)));
  json.Set("swaps", Json::Number(static_cast<double>(stats.swaps)));
  Json cache = Json::Object();
  cache.Set("hits", Json::Number(static_cast<double>(stats.cache.hits)));
  cache.Set("misses",
            Json::Number(static_cast<double>(stats.cache.misses)));
  cache.Set("evictions",
            Json::Number(static_cast<double>(stats.cache.evictions)));
  cache.Set("entries",
            Json::Number(static_cast<double>(stats.cache.entries)));
  json.Set("cache", std::move(cache));
  const obs::ProcessStats process = obs::ReadProcessStats();
  Json proc = Json::Object();
  proc.Set("rss_bytes",
           Json::Number(static_cast<double>(process.rss_bytes)));
  proc.Set("uptime_s", Json::Number(process.uptime_s));
  proc.Set("open_fds",
           Json::Number(static_cast<double>(process.open_fds)));
  proc.Set("generation",
           Json::Number(static_cast<double>(snapshot_version)));
  json.Set("process", std::move(proc));
  json.Set("metrics", MetricsJson());
  return json.Dump();
}

std::string RenderMetricsResponse() {
  Json json = Json::Object();
  json.Set("ok", Json::Bool(true));
  json.Set("content_type", Json::String("text/plain; version=0.0.4"));
  json.Set("metrics",
           Json::String(obs::MetricsRegistry::Get().RenderPrometheus()));
  return json.Dump();
}

std::string RenderTimeseriesResponse(const obs::TimeSeriesStore& store,
                                     double window_s) {
  Json json = Json::Object();
  json.Set("ok", Json::Bool(true));
  json.Set("tick_s", Json::Number(store.options().tick_seconds));
  json.Set("retention_s",
           Json::Number(store.options().tick_seconds *
                        store.options().capacity));
  json.Set("ticks", Json::Number(static_cast<double>(store.ticks())));
  json.Set("series_count",
           Json::Number(static_cast<double>(store.series_count())));
  json.Set("dropped_updates",
           Json::Number(static_cast<double>(store.dropped_updates())));
  json.Set("memory_bytes",
           Json::Number(static_cast<double>(store.MemoryBytes())));
  json.Set("window_s", Json::Number(window_s));
  Json series = Json::Array();
  for (const obs::SeriesRollup& rollup : store.Query(window_s)) {
    Json item = Json::Object();
    item.Set("name", Json::String(rollup.name));
    item.Set("samples", Json::Number(rollup.samples));
    item.Set("covered_s", Json::Number(rollup.window_s));
    switch (rollup.kind) {
      case obs::MetricDump::Kind::kCounter:
        item.Set("kind", Json::String("counter"));
        item.Set("delta",
                 Json::Number(static_cast<double>(rollup.delta)));
        item.Set("rate_per_s", Json::Number(rollup.rate_per_s));
        item.Set("last",
                 Json::Number(static_cast<double>(rollup.last)));
        break;
      case obs::MetricDump::Kind::kGauge:
        item.Set("kind", Json::String("gauge"));
        item.Set("last",
                 Json::Number(static_cast<double>(rollup.last)));
        item.Set("min", Json::Number(static_cast<double>(rollup.min)));
        item.Set("max", Json::Number(static_cast<double>(rollup.max)));
        item.Set("avg", Json::Number(rollup.avg));
        break;
      case obs::MetricDump::Kind::kHistogram: {
        item.Set("kind", Json::String("histogram"));
        item.Set("count", Json::Number(
                              static_cast<double>(rollup.hist.count)));
        item.Set("sum", Json::Number(rollup.hist.sum));
        item.Set("mean", Json::Number(rollup.hist.Mean()));
        item.Set("p50", Json::Number(rollup.hist.Percentile(0.50)));
        item.Set("p95", Json::Number(rollup.hist.Percentile(0.95)));
        item.Set("p99", Json::Number(rollup.hist.Percentile(0.99)));
        break;
      }
    }
    series.Append(std::move(item));
  }
  json.Set("series", std::move(series));
  return json.Dump();
}

std::string RenderDebugResponse(const obs::ExemplarBuffer& exemplars,
                                double threshold_ms) {
  Json json = Json::Object();
  json.Set("ok", Json::Bool(true));
  json.Set("slow_request_threshold_ms", Json::Number(threshold_ms));
  json.Set("capacity", Json::Number(exemplars.capacity()));
  json.Set("total_recorded",
           Json::Number(static_cast<double>(exemplars.total_recorded())));
  Json items = Json::Array();
  for (const obs::RequestExemplar& ex : exemplars.Snapshot()) {
    Json item = Json::Object();
    item.Set("request_id",
             Json::Number(static_cast<double>(ex.request_id)));
    item.Set("kind", Json::String(ex.kind));
    item.Set("detail", Json::String(ex.detail));
    item.Set("version",
             Json::Number(static_cast<double>(ex.snapshot_version)));
    item.Set("queue_ms", Json::Number(ex.queue_ms));
    item.Set("work_ms", Json::Number(ex.work_ms));
    item.Set("age_s", Json::Number(ex.age_s));
    item.Set("trace", TraceJson(ex.trace));
    items.Append(std::move(item));
  }
  json.Set("exemplars", std::move(items));
  return json.Dump();
}

}  // namespace serve
}  // namespace webtab
