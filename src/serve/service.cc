#include "serve/service.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/process_stats.h"
#include "search/baseline_search.h"
#include "search/type_relation_search.h"
#include "search/type_search.h"

namespace webtab {
namespace serve {

std::string_view EngineKindName(EngineKind kind) {
  switch (kind) {
    case EngineKind::kBaseline:
      return "baseline";
    case EngineKind::kType:
      return "type";
    case EngineKind::kTypeRelation:
      return "type_relation";
    case EngineKind::kJoin:
      return "join";
  }
  return "unknown";
}

Result<EngineKind> ParseEngineKind(std::string_view name) {
  if (name == "baseline") return EngineKind::kBaseline;
  if (name == "type") return EngineKind::kType;
  if (name == "type_relation") return EngineKind::kTypeRelation;
  if (name == "join") return EngineKind::kJoin;
  return Status::InvalidArgument("unknown engine: " + std::string(name));
}

namespace {
/// Derives the store's tick length from the collector cadence so
/// rates/windows stay truthful whatever cadence the caller picks.
obs::TimeSeriesOptions ResolveTimeSeriesOptions(const ServiceOptions& o) {
  obs::TimeSeriesOptions ts = o.timeseries;
  if (o.timeseries_tick_ms > 0) {
    ts.tick_seconds = static_cast<double>(o.timeseries_tick_ms) / 1000.0;
  }
  return ts;
}
}  // namespace

WebTabService::WebTabService(SnapshotManager* manager,
                             ServiceOptions options)
    : manager_(manager),
      options_(options),
      queue_(static_cast<size_t>(std::max(1, options.queue_capacity))),
      timeseries_(ResolveTimeSeriesOptions(options)),
      exemplars_(options.slow_exemplar_capacity) {
  if (options_.result_cache_capacity > 0) {
    cache_ = std::make_unique<ResultCache>(options_.result_cache_shards,
                                           options_.result_cache_capacity);
  }
}

WebTabService::~WebTabService() { Stop(); }

void WebTabService::Start() {
  if (started_) return;
  started_ = true;
  const int n = std::max(1, options_.num_workers);
  workers_.reserve(n);
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  if (options_.timeseries_tick_ms > 0) {
    collector_ = std::thread([this] { CollectorLoop(); });
  }
}

void WebTabService::Stop() {
  queue_.Close();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  {
    std::lock_guard<std::mutex> lock(collector_mu_);
    collector_stop_ = true;
  }
  collector_cv_.notify_all();
  if (collector_.joinable()) collector_.join();
}

void WebTabService::CollectorLoop() {
  std::unique_lock<std::mutex> lock(collector_mu_);
  while (!collector_stop_) {
    collector_cv_.wait_for(
        lock, std::chrono::milliseconds(options_.timeseries_tick_ms),
        [this] { return collector_stop_; });
    if (collector_stop_) break;
    lock.unlock();
    CollectTelemetrySample();
    lock.lock();
  }
}

void WebTabService::CollectTelemetrySample() {
  obs::UpdateProcessGauges();
  static obs::Gauge* generation =
      obs::MetricsRegistry::Get().GetGauge("serve.snapshot_generation");
  generation->Set(
      static_cast<int64_t>(manager_->Current().version));
  timeseries_.Tick(obs::MetricsRegistry::Get().Dump());
}

Deadline WebTabService::EffectiveDeadline(Deadline deadline) const {
  if (deadline.infinite() && options_.default_deadline_ms > 0) {
    return Deadline::AfterMillis(options_.default_deadline_ms);
  }
  return deadline;
}

bool WebTabService::Enqueue(std::unique_ptr<Request> request) {
  if (queue_.TryPush(std::move(request))) {
    accepted_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  // TryPush does not consume on failure: `request` still owns the
  // promises, so the rejection travels through the future like any
  // other response (fast fail, nothing dropped silently). A closed
  // queue means the service was stopped — that is not overload and is
  // not counted as such.
  Status rejected;
  if (queue_.closed()) {
    rejected = Status::Unavailable("service stopped");
  } else {
    rejected_overload_.fetch_add(1, std::memory_order_relaxed);
    rejected = Status::Unavailable("request queue full");
  }
  if (request->kind == RequestKind::kAnnotate) {
    AnnotateResponse response;
    response.status = rejected;
    request->annotate_promise.set_value(std::move(response));
  } else {
    SearchResponse response;
    response.status = rejected;
    request->search_promise.set_value(std::move(response));
  }
  return false;
}

std::future<SearchResponse> WebTabService::SubmitSearch(EngineKind engine,
                                                        SelectQuery query,
                                                        TopKOptions topk,
                                                        Deadline deadline,
                                                        bool want_trace,
                                                        bool want_explain) {
  if (engine == EngineKind::kJoin) {
    // Join queries carry a different payload; route through SubmitJoin.
    std::promise<SearchResponse> mistyped;
    SearchResponse response;
    response.status =
        Status::InvalidArgument("join queries go through SubmitJoin");
    mistyped.set_value(std::move(response));
    return mistyped.get_future();
  }
  auto request = std::make_unique<Request>();
  request->kind = RequestKind::kSearch;
  request->engine = engine;
  request->select = std::move(query);
  request->topk = topk;
  request->deadline = EffectiveDeadline(deadline);
  request->want_trace = want_trace;
  request->want_explain = want_explain;
  request->id = next_request_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  std::future<SearchResponse> future = request->search_promise.get_future();
  search_requests_.fetch_add(1, std::memory_order_relaxed);
  Enqueue(std::move(request));
  return future;
}

std::future<SearchResponse> WebTabService::SubmitJoin(JoinQuery query,
                                                      TopKOptions topk,
                                                      Deadline deadline,
                                                      bool want_trace,
                                                      bool want_explain) {
  auto request = std::make_unique<Request>();
  request->kind = RequestKind::kJoin;
  request->engine = EngineKind::kJoin;
  request->join = std::move(query);
  request->topk = topk;
  request->deadline = EffectiveDeadline(deadline);
  request->want_trace = want_trace;
  request->want_explain = want_explain;
  request->id = next_request_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  std::future<SearchResponse> future = request->search_promise.get_future();
  search_requests_.fetch_add(1, std::memory_order_relaxed);
  Enqueue(std::move(request));
  return future;
}

std::future<AnnotateResponse> WebTabService::SubmitAnnotate(
    Table table, Deadline deadline, bool want_trace, bool want_explain) {
  auto request = std::make_unique<Request>();
  request->kind = RequestKind::kAnnotate;
  request->table = std::move(table);
  request->deadline = EffectiveDeadline(deadline);
  request->want_trace = want_trace;
  request->want_explain = want_explain;
  request->id = next_request_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  std::future<AnnotateResponse> future =
      request->annotate_promise.get_future();
  annotate_requests_.fetch_add(1, std::memory_order_relaxed);
  Enqueue(std::move(request));
  return future;
}

SearchResponse WebTabService::Search(EngineKind engine,
                                     const SelectQuery& query,
                                     TopKOptions topk, Deadline deadline,
                                     bool want_trace, bool want_explain) {
  return SubmitSearch(engine, query, topk, deadline, want_trace,
                      want_explain)
      .get();
}

SearchResponse WebTabService::SearchJoin(const JoinQuery& query,
                                         TopKOptions topk,
                                         Deadline deadline,
                                         bool want_trace,
                                         bool want_explain) {
  return SubmitJoin(query, topk, deadline, want_trace, want_explain).get();
}

AnnotateResponse WebTabService::Annotate(const Table& table,
                                         Deadline deadline,
                                         bool want_trace,
                                         bool want_explain) {
  return SubmitAnnotate(table, deadline, want_trace, want_explain).get();
}

Status WebTabService::SwapSnapshot(const std::string& path) {
  Result<uint64_t> version = manager_->Load(path);
  if (!version.ok()) return version.status();
  swaps_.fetch_add(1, std::memory_order_relaxed);
  static obs::Counter* swap_counter =
      obs::MetricsRegistry::Get().GetCounter("serve.swaps");
  swap_counter->Add(1);
  return Status::Ok();
}

ServiceStats WebTabService::stats() const {
  ServiceStats stats;
  stats.accepted = accepted_.load(std::memory_order_relaxed);
  stats.rejected_overload =
      rejected_overload_.load(std::memory_order_relaxed);
  stats.expired = expired_.load(std::memory_order_relaxed);
  stats.completed = completed_.load(std::memory_order_relaxed);
  stats.annotate_requests =
      annotate_requests_.load(std::memory_order_relaxed);
  stats.search_requests = search_requests_.load(std::memory_order_relaxed);
  stats.swaps = swaps_.load(std::memory_order_relaxed);
  if (cache_ != nullptr) stats.cache = cache_->GetStats();
  return stats;
}

void WebTabService::WorkerLoop() {
  WorkerState state;
  while (auto item = queue_.Pop()) {
    Execute(item->get(), &state);
    completed_.fetch_add(1, std::memory_order_relaxed);
  }
}

namespace {

/// Fails the request through the right promise.
void Respond(Status status, RequestMetadata meta, bool is_annotate,
             std::promise<SearchResponse>* search_promise,
             std::promise<AnnotateResponse>* annotate_promise) {
  if (is_annotate) {
    AnnotateResponse response;
    response.status = std::move(status);
    response.meta = meta;
    annotate_promise->set_value(std::move(response));
  } else {
    SearchResponse response;
    response.status = std::move(status);
    response.meta = meta;
    search_promise->set_value(std::move(response));
  }
}

/// Per-engine serving latency histogram, resolved once per process.
obs::Histogram* EngineLatencyHistogram(EngineKind engine) {
  static obs::Histogram* histograms[4] = {
      obs::MetricsRegistry::Get().GetHistogram("serve.search.baseline_ms"),
      obs::MetricsRegistry::Get().GetHistogram("serve.search.type_ms"),
      obs::MetricsRegistry::Get().GetHistogram(
          "serve.search.type_relation_ms"),
      obs::MetricsRegistry::Get().GetHistogram("serve.search.join_ms"),
  };
  return histograms[static_cast<int>(engine)];
}

const char* RequestKindName(bool is_annotate, bool is_join) {
  return is_annotate ? "annotate" : is_join ? "join" : "search";
}

}  // namespace

void WebTabService::MaybeLogSlow(const Request& request,
                                 const RequestMetadata& meta,
                                 const obs::RequestTrace& trace) {
  if (options_.slow_request_ms <= 0.0) return;
  const double total = meta.queue_millis + meta.work_millis;
  if (total < options_.slow_request_ms) return;
  static obs::Counter* slow =
      obs::MetricsRegistry::Get().GetCounter("serve.slow_requests");
  slow->Add(1);
  const bool is_annotate = request.kind == RequestKind::kAnnotate;
  const bool is_join = request.kind == RequestKind::kJoin;

  // Retain the full trace for {"op":"debug"} — the log line below is
  // transient, the exemplar buffer is what makes a slow p99 event
  // inspectable minutes later. Allocation is fine here: this is the
  // already-slow path.
  {
    obs::RequestExemplar exemplar;
    exemplar.request_id = meta.request_id;
    exemplar.kind = RequestKindName(is_annotate, is_join);
    if (!is_annotate) {
      exemplar.kind += ":";
      exemplar.kind += EngineKindName(request.engine);
    }
    if (is_annotate) {
      exemplar.detail = std::to_string(request.table.rows()) + "x" +
                        std::to_string(request.table.cols()) + " table";
    } else if (is_join) {
      exemplar.detail = request.join.e3_text;
    } else {
      exemplar.detail = request.select.e2_text;
    }
    exemplar.snapshot_version = meta.snapshot_version;
    exemplar.queue_ms = meta.queue_millis;
    exemplar.work_ms = meta.work_millis;
    exemplar.trace = obs::TraceSummary::From(trace, meta.work_millis);
    exemplars_.Record(std::move(exemplar));
  }
  char buf[64];
  std::string line;
  line.reserve(256);
  line += "slow request id=";
  std::snprintf(buf, sizeof(buf), "%llu",
                static_cast<unsigned long long>(meta.request_id));
  line += buf;
  line += " kind=";
  line += RequestKindName(is_annotate, is_join);
  if (!is_annotate) {
    line += " engine=";
    line += EngineKindName(request.engine);
  }
  std::snprintf(buf, sizeof(buf),
                " gen=%llu queue_ms=%.3f work_ms=%.3f",
                static_cast<unsigned long long>(meta.snapshot_version),
                meta.queue_millis, meta.work_millis);
  line += buf;
  for (int i = 0; i < trace.num_stages(); ++i) {
    const obs::RequestTrace::Stage& stage = trace.stage(i);
    std::snprintf(buf, sizeof(buf), " %s=%.3f", stage.name, stage.ms);
    line += buf;
  }
  WEBTAB_LOG(Warning) << line;
}

void WebTabService::Execute(Request* request, WorkerState* state) {
  RequestMetadata meta;
  meta.request_id = request->id;
  meta.queue_millis = request->queued.ElapsedMillis();
  static obs::Histogram* queue_wait =
      obs::MetricsRegistry::Get().GetHistogram("serve.queue_wait_ms");
  queue_wait->Record(meta.queue_millis);
  const bool is_annotate = request->kind == RequestKind::kAnnotate;

  // Shed work whose deadline passed while queued; the client has already
  // timed out, so running it would only delay live requests.
  if (request->deadline.expired()) {
    expired_.fetch_add(1, std::memory_order_relaxed);
    static obs::Counter* expired =
        obs::MetricsRegistry::Get().GetCounter("serve.expired");
    expired->Add(1);
    Respond(Status::DeadlineExceeded("deadline expired in queue"), meta,
            is_annotate, &request->search_promise,
            &request->annotate_promise);
    return;
  }

  // One Handle per request: everything below reads exactly this
  // generation, regardless of concurrent swaps.
  SnapshotManager::Handle handle = manager_->Current();
  if (handle.snapshot == nullptr) {
    Respond(Status::FailedPrecondition("no snapshot loaded"), meta,
            is_annotate, &request->search_promise,
            &request->annotate_promise);
    return;
  }
  meta.snapshot_version = handle.version;

  if (is_annotate) {
    ExecuteAnnotate(request, state, handle, meta);
  } else {
    ExecuteSearch(request, state, handle, meta);
  }
}

void WebTabService::ExecuteSearch(Request* request, WorkerState* state,
                                  const SnapshotManager::Handle& handle,
                                  RequestMetadata meta) {
  SearchResponse response;

  const CorpusView* corpus = handle.snapshot->corpus();
  if (corpus == nullptr) {
    response.status = Status::FailedPrecondition(
        "snapshot has no corpus section; search unavailable");
    response.meta = meta;
    request->search_promise.set_value(std::move(response));
    return;
  }

  // Reject out-of-range catalog ids up front (kInvalidArgument echoed
  // to the client) instead of letting per-accessor CHECKs trip deeper
  // in the stack on garbage ids.
  const bool is_join = request->kind == RequestKind::kJoin;
  const CatalogView& catalog = handle.snapshot->catalog();
  Status valid = is_join ? ValidateJoinQuery(request->join, catalog)
                         : ValidateSelectQuery(request->select, catalog);
  if (!valid.ok()) {
    response.status = std::move(valid);
    response.meta = meta;
    request->search_promise.set_value(std::move(response));
    return;
  }

  // One normalization per request, shared by the cache key and the
  // engine (the point of the shared helper in search/query.cc).
  NormalizedSelectQuery normalized;
  if (!is_join) normalized = NormalizeSelectQuery(request->select);

  // Cache key: engine + generation + canonical normalized query + the
  // top-k contract. The version prefix makes hot-swaps
  // self-invalidating; k and prune are part of the key because a
  // pruned top-k ranking is a different payload (shorter, lower-bound
  // scores) than the full ranking.
  std::string key;
  if (cache_ != nullptr) {
    key = std::string(EngineKindName(request->engine)) + "|v" +
          std::to_string(handle.version) + "|k" +
          std::to_string(request->topk.k) +
          (request->topk.prune ? "" : "|noprune") + "|" +
          (is_join ? JoinQueryCacheKey(request->join)
                   : SelectQueryCacheKey(request->select, normalized));
    // EXPLAIN requests bypass the lookup (never the Put): a cached
    // answer has no decision log, and the point of explain is to watch
    // this execution. The computed result still lands in the cache for
    // the next plain request.
    if (!request->want_explain) {
      if (ResultCache::Value hit = cache_->Get(key)) {
        meta.cache_hit = true;
        static obs::Counter* hits =
            obs::MetricsRegistry::Get().GetCounter("serve.cache_hits");
        hits->Add(1);
        response.results = *hit;
        response.meta = meta;
        if (request->want_trace) {
          // The engine never ran, so the trace is honest about it: no
          // stages, zero traced time — a cached answer is
          // indistinguishable from a computed one except through
          // meta.cache_hit.
          response.trace = obs::TraceSummary{};
          response.has_trace = true;
        }
        request->search_promise.set_value(std::move(response));
        return;
      }
    }
    static obs::Counter* misses =
        obs::MetricsRegistry::Get().GetCounter("serve.cache_misses");
    misses->Add(1);
  }

  WallTimer work;
  std::vector<SearchResult> results;
  SearchWorkspace* ws = &state->search_workspace;
  ws->EnableExplain(request->want_explain);
  state->trace.Clear();
  {
    // Attached for every executed request (not just traced ones): the
    // slow-request log needs stage timings for exactly the requests
    // nobody thought to trace in advance.
    obs::ScopedTraceAttach attach(&state->trace);
    switch (request->engine) {
      case EngineKind::kBaseline:
        BaselineSearch(*corpus, request->select, normalized, request->topk,
                       ws, &results);
        break;
      case EngineKind::kType:
        TypeSearch(*corpus, request->select, normalized, request->topk, ws,
                   &results);
        break;
      case EngineKind::kTypeRelation:
        TypeRelationSearch(*corpus, request->select, normalized,
                           request->topk, ws, &results);
        break;
      case EngineKind::kJoin:
        JoinSearch(*corpus, request->join, request->topk, ws, &results);
        break;
    }
  }
  meta.work_millis = work.ElapsedMillis();
  EngineLatencyHistogram(request->engine)->Record(meta.work_millis);
  response.stats = ws->stats();
  response.has_stats = true;
  if (request->want_explain) {
    // The decision log is the counters' ledger: one entry per planned
    // table, scored entries matching tables_scored. A divergence means
    // the kernel's accounting drifted — surfaced loudly rather than
    // silently shipping a log that contradicts the stats.
    int64_t scored_entries = 0;
    for (const auto& d : ws->decision_log) {
      if (d.verdict == SearchWorkspace::TableDecision::Verdict::kScored) {
        ++scored_entries;
      }
    }
    if (static_cast<int64_t>(ws->decision_log.size()) !=
            response.stats.tables_planned ||
        scored_entries != response.stats.tables_scored) {
      WEBTAB_LOG(Warning)
          << "explain decision log inconsistent with query stats: "
          << ws->decision_log.size() << " entries / " << scored_entries
          << " scored vs planned=" << response.stats.tables_planned
          << " scored=" << response.stats.tables_scored;
    }
    response.explain_log = ws->decision_log;
    response.explain_bounds_valid = ws->decision_bounds_valid;
    response.has_explain = true;
  }
  if (request->want_trace) {
    response.trace = obs::TraceSummary::From(state->trace, meta.work_millis);
    response.has_trace = true;
  }
  MaybeLogSlow(*request, meta, state->trace);

  if (cache_ != nullptr) {
    auto shared = std::make_shared<const std::vector<SearchResult>>(results);
    cache_->Put(key, shared);
  }
  response.results = std::move(results);
  response.meta = meta;
  request->search_promise.set_value(std::move(response));
}

namespace {

/// Annotation outputs re-enter the serving path as raw catalog ids (the
/// protocol renders their names; clients may echo them back). Validate
/// them against the generation they will be rendered with: an id minted
/// by a different snapshot generation — or corrupted anywhere along the
/// way — surfaces as kInvalidArgument on the response instead of a
/// CHECK-abort inside a worker thread.
Status ValidateAnnotationIds(const CatalogView& catalog,
                             const TableAnnotation& annotation) {
  for (TypeId t : annotation.column_types) {
    if (t == kNa) continue;
    WEBTAB_RETURN_IF_ERROR(catalog.CheckedTypeName(t).status());
  }
  for (const auto& row : annotation.cell_entities) {
    for (EntityId e : row) {
      if (e == kNa) continue;
      WEBTAB_RETURN_IF_ERROR(catalog.CheckedEntityName(e).status());
    }
  }
  for (const auto& [pair, candidate] : annotation.relations) {
    if (candidate.is_na()) continue;
    WEBTAB_RETURN_IF_ERROR(
        catalog.CheckedRelationName(candidate.relation).status());
  }
  return Status::Ok();
}

}  // namespace

void WebTabService::ExecuteAnnotate(Request* request, WorkerState* state,
                                    const SnapshotManager::Handle& handle,
                                    RequestMetadata meta) {
  AnnotateResponse response;

  const LemmaIndexView* lemma_index = handle.snapshot->lemma_index();
  if (lemma_index == nullptr) {
    response.status = Status::FailedPrecondition(
        "snapshot has no lemma index section; annotation unavailable");
    response.meta = meta;
    request->annotate_promise.set_value(std::move(response));
    return;
  }

  // First contact with a new generation: rebuild the worker's private
  // mutable state against it. The pin keeps the old generation's views
  // alive exactly as long as something points into them.
  if (state->annotator == nullptr || state->version != handle.version) {
    state->vocab =
        std::make_unique<Vocabulary>(lemma_index->CopyVocabulary());
    state->annotator = std::make_unique<TableAnnotator>(
        &handle.snapshot->catalog(), lemma_index, options_.annotator,
        state->vocab.get());
    state->annotator->closure()->SeedFrom(
        handle.snapshot->closure_prototype());
    state->pinned = handle.snapshot;
    state->version = handle.version;
  }

  WallTimer work;
  state->trace.Clear();
  {
    obs::ScopedTraceAttach attach(&state->trace);
    if (request->want_explain) {
      response.annotation = state->annotator->Annotate(
          request->table, /*timing=*/nullptr, &response.explain);
      response.has_explain = true;
    } else {
      response.annotation = state->annotator->Annotate(request->table);
    }
  }
  meta.work_millis = work.ElapsedMillis();
  Status ids_ok =
      ValidateAnnotationIds(handle.snapshot->catalog(), response.annotation);
  if (!ids_ok.ok()) response.status = std::move(ids_ok);
  static obs::Histogram* annotate_ms =
      obs::MetricsRegistry::Get().GetHistogram("serve.annotate_ms");
  annotate_ms->Record(meta.work_millis);
  if (request->want_trace) {
    response.trace = obs::TraceSummary::From(state->trace, meta.work_millis);
    response.has_trace = true;
  }
  MaybeLogSlow(*request, meta, state->trace);
  response.meta = meta;
  request->annotate_promise.set_value(std::move(response));
}

}  // namespace serve
}  // namespace webtab
