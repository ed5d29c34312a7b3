#ifndef WEBTAB_SERVE_SERVICE_H_
#define WEBTAB_SERVE_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "annotate/annotator.h"
#include "common/bounded_queue.h"
#include "common/deadline.h"
#include "common/status.h"
#include "common/timer.h"
#include "obs/exemplar.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "search/join_search.h"
#include "search/query.h"
#include "serve/result_cache.h"
#include "serve/snapshot_manager.h"

namespace webtab {
namespace serve {

/// Which ranking engine answers a select query (Figure 9's systems, plus
/// the join extension).
enum class EngineKind { kBaseline, kType, kTypeRelation, kJoin };

std::string_view EngineKindName(EngineKind kind);
/// Parses "baseline" / "type" / "type_relation" / "join".
Result<EngineKind> ParseEngineKind(std::string_view name);

struct ServiceOptions {
  /// Worker threads executing requests. Each worker owns the small
  /// mutable state (annotator, vocabulary copy, seeded closure cache);
  /// the snapshot itself is shared read-only.
  int num_workers = 2;
  /// Bounded request queue; a full queue rejects immediately
  /// (kUnavailable) instead of queueing unboundedly under overload.
  int queue_capacity = 64;
  /// Applied when a request carries no deadline; 0 means none. Expired
  /// requests are shed at dequeue (kDeadlineExceeded) without running.
  int64_t default_deadline_ms = 0;
  /// Result cache entries (0 disables) and shard count.
  int result_cache_capacity = 1024;
  int result_cache_shards = 8;
  /// Requests whose queue + work time reaches this many milliseconds
  /// are logged at Warning with their per-stage trace breakdown
  /// (request kind, id, generation, stage timings) and retained in the
  /// slow-request exemplar buffer ({"op":"debug"}). 0 disables both.
  double slow_request_ms = 0.0;
  /// Telemetry collector cadence: every tick the service publishes
  /// process gauges and rolls a MetricsRegistry dump into the
  /// TimeSeriesStore ({"op":"timeseries"}, --dashboard). 0 disables
  /// the collector thread (tests then drive CollectTelemetrySample()
  /// directly).
  int64_t timeseries_tick_ms = 1000;
  /// Ring geometry for the time-series store; tick_seconds is derived
  /// from timeseries_tick_ms when the collector is enabled.
  obs::TimeSeriesOptions timeseries;
  /// Slow-request exemplars retained for {"op":"debug"}.
  int slow_exemplar_capacity = 32;
  AnnotatorOptions annotator;
};

/// Per-request execution metadata returned with every response.
struct RequestMetadata {
  /// Process-unique id assigned at submission; serve_tool tags its
  /// per-request log lines with it so a wire response and the server
  /// log correlate.
  uint64_t request_id = 0;
  uint64_t snapshot_version = 0;
  bool cache_hit = false;
  double queue_millis = 0.0;
  double work_millis = 0.0;
};

struct SearchResponse {
  Status status;
  std::vector<SearchResult> results;
  RequestMetadata meta;
  /// Pruning counters from the engine run that produced `results`.
  /// has_stats is false for cache hits (the engine did not run) and for
  /// error responses; the wire layer only renders stats when the client
  /// opted in, so cached and computed responses stay interchangeable.
  SearchWorkspace::QueryStats stats;
  bool has_stats = false;
  /// Per-stage trace breakdown, filled when the request opted in with
  /// want_trace. Cache hits carry an empty trace (no engine stages ran);
  /// the wire layer renders it only when the client asked.
  obs::TraceSummary trace;
  bool has_trace = false;
  /// EXPLAIN decision log (one entry per planned table, scan order),
  /// filled when the request opted in with want_explain. Explain
  /// requests bypass the cache lookup so the engine really runs and
  /// the log describes *this* execution.
  std::vector<SearchWorkspace::TableDecision> explain_log;
  bool explain_bounds_valid = false;
  bool has_explain = false;
};

struct AnnotateResponse {
  Status status;
  TableAnnotation annotation;
  RequestMetadata meta;
  obs::TraceSummary trace;
  bool has_trace = false;
  /// EXPLAIN payload (per-column candidates, BP convergence, decode
  /// margins), filled when the request opted in with want_explain.
  AnnotateExplain explain;
  bool has_explain = false;
};

struct ServiceStats {
  uint64_t accepted = 0;
  uint64_t rejected_overload = 0;
  uint64_t expired = 0;
  uint64_t completed = 0;
  uint64_t annotate_requests = 0;
  uint64_t search_requests = 0;
  uint64_t swaps = 0;
  ResultCache::Stats cache;
};

/// The online serving facade: answers annotate-one-table and all four
/// search query types concurrently over the SnapshotManager's current
/// generation.
///
/// Concurrency model:
///  - Producers (any thread) enqueue into a bounded queue and get a
///    future; a full queue fails fast with kUnavailable.
///  - N workers pop requests. Each request takes one Handle (shared_ptr
///    to the current ServingSnapshot) and uses only that generation, so
///    a concurrent hot-swap never tears a request and in-flight work is
///    never dropped: old requests finish on the old mapping, new
///    requests start on the new one.
///  - Search runs straight off the shared read-only CorpusView (the
///    engines are pure functions of view + query) behind a sharded LRU
///    keyed on (engine, version, normalized query).
///  - Annotation needs per-worker mutable state (vocabulary interning,
///    closure + feature caches, BP workspace); each worker lazily
///    rebuilds that state when it first sees a new generation, seeding
///    its closure cache from the snapshot's precomputed prototype so
///    first-request latency matches steady state.
///
/// Responses are byte-identical to single-threaded engine/annotator runs
/// on the same snapshot — asserted by tests/serve_concurrency_test.cc
/// and bench/serving_bench.cc.
class WebTabService {
 public:
  /// `manager` must outlive the service. Call Start() before submitting.
  WebTabService(SnapshotManager* manager, ServiceOptions options);
  ~WebTabService();

  WebTabService(const WebTabService&) = delete;
  WebTabService& operator=(const WebTabService&) = delete;

  /// Spawns the worker pool. Requests submitted before Start() sit in
  /// the queue (up to its capacity).
  void Start();

  /// Closes the queue, lets workers drain every accepted request, and
  /// joins them. Submissions after Stop() fail with kUnavailable
  /// ("service stopped" — not counted as overload). Idempotent; the
  /// destructor calls it. The service is single-use: a stopped service
  /// cannot be restarted (construct a new one against the same
  /// SnapshotManager instead).
  void Stop();

  // --- Async API (the native shape; one future per request). ---
  // `topk` flows into the engines (bounded selection + safe pruning;
  // see search/query.h); the default asks for the full ranking. The
  // result cache keys on (engine, version, normalized query, k, prune),
  // so differently-truncated rankings never alias.
  // `want_trace` opts the request into the per-stage trace breakdown
  // (SearchResponse::trace / AnnotateResponse::trace); recording costs
  // a handful of clock reads per stage and never allocates.
  // `want_explain` additionally returns the EXPLAIN payload (search:
  // per-table decision log; annotate: candidate counts + BP
  // convergence); explain requests bypass the cache lookup and pay for
  // the capture, so they are a debugging tool, not a serving default.
  std::future<SearchResponse> SubmitSearch(EngineKind engine,
                                           SelectQuery query,
                                           TopKOptions topk = TopKOptions(),
                                           Deadline deadline = Deadline(),
                                           bool want_trace = false,
                                           bool want_explain = false);
  std::future<SearchResponse> SubmitJoin(JoinQuery query,
                                         TopKOptions topk = TopKOptions(),
                                         Deadline deadline = Deadline(),
                                         bool want_trace = false,
                                         bool want_explain = false);
  std::future<AnnotateResponse> SubmitAnnotate(
      Table table, Deadline deadline = Deadline(),
      bool want_trace = false, bool want_explain = false);

  // --- Blocking wrappers for closed-loop callers. ---
  SearchResponse Search(EngineKind engine, const SelectQuery& query,
                        TopKOptions topk = TopKOptions(),
                        Deadline deadline = Deadline(),
                        bool want_trace = false,
                        bool want_explain = false);
  SearchResponse SearchJoin(const JoinQuery& query,
                            TopKOptions topk = TopKOptions(),
                            Deadline deadline = Deadline(),
                            bool want_trace = false,
                            bool want_explain = false);
  AnnotateResponse Annotate(const Table& table,
                            Deadline deadline = Deadline(),
                            bool want_trace = false,
                            bool want_explain = false);

  /// Opens `path` and atomically installs it as the serving generation.
  /// In-flight and queued requests are never dropped (old generation
  /// pins until they finish); on failure the old generation keeps
  /// serving.
  Status SwapSnapshot(const std::string& path);

  SnapshotManager* manager() { return manager_; }
  const ServiceOptions& options() const { return options_; }
  ServiceStats stats() const;

  /// One telemetry tick: publishes process gauges (RSS, uptime, open
  /// fds) and the serving generation, then rolls a full registry dump
  /// into the time-series store. The collector thread calls this every
  /// timeseries_tick_ms; tests and tools may call it directly (it is
  /// safe from any thread).
  void CollectTelemetrySample();

  /// Historical metric rollups ({"op":"timeseries"}, --dashboard).
  const obs::TimeSeriesStore& timeseries() const { return timeseries_; }
  /// Retained slow-request traces ({"op":"debug"}).
  const obs::ExemplarBuffer& exemplars() const { return exemplars_; }

 private:
  enum class RequestKind { kSearch, kJoin, kAnnotate };

  struct Request {
    RequestKind kind;
    EngineKind engine = EngineKind::kTypeRelation;
    SelectQuery select;
    JoinQuery join;
    TopKOptions topk;
    Table table;
    Deadline deadline;
    WallTimer queued;
    uint64_t id = 0;
    bool want_trace = false;
    bool want_explain = false;
    std::promise<SearchResponse> search_promise;
    std::promise<AnnotateResponse> annotate_promise;
  };

  /// Mutable per-worker state, rebuilt when the worker first touches a
  /// new snapshot generation. Holds its own shared_ptr so the views the
  /// annotator points into cannot unmap while the state exists. The
  /// annotator carries the per-worker scratch that amortizes across
  /// requests within a generation: BP workspace, column-probe candidate
  /// workspace, and the similarity scratch memoizing f1/f2 vectors —
  /// repeated cell strings across requests hit warm caches.
  struct WorkerState {
    uint64_t version = 0;
    std::shared_ptr<const ServingSnapshot> pinned;
    std::unique_ptr<Vocabulary> vocab;
    std::unique_ptr<TableAnnotator> annotator;
    /// Search kernel scratch, reused across requests and generations
    /// (its contents are epoch-stamped per query, so a hot-swap needs
    /// no reset — stale corpus string_views are never dereferenced).
    SearchWorkspace search_workspace;
    /// Per-request stage trace, Clear()ed and attached for every
    /// executed request (inline storage — attaching costs nothing when
    /// no span fires). Feeds the slow-request log unconditionally and
    /// the response when the client opted in.
    obs::RequestTrace trace;
  };

  bool Enqueue(std::unique_ptr<Request> request);
  void WorkerLoop();
  void Execute(Request* request, WorkerState* state);
  void ExecuteSearch(Request* request, WorkerState* state,
                     const SnapshotManager::Handle& handle,
                     RequestMetadata meta);
  void ExecuteAnnotate(Request* request, WorkerState* state,
                       const SnapshotManager::Handle& handle,
                       RequestMetadata meta);
  Deadline EffectiveDeadline(Deadline deadline) const;
  /// Emits the threshold-gated slow-request Warning line (request kind,
  /// id, generation, queue/work split, per-stage timings) and records
  /// the trace into the exemplar buffer.
  void MaybeLogSlow(const Request& request, const RequestMetadata& meta,
                    const obs::RequestTrace& trace);
  void CollectorLoop();

  SnapshotManager* manager_;
  ServiceOptions options_;
  BoundedQueue<std::unique_ptr<Request>> queue_;
  std::unique_ptr<ResultCache> cache_;  // null when caching disabled
  obs::TimeSeriesStore timeseries_;
  obs::ExemplarBuffer exemplars_;
  std::vector<std::thread> workers_;
  std::thread collector_;
  std::mutex collector_mu_;
  std::condition_variable collector_cv_;
  bool collector_stop_ = false;
  bool started_ = false;
  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> rejected_overload_{0};
  std::atomic<uint64_t> expired_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> annotate_requests_{0};
  std::atomic<uint64_t> search_requests_{0};
  std::atomic<uint64_t> swaps_{0};
  std::atomic<uint64_t> next_request_id_{0};
};

}  // namespace serve
}  // namespace webtab

#endif  // WEBTAB_SERVE_SERVICE_H_
