#ifndef WEBTAB_SERVE_PROTOCOL_H_
#define WEBTAB_SERVE_PROTOCOL_H_

#include <string>
#include <string_view>
#include <vector>

#include "catalog/catalog_view.h"
#include "serve/service.h"
#include "table/table.h"

namespace webtab {
namespace serve {

/// The JSON-lines wire format spoken by serve_tool over stdin or TCP:
/// one request object per line in, one response object per line out.
/// Requests name catalog objects by string; ids are resolved against the
/// snapshot generation that answers the request (names are stable across
/// snapshots, ids need not be). See src/serve/README.md for the full
/// protocol reference.
///
///   {"op":"search","engine":"type_relation","relation":"directed",
///    "type1":"movie","type2":"director","e2":"george clooney","k":5}
///   {"op":"annotate","table":{"headers":["Title","written by"],
///    "rows":[["...","..."]],"context":"..."}}
///   {"op":"swap","path":"/data/new.snap"}
///   {"op":"timeseries","window_s":60}   {"op":"debug"}
///   {"op":"stats"}   {"op":"metrics"}   {"op":"quit"}

struct WireSelect {
  std::string relation, type1, type2, e2;
};

struct WireJoin {
  std::string r1, r2, e3;
  bool e1_is_subject = true;
  bool e2_is_subject = true;
  int max_join_entities = 20;
};

struct WireTable {
  std::vector<std::string> headers;
  std::vector<std::vector<std::string>> rows;
  std::string context;
  int64_t id = -1;
};

struct WireRequest {
  enum class Op {
    kAnnotate, kSearch, kJoin, kSwap, kStats, kMetrics,
    kTimeseries, kDebug, kQuit
  };
  Op op = Op::kStats;
  EngineKind engine = EngineKind::kTypeRelation;
  WireSelect select;
  WireJoin join;
  WireTable table;
  std::string path;        // swap
  /// <= 0 (wire "k" absent): engines compute the exact full ranking
  /// and only the rendered list is truncated (to 10). > 0: flows into
  /// the engines as TopKOptions{k, prune=true} — bounded selection
  /// with safe pruning; scores are then lower bounds and
  /// total_results <= k.
  int top_k = 0;
  int64_t deadline_ms = 0; // 0 = service default
  /// Wire "stats": true — opt-in on search/join requests. The response
  /// then carries a "stats" object with the engine's pruning counters
  /// (tables_planned / tables_scored / stopped_early) when the engine
  /// actually ran; cache hits answer without one.
  bool want_stats = false;
  /// Wire "trace": true — opt-in on search/join/annotate requests. The
  /// response then carries a "trace" object with the per-stage wall
  /// time breakdown; cache hits answer with an empty stage list.
  bool want_trace = false;
  /// Wire "explain": true — opt-in on search/join/annotate requests.
  /// Search/join responses gain an "explain" object with the per-table
  /// decision log (scored / pruned and the bounds that justified it);
  /// annotate responses gain per-column candidate counts and the BP
  /// convergence curve. Explained requests bypass the result cache
  /// lookup so the decision log always reflects a real engine run.
  bool want_explain = false;
  /// Wire "window_s" on {"op":"timeseries"}: rollup window in seconds,
  /// finite and > 0 (clamped to the store's retention). Default 60.
  double window_s = 60.0;
};

/// Parses one request line. Unknown fields are ignored; a missing or
/// unknown "op" is an error.
Result<WireRequest> ParseWireRequest(std::string_view line);

/// Resolves wire strings against a catalog: names that match become ids,
/// everything stays available in string form for the text-fallback paths
/// (exactly what the §5 engines expect).
SelectQuery ResolveSelectQuery(const WireSelect& wire,
                               const CatalogView& catalog);
JoinQuery ResolveJoinQuery(const WireJoin& wire, const CatalogView& catalog);

/// Post-resolution validation: kInvalidArgument naming the offending
/// field when a name the chosen engine relies on did not resolve —
/// the type engine needs type1/type2, the type_relation engine needs
/// relation (it reads nothing else), joins need r1/r2. The baseline
/// treats all inputs as strings so nothing is required, and e2/e3
/// always keep their free-text fallback (the paper's "E2 not in the
/// catalog" case). This is how a typo'd name surfaces as a JSON error
/// instead of a silently empty ranking.
Status ValidateResolvedSelect(EngineKind engine, const WireSelect& wire,
                              const SelectQuery& query);
Status ValidateResolvedJoin(const WireJoin& wire, const JoinQuery& query);

/// Builds a Table from the wire form; rows must be rectangular.
Result<Table> WireToTable(const WireTable& wire);

// --- Response rendering (one JSON line, no trailing newline). ---
/// `want_stats` echoes the request's "stats" flag: when set and the
/// response carries engine stats, a "stats" object is emitted. Traces
/// render whenever the response carries one (the service only fills it
/// for opted-in requests).
std::string RenderSearchResponse(const SearchResponse& response,
                                 const CatalogView* catalog, int top_k,
                                 bool want_stats = false);
std::string RenderAnnotateResponse(const AnnotateResponse& response,
                                   const CatalogView* catalog);
std::string RenderErrorResponse(const Status& status);
std::string RenderSwapResponse(uint64_t version);
/// Service counters plus the full process metrics registry: every
/// counter/gauge value and every histogram with count, sum, mean,
/// p50/p95/p99 and its non-empty buckets (upper bound + count).
std::string RenderStatsResponse(const ServiceStats& stats,
                                uint64_t snapshot_version,
                                const std::string& snapshot_path);
/// {"ok":true,"metrics":"<Prometheus text exposition>"} — the payload
/// is the same text `serve_tool --metrics-dump` prints at exit.
std::string RenderMetricsResponse();
/// {"op":"timeseries"} response: the store's rollups over the trailing
/// `window_s` seconds — counters as delta + rate_per_s, gauges as
/// last/min/max/avg, histograms as count/sum/p50/p95/p99 reconstructed
/// from the window's bucket deltas. Also reports the store's tick,
/// retention, series count and fixed memory footprint.
std::string RenderTimeseriesResponse(const obs::TimeSeriesStore& store,
                                     double window_s);
/// {"op":"debug"} response: the retained slow-request exemplars,
/// newest first — request id, kind, queue/work split and the full
/// stage trace of each over-threshold request.
std::string RenderDebugResponse(const obs::ExemplarBuffer& exemplars,
                                double threshold_ms);

}  // namespace serve
}  // namespace webtab

#endif  // WEBTAB_SERVE_PROTOCOL_H_
