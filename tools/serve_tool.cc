// serve_tool: the online serving entry point. Loads a snapshot (hardened
// OpenValidated by default — a hostile file is a refused swap, not a
// dead server) and answers the JSON-lines protocol over stdin or TCP.
//
//   serve_tool --snapshot world.snap                     # stdin/stdout
//   serve_tool --snapshot world.snap --port 7870         # TCP, line per
//                                                        # request
//   serve_tool --synth-tables 50 --snapshot /tmp/w.snap  # build demo
//                                                        # snapshot first
//
// Protocol (one JSON object per line; see src/serve/README.md):
//   {"op":"search","engine":"type_relation","relation":"directed",
//    "type1":"movie","type2":"director","e2":"<name>","k":5}
//   {"op":"join","r1":"acted_in","r2":"directed","e3":"<name>", ...}
//   {"op":"annotate","table":{"headers":[...],"rows":[[...]],...}}
//   {"op":"swap","path":"new.snap"}    {"op":"stats"}    {"op":"quit"}
//   {"op":"timeseries","window_s":60}  {"op":"debug"}    {"op":"metrics"}
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "annotate/corpus_annotator.h"
#include "common/flags.h"
#include "common/logging.h"
#include "obs/metrics.h"
#include "search/corpus_index.h"
#include "serve/protocol.h"
#include "serve/service.h"
#include "storage/snapshot_writer.h"
#include "synth/corpus_generator.h"
#include "synth/world_generator.h"

namespace webtab {
namespace {

using serve::ServiceOptions;
using serve::SnapshotManager;
using serve::WebTabService;
using serve::WireRequest;

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

/// Builds a demo snapshot (synthetic world + annotated corpus) so the
/// tool is drivable end-to-end without any external data.
Status BuildDemoSnapshot(int num_tables, uint64_t seed,
                         const std::string& path) {
  World world = GenerateWorld(WorldSpec{.seed = seed});
  LemmaIndex index(&world.catalog);
  CorpusSpec spec;
  spec.seed = seed + 1;
  spec.num_tables = num_tables;
  std::vector<Table> tables;
  for (const LabeledTable& lt : GenerateCorpus(world, spec)) {
    tables.push_back(lt.table);
  }
  std::vector<AnnotatedTable> annotated = AnnotateCorpusParallel(
      &world.catalog, &index, CorpusAnnotatorOptions(), tables);
  ClosureCache closure(&world.catalog);
  CorpusIndex corpus(std::move(annotated), &closure);
  storage::SnapshotBuilder builder;
  builder.SetCatalog(&world.catalog).SetLemmaIndex(&index).SetCorpus(
      &corpus);
  return builder.WriteToFile(path);
}

/// Handles one request line; returns false when the connection should
/// close (quit).
bool HandleLine(WebTabService* service, const std::string& line,
                std::string* out) {
  Result<WireRequest> parsed = serve::ParseWireRequest(line);
  if (!parsed.ok()) {
    *out = serve::RenderErrorResponse(parsed.status());
    return true;
  }
  const WireRequest& request = *parsed;
  Deadline deadline = request.deadline_ms > 0
                          ? Deadline::AfterMillis(request.deadline_ms)
                          : Deadline();

  // Pin a generation for name resolution and rendering. Ids are only
  // meaningful within one generation, so if a hot-swap lands between
  // resolution and execution (the answering version differs from the
  // resolving one), re-resolve against the newer generation and retry —
  // ids must never cross generations, where they could alias different
  // objects. Bounded attempts: swaps are rare, requests are short.
  serve::SnapshotManager::Handle handle = service->manager()->Current();
  const CatalogView* catalog =
      handle.snapshot != nullptr ? &handle.snapshot->catalog() : nullptr;

  switch (request.op) {
    case WireRequest::Op::kQuit:
      *out = "{\"ok\":true,\"bye\":true}";
      return false;
    case WireRequest::Op::kStats:
      *out = serve::RenderStatsResponse(
          service->stats(), handle.version,
          handle.snapshot != nullptr ? handle.snapshot->path() : "");
      return true;
    case WireRequest::Op::kMetrics:
      *out = serve::RenderMetricsResponse();
      return true;
    case WireRequest::Op::kTimeseries:
      *out = serve::RenderTimeseriesResponse(service->timeseries(),
                                             request.window_s);
      return true;
    case WireRequest::Op::kDebug:
      *out = serve::RenderDebugResponse(
          service->exemplars(), service->options().slow_request_ms);
      return true;
    case WireRequest::Op::kSwap: {
      Status status = service->SwapSnapshot(request.path);
      *out = status.ok() ? serve::RenderSwapResponse(
                               service->manager()->current_version())
                         : serve::RenderErrorResponse(status);
      return true;
    }
    case WireRequest::Op::kSearch:
    case WireRequest::Op::kJoin: {
      if (catalog == nullptr) {
        *out = serve::RenderErrorResponse(
            Status::FailedPrecondition("no snapshot loaded"));
        return true;
      }
      // An explicit wire "k" flows into the engines (bounded selection
      // with safe pruning); without it the engines run the exact full
      // ranking and only the rendered list is truncated below.
      TopKOptions topk{std::max(0, request.top_k), /*prune=*/true};
      serve::SearchResponse response;
      for (int attempt = 0; attempt < 3; ++attempt) {
        if (request.op == WireRequest::Op::kSearch) {
          SelectQuery query =
              serve::ResolveSelectQuery(request.select, *catalog);
          Status resolved = serve::ValidateResolvedSelect(
              request.engine, request.select, query);
          if (!resolved.ok()) {
            *out = serve::RenderErrorResponse(resolved);
            return true;
          }
          response = service->Search(request.engine, query, topk, deadline,
                                     request.want_trace,
                                     request.want_explain);
        } else {
          JoinQuery query = serve::ResolveJoinQuery(request.join, *catalog);
          Status resolved =
              serve::ValidateResolvedJoin(request.join, query);
          if (!resolved.ok()) {
            *out = serve::RenderErrorResponse(resolved);
            return true;
          }
          response = service->SearchJoin(query, topk, deadline,
                                         request.want_trace,
                                         request.want_explain);
        }
        if (!response.status.ok() ||
            response.meta.snapshot_version == handle.version) {
          break;  // Same generation resolved and answered (or hard error).
        }
        handle = service->manager()->Current();
        catalog = &handle.snapshot->catalog();
      }
      *out = serve::RenderSearchResponse(
          response, catalog, request.top_k > 0 ? request.top_k : 10,
          request.want_stats);
      WEBTAB_LOG(Debug) << "req id=" << response.meta.request_id
                        << " op=search queue_ms="
                        << response.meta.queue_millis
                        << " work_ms=" << response.meta.work_millis
                        << " cache_hit=" << response.meta.cache_hit;
      return true;
    }
    case WireRequest::Op::kAnnotate: {
      Result<Table> table = serve::WireToTable(request.table);
      if (!table.ok()) {
        *out = serve::RenderErrorResponse(table.status());
        return true;
      }
      // Annotation carries no catalog ids inward; only rendering needs a
      // catalog, which must be the generation that answered (its ids are
      // what the annotation holds).
      serve::AnnotateResponse response =
          service->Annotate(*table, deadline, request.want_trace,
                            request.want_explain);
      if (response.status.ok() &&
          response.meta.snapshot_version != handle.version) {
        handle = service->manager()->Current();
        catalog = (handle.snapshot != nullptr &&
                   handle.version == response.meta.snapshot_version)
                      ? &handle.snapshot->catalog()
                      : nullptr;  // Rare double-swap: render ids as null.
      }
      *out = serve::RenderAnnotateResponse(response, catalog);
      WEBTAB_LOG(Debug) << "req id=" << response.meta.request_id
                        << " op=annotate queue_ms="
                        << response.meta.queue_millis
                        << " work_ms=" << response.meta.work_millis;
      return true;
    }
  }
  *out = serve::RenderErrorResponse(Status::Internal("unhandled op"));
  return true;
}

/// One rendered dashboard frame: a rollup of the trailing window from
/// the service's time-series store. Pure read — never touches the
/// request path.
std::string DashboardFrame(WebTabService* service, double window_s) {
  const obs::TimeSeriesStore& ts = service->timeseries();
  std::string out;
  char line[256];
  auto add = [&](const char* fmt, auto... args) {
    std::snprintf(line, sizeof(line), fmt, args...);
    out += line;
  };
  obs::SeriesRollup r;
  auto counter_delta = [&](const char* name) -> long long {
    return ts.QueryOne(name, window_s, &r)
               ? static_cast<long long>(r.delta)
               : 0;
  };
  auto gauge_last = [&](const char* name) -> long long {
    return ts.QueryOne(name, window_s, &r)
               ? static_cast<long long>(r.last)
               : 0;
  };

  add("webtab dashboard  window=%.0fs  ticks=%lld  series=%zu  "
      "mem=%.1fKB\n",
      window_s, static_cast<long long>(ts.ticks()), ts.series_count(),
      ts.MemoryBytes() / 1024.0);
  add("gen=%lld  uptime=%llds  rss=%.1fMB  fds=%lld  swaps(+%lld)  "
      "slow(+%lld)\n",
      gauge_last("serve.snapshot_generation"),
      gauge_last("process.uptime_s"),
      gauge_last("process.rss_bytes") / (1024.0 * 1024.0),
      gauge_last("process.open_fds"), counter_delta("serve.swaps"),
      counter_delta("serve.slow_requests"));

  if (ts.QueryOne("serve.queue_wait_ms", window_s, &r) &&
      r.window_s > 0.0) {
    add("req rate %.2f/s   queue wait p50=%.2fms p99=%.2fms\n",
        static_cast<double>(r.hist.count) / r.window_s,
        r.hist.Percentile(0.50), r.hist.Percentile(0.99));
  } else {
    add("req rate -   (no requests in window)\n");
  }

  static const struct { const char* metric; const char* label; } kOps[] = {
      {"serve.search.baseline_ms", "search:baseline"},
      {"serve.search.type_ms", "search:type"},
      {"serve.search.type_relation_ms", "search:type_relation"},
      {"serve.search.join_ms", "join"},
      {"serve.annotate_ms", "annotate"},
  };
  for (const auto& op : kOps) {
    if (!ts.QueryOne(op.metric, window_s, &r) || r.hist.count == 0) {
      continue;
    }
    add("  %-21s n=%-6llu p50=%8.2fms  p99=%8.2fms\n", op.label,
        static_cast<unsigned long long>(r.hist.count),
        r.hist.Percentile(0.50), r.hist.Percentile(0.99));
  }

  const long long hits = counter_delta("serve.cache_hits");
  const long long misses = counter_delta("serve.cache_misses");
  if (hits + misses > 0) {
    add("cache hit rate %.1f%%  (%lld hits / %lld lookups)\n",
        100.0 * static_cast<double>(hits) /
            static_cast<double>(hits + misses),
        hits, hits + misses);
  }

  const long long planned = counter_delta("search.tables_planned");
  const long long scored = counter_delta("search.tables_scored");
  const long long stops = counter_delta("search.prune_stops");
  if (planned > 0) {
    add("prune efficiency %.1f%%  (scored %lld of %lld planned, "
        "%lld stops)\n",
        100.0 * (1.0 - static_cast<double>(scored) /
                           static_cast<double>(planned)),
        scored, planned, stops);
  }
  return out;
}

/// --dashboard: redraws DashboardFrame on stderr at a fixed interval
/// until told to stop. ANSI home+clear only when stderr is a terminal,
/// so piping it (or the CI smoke run) just appends frames.
void DashboardLoop(WebTabService* service, std::atomic<bool>* stop,
                   int64_t interval_ms, double window_s) {
  const bool tty = ::isatty(2) != 0;
  while (!stop->load(std::memory_order_relaxed)) {
    std::string frame = DashboardFrame(service, window_s);
    if (tty) {
      std::fputs("\x1b[H\x1b[J", stderr);
    }
    std::fwrite(frame.data(), 1, frame.size(), stderr);
    std::fflush(stderr);
    // Sleep in short slices so shutdown never waits a full interval.
    for (int64_t waited = 0;
         waited < interval_ms && !stop->load(std::memory_order_relaxed);
         waited += 100) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  }
}

void ServeStdin(WebTabService* service) {
  std::string line;
  while (std::getline(std::cin, line)) {
    if (line.empty()) continue;
    std::string out;
    bool keep_going = HandleLine(service, line, &out);
    std::cout << out << "\n" << std::flush;
    if (!keep_going) break;
  }
}

/// One connection: newline-delimited requests, newline-delimited
/// responses.
void ServeConnection(WebTabService* service, int fd) {
  std::string buffer;
  char chunk[4096];
  bool open = true;
  while (open) {
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    buffer.append(chunk, static_cast<size_t>(n));
    size_t start = 0;
    for (size_t nl = buffer.find('\n', start); nl != std::string::npos;
         nl = buffer.find('\n', start)) {
      std::string line = buffer.substr(start, nl - start);
      start = nl + 1;
      if (line.empty()) continue;
      std::string out;
      open = HandleLine(service, line, &out);
      out += '\n';
      if (::send(fd, out.data(), out.size(), MSG_NOSIGNAL) < 0) {
        open = false;
      }
      if (!open) break;
    }
    buffer.erase(0, start);
  }
  ::close(fd);
}

int ServeTcp(WebTabService* service, int port) {
  int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listener < 0) return Fail(Status::IoError("socket() failed"));
  int enable = 1;
  ::setsockopt(listener, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof(enable));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(listener);
    return Fail(Status::IoError("bind() failed on port " +
                                std::to_string(port)));
  }
  if (::listen(listener, 64) != 0) {
    ::close(listener);
    return Fail(Status::IoError("listen() failed"));
  }
  std::fprintf(stderr, "serving on 127.0.0.1:%d (one JSON request per line)\n",
               port);
  std::vector<std::thread> connections;
  while (true) {
    int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) break;
    connections.emplace_back(ServeConnection, service, fd);
  }
  for (std::thread& t : connections) t.join();
  ::close(listener);
  return 0;
}

int Run(int argc, char** argv) {
  InitLogLevelFromEnv();
  std::string snapshot_path;
  int64_t port = 0, workers = 4, queue_cap = 256, deadline_ms = 0;
  int64_t cache_cap = 1024, synth_tables = 0, seed = 42;
  int64_t slow_ms = 0, slow_exemplars = 32;
  int64_t dashboard_interval_ms = 2000, dashboard_window_s = 60;
  bool no_validate = false, no_precompute = false, metrics_dump = false;
  bool dashboard = false;
  FlagSet flags;
  flags.AddString("snapshot", &snapshot_path, "snapshot file to serve");
  flags.AddInt("port", &port, "TCP port (0 = stdin/stdout)");
  flags.AddInt("workers", &workers, "worker threads");
  flags.AddInt("queue-cap", &queue_cap, "bounded request queue capacity");
  flags.AddInt("deadline-ms", &deadline_ms,
               "default per-request deadline (0 = none)");
  flags.AddInt("cache-cap", &cache_cap, "result cache entries (0 = off)");
  flags.AddInt("synth-tables", &synth_tables,
               "build a demo snapshot with N annotated tables first");
  flags.AddInt("seed", &seed, "demo snapshot seed");
  flags.AddBool("no-validate", &no_validate,
                "open snapshots with plain Open instead of OpenValidated");
  flags.AddBool("no-precompute", &no_precompute,
                "skip type-closure precompute at load");
  flags.AddInt("slow-ms", &slow_ms,
               "log requests slower than this with their stage trace "
               "(0 = off)");
  flags.AddInt("slow-exemplars", &slow_exemplars,
               "slow-request traces retained for {\"op\":\"debug\"}");
  flags.AddBool("metrics-dump", &metrics_dump,
                "print the Prometheus metrics exposition to stderr on "
                "exit");
  flags.AddBool("dashboard", &dashboard,
                "live terminal telemetry view on stderr (qps, per-op "
                "latency, cache/prune rates)");
  flags.AddInt("dashboard-interval-ms", &dashboard_interval_ms,
               "dashboard redraw interval");
  flags.AddInt("dashboard-window-s", &dashboard_window_s,
               "trailing window the dashboard aggregates over");
  Status status = flags.Parse(argc, argv);
  if (!status.ok()) return Fail(status);
  if (snapshot_path.empty()) {
    std::fprintf(stderr, "usage: serve_tool --snapshot world.snap "
                         "[--port P] [--workers W]\n%s",
                 flags.Usage().c_str());
    return 2;
  }
  ::signal(SIGPIPE, SIG_IGN);

  if (synth_tables > 0) {
    std::fprintf(stderr, "building demo snapshot %s (%lld tables)...\n",
                 snapshot_path.c_str(),
                 static_cast<long long>(synth_tables));
    Status built = BuildDemoSnapshot(static_cast<int>(synth_tables),
                                     static_cast<uint64_t>(seed),
                                     snapshot_path);
    if (!built.ok()) return Fail(built);
  }

  serve::ServingSnapshotOptions snapshot_options;
  snapshot_options.validated_open = !no_validate;
  snapshot_options.precompute_closures = !no_precompute;
  SnapshotManager manager(snapshot_options);
  Result<uint64_t> loaded = manager.Load(snapshot_path);
  if (!loaded.ok()) return Fail(loaded.status());

  ServiceOptions options;
  options.num_workers = static_cast<int>(workers);
  options.queue_capacity = static_cast<int>(queue_cap);
  options.default_deadline_ms = deadline_ms;
  options.result_cache_capacity = static_cast<int>(cache_cap);
  options.slow_request_ms = static_cast<double>(slow_ms);
  options.slow_exemplar_capacity = static_cast<int>(slow_exemplars);
  WebTabService service(&manager, options);
  service.Start();

  std::fprintf(stderr,
               "loaded %s (version %llu), %lld workers, queue %lld\n",
               snapshot_path.c_str(),
               static_cast<unsigned long long>(*loaded),
               static_cast<long long>(workers),
               static_cast<long long>(queue_cap));

  std::atomic<bool> dashboard_stop{false};
  std::thread dashboard_thread;
  if (dashboard) {
    dashboard_thread = std::thread(
        DashboardLoop, &service, &dashboard_stop,
        std::max<int64_t>(100, dashboard_interval_ms),
        static_cast<double>(std::max<int64_t>(1, dashboard_window_s)));
  }

  int rc = port > 0 ? ServeTcp(&service, static_cast<int>(port))
                    : (ServeStdin(&service), 0);
  if (dashboard_thread.joinable()) {
    dashboard_stop.store(true, std::memory_order_relaxed);
    dashboard_thread.join();
  }
  service.Stop();
  if (metrics_dump) {
    std::string text = obs::MetricsRegistry::Get().RenderPrometheus();
    std::fwrite(text.data(), 1, text.size(), stderr);
  }
  return rc;
}

}  // namespace
}  // namespace webtab

int main(int argc, char** argv) { return webtab::Run(argc, argv); }
