// Serving-layer load benchmark: a closed-loop multi-client generator
// drives mixed annotate/search traffic through WebTabService over an
// mmap'd snapshot, hot-swaps to a second snapshot mid-run, and verifies
// every response byte-identical against single-threaded engine runs on
// the generation that answered it. Emits BENCH_serving.json with
// throughput and p50/p99 latency.
//
// Acceptance (ISSUE 3): >= 4 concurrent clients served from one mmap'd
// snapshot with byte-identical results, hot-swap under load with zero
// lost in-flight requests.
//
// Latency percentiles come from the shared obs::Histogram (recorded
// concurrently by the client threads, shard-local and lock-free); the
// JSON carries the full bucket breakdown alongside p50/p95/p99, plus
// the service's own serve.queue_wait_ms histogram.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "annotate/corpus_annotator.h"
#include "common/flags.h"
#include "common/logging.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "search/baseline_search.h"
#include "search/corpus_index.h"
#include "search/type_relation_search.h"
#include "search/type_search.h"
#include "serve/service.h"
#include "storage/snapshot.h"
#include "storage/snapshot_writer.h"
#include "synth/corpus_generator.h"
#include "synth/world_generator.h"

using namespace webtab;  // NOLINT(build/namespaces)

namespace {

std::string BuildSnapshotFile(const World& world, int num_tables,
                              uint64_t corpus_seed,
                              const std::string& path) {
  LemmaIndex index(&world.catalog);
  CorpusSpec spec;
  spec.seed = corpus_seed;
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
  WEBTAB_CHECK_OK(builder.WriteToFile(path));
  return path;
}

std::vector<SelectQuery> MakeQueryPool(const World& world, int count) {
  std::vector<SelectQuery> pool;
  for (RelationId rel : {world.directed, world.acted_in, world.wrote,
                         world.plays_for}) {
    if (rel == kNa) continue;
    const auto& tuples = world.true_relations[rel].tuples;
    for (size_t i = 0; i < tuples.size() &&
                       pool.size() < static_cast<size_t>(count);
         i += 13) {
      SelectQuery q;
      q.relation = rel;
      q.type1 = world.catalog.relation(rel).subject_type;
      q.type2 = world.catalog.relation(rel).object_type;
      q.e2 = tuples[i].second;
      q.e2_text = world.catalog.entity(q.e2).lemmas[0];
      q.relation_text = std::string(world.catalog.RelationName(rel));
      q.type1_text = std::string(world.catalog.TypeName(q.type1));
      q.type2_text = std::string(world.catalog.TypeName(q.type2));
      pool.push_back(q);
    }
  }
  WEBTAB_CHECK(!pool.empty());
  return pool;
}

bool SameResults(const std::vector<SearchResult>& a,
                 const std::vector<SearchResult>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].entity != b[i].entity || a[i].text != b[i].text ||
        a[i].score != b[i].score) {
      return false;
    }
  }
  return true;
}

struct ClientLog {
  int64_t responses = 0;
  int64_t failures = 0;
  int64_t served_v1 = 0, served_v2 = 0;
};

/// One histogram as a JSON object: count/p50/p95/p99/mean plus the
/// non-empty buckets as [upper_bound, count] pairs.
std::string HistogramJson(const obs::HistogramSnapshot& snap) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "{\"count\": %llu, \"p50\": %.3f, \"p95\": %.3f, "
                "\"p99\": %.3f, \"mean\": %.3f, \"buckets\": [",
                static_cast<unsigned long long>(snap.count),
                snap.Percentile(0.5), snap.Percentile(0.95),
                snap.Percentile(0.99), snap.Mean());
  std::string out = buf;
  bool first = true;
  for (size_t i = 0; i < snap.buckets.size(); ++i) {
    if (snap.buckets[i] == 0) continue;
    std::snprintf(buf, sizeof(buf), "%s[%.6g, %llu]", first ? "" : ", ",
                  obs::Histogram::BucketUpperBound(static_cast<int>(i)),
                  static_cast<unsigned long long>(snap.buckets[i]));
    out += buf;
    first = false;
  }
  out += "]}";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  int64_t clients = 4, requests_per_client = 60, tables = 80;
  int64_t workers = 4, queue_cap = 512, seed = 42, cache_cap = 1024;
  std::string out = "BENCH_serving.json", dir = "/tmp";
  FlagSet flags;
  flags.AddInt("clients", &clients, "closed-loop client threads");
  flags.AddInt("requests-per-client", &requests_per_client,
               "requests each client issues");
  flags.AddInt("tables", &tables, "snapshot A corpus size (B adds 50%)");
  flags.AddInt("workers", &workers, "service worker threads");
  flags.AddInt("queue-cap", &queue_cap, "request queue capacity");
  flags.AddInt("cache-cap", &cache_cap, "result cache entries (0 = off)");
  flags.AddInt("seed", &seed, "world seed");
  flags.AddString("out", &out, "JSON output path");
  flags.AddString("dir", &dir, "scratch directory");
  WEBTAB_CHECK_OK(flags.Parse(argc, argv));

  std::cout << "Building two snapshot generations (" << tables << " and "
            << tables + tables / 2 << " tables)...\n";
  World world = GenerateWorld(WorldSpec{.seed = static_cast<uint64_t>(seed)});
  const std::string path_a = BuildSnapshotFile(
      world, static_cast<int>(tables), 5001, dir + "/serving_bench_a.snap");
  const std::string path_b = BuildSnapshotFile(
      world, static_cast<int>(tables + tables / 2), 5002,
      dir + "/serving_bench_b.snap");

  // Ground truth per generation: independent mappings of the same files.
  Result<storage::Snapshot> truth_a = storage::Snapshot::Open(path_a);
  Result<storage::Snapshot> truth_b = storage::Snapshot::Open(path_b);
  WEBTAB_CHECK(truth_a.ok() && truth_b.ok());
  const CorpusView* corpus_by_version[3] = {nullptr, truth_a->corpus(),
                                            truth_b->corpus()};

  std::vector<SelectQuery> queries = MakeQueryPool(world, 16);

  // Annotate workload: fresh tables (not in either corpus). Annotations
  // depend only on catalog+index, shared by both generations.
  CorpusSpec annotate_spec;
  annotate_spec.seed = 6003;
  annotate_spec.num_tables = 8;
  std::vector<Table> annotate_tables;
  for (const LabeledTable& lt : GenerateCorpus(world, annotate_spec)) {
    annotate_tables.push_back(lt.table);
  }
  std::vector<TableAnnotation> expected_annotations;
  {
    Vocabulary vocab = truth_a->lemma_index()->CopyVocabulary();
    TableAnnotator annotator(truth_a->catalog(), truth_a->lemma_index(),
                             AnnotatorOptions(), &vocab);
    for (const Table& t : annotate_tables) {
      expected_annotations.push_back(annotator.Annotate(t));
    }
  }

  serve::SnapshotManager manager;
  Result<uint64_t> loaded = manager.Load(path_a);
  WEBTAB_CHECK(loaded.ok()) << loaded.status().ToString();

  serve::ServiceOptions options;
  options.num_workers = static_cast<int>(workers);
  options.queue_capacity = static_cast<int>(queue_cap);
  options.result_cache_capacity = static_cast<int>(cache_cap);
  serve::WebTabService service(&manager, options);
  service.Start();

  const int64_t total_requests = clients * requests_per_client;
  std::atomic<int64_t> issued{0};
  std::vector<ClientLog> logs(static_cast<size_t>(clients));

  // Client-observed latency histograms (the shared obs type; clients
  // record concurrently, shard-local).
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Get();
  obs::Histogram* search_hist =
      registry.GetHistogram("serving_bench.search_ms");
  obs::Histogram* annotate_hist =
      registry.GetHistogram("serving_bench.annotate_ms");
  obs::Histogram* all_hist = registry.GetHistogram("serving_bench.all_ms");

  std::cout << "Driving " << clients << " closed-loop clients x "
            << requests_per_client << " requests (" << workers
            << " workers), hot-swap at 1/3...\n";
  WallTimer run_timer;
  auto client = [&](int client_id) {
    ClientLog* log = &logs[client_id];
    serve::EngineKind engines[3] = {serve::EngineKind::kBaseline,
                                    serve::EngineKind::kType,
                                    serve::EngineKind::kTypeRelation};
    for (int64_t i = 0; i < requests_per_client; ++i) {
      issued.fetch_add(1, std::memory_order_relaxed);
      const int64_t pick = client_id * 131 + i * 17;
      WallTimer latency;
      if (i % 8 == 7) {
        const size_t t = pick % annotate_tables.size();
        serve::AnnotateResponse response =
            service.Annotate(annotate_tables[t]);
        const double ms = latency.ElapsedMillis();
        annotate_hist->Record(ms);
        all_hist->Record(ms);
        ++log->responses;
        const TableAnnotation& want = expected_annotations[t];
        const TableAnnotation& got = response.annotation;
        if (!response.status.ok() ||
            got.column_types != want.column_types ||
            got.cell_entities != want.cell_entities ||
            got.relations != want.relations) {
          ++log->failures;
        }
        continue;
      }
      const SelectQuery& query = queries[pick % queries.size()];
      serve::EngineKind engine = engines[pick % 3];
      serve::SearchResponse response = service.Search(engine, query);
      const double ms = latency.ElapsedMillis();
      search_hist->Record(ms);
      all_hist->Record(ms);
      ++log->responses;
      const uint64_t v = response.meta.snapshot_version;
      if (v == 1) ++log->served_v1;
      if (v == 2) ++log->served_v2;
      if (!response.status.ok() || (v != 1 && v != 2)) {
        ++log->failures;
        continue;
      }
      std::vector<SearchResult> want;
      switch (engine) {
        case serve::EngineKind::kBaseline:
          want = BaselineSearch(*corpus_by_version[v], query);
          break;
        case serve::EngineKind::kType:
          want = TypeSearch(*corpus_by_version[v], query);
          break;
        default:
          want = TypeRelationSearch(*corpus_by_version[v], query);
          break;
      }
      if (!SameResults(response.results, want)) ++log->failures;
    }
  };

  std::vector<std::thread> threads;
  for (int64_t c = 0; c < clients; ++c) {
    threads.emplace_back(client, static_cast<int>(c));
  }

  // Hot-swap once a third of the traffic is in flight or done.
  while (issued.load(std::memory_order_relaxed) < total_requests / 3) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  WallTimer swap_timer;
  Status swapped = service.SwapSnapshot(path_b);
  const double swap_ms = swap_timer.ElapsedMillis();
  WEBTAB_CHECK_OK(swapped);

  for (std::thread& t : threads) t.join();
  const double wall_seconds = run_timer.ElapsedSeconds();
  service.Stop();

  // Aggregate.
  int64_t responses = 0, failures = 0, served_v1 = 0, served_v2 = 0;
  for (const ClientLog& log : logs) {
    responses += log.responses;
    failures += log.failures;
    served_v1 += log.served_v1;
    served_v2 += log.served_v2;
  }
  obs::HistogramSnapshot all_snap = all_hist->Snapshot();
  obs::HistogramSnapshot search_snap = search_hist->Snapshot();
  obs::HistogramSnapshot annotate_snap = annotate_hist->Snapshot();
  // The service-side queue-wait histogram the workers recorded.
  obs::HistogramSnapshot queue_snap =
      registry.GetHistogram("serve.queue_wait_ms")->Snapshot();

  serve::ServiceStats stats = service.stats();
  const double throughput =
      wall_seconds > 0 ? static_cast<double>(responses) / wall_seconds : 0;

  char buf[2048];
  std::snprintf(
      buf, sizeof(buf),
      "{\n"
      "  \"bench\": \"serving\",\n"
      "  \"clients\": %lld,\n"
      "  \"workers\": %lld,\n"
      "  \"requests\": %lld,\n"
      "  \"responses\": %lld,\n"
      "  \"failures\": %lld,\n"
      "  \"wall_seconds\": %.3f,\n"
      "  \"throughput_rps\": %.1f,\n"
      "  \"latency_ms\": {\"p50\": %.3f, \"p99\": %.3f},\n"
      "  \"served_by_version\": {\"v1\": %lld, \"v2\": %lld},\n"
      "  \"hot_swap_ms\": %.3f,\n"
      "  \"cache\": {\"hits\": %llu, \"misses\": %llu},\n"
      "  \"rejected_overload\": %llu,\n"
      "  \"byte_identical_verified\": %s,\n",
      static_cast<long long>(clients), static_cast<long long>(workers),
      static_cast<long long>(total_requests),
      static_cast<long long>(responses), static_cast<long long>(failures),
      wall_seconds, throughput, all_snap.Percentile(0.5),
      all_snap.Percentile(0.99), static_cast<long long>(served_v1),
      static_cast<long long>(served_v2), swap_ms,
      static_cast<unsigned long long>(stats.cache.hits),
      static_cast<unsigned long long>(stats.cache.misses),
      static_cast<unsigned long long>(stats.rejected_overload),
      failures == 0 ? "true" : "false");
  std::string json = buf;
  json += "  \"search_latency_ms\": " + HistogramJson(search_snap) + ",\n";
  json +=
      "  \"annotate_latency_ms\": " + HistogramJson(annotate_snap) + ",\n";
  json += "  \"queue_wait_ms\": " + HistogramJson(queue_snap) + "\n}\n";

  std::cout << json;
  if (!out.empty()) {
    std::ofstream f(out);
    f << json;
    std::cout << "wrote " << out << "\n";
  }

  // Acceptance: >= 4 concurrent clients, byte-identical results, zero
  // lost in-flight requests across the swap, both generations served.
  WEBTAB_CHECK(clients >= 4) << "acceptance requires >= 4 clients";
  WEBTAB_CHECK(responses == total_requests)
      << "lost requests: " << total_requests - responses;
  WEBTAB_CHECK(failures == 0)
      << failures << " responses diverged from single-threaded engines";
  WEBTAB_CHECK(served_v1 > 0 && served_v2 > 0)
      << "hot-swap did not land under load (v1=" << served_v1
      << ", v2=" << served_v2 << ")";
  // Every executed request recorded its queue wait (the satellite fix:
  // Request::queued used to be measured and dropped).
  WEBTAB_CHECK(queue_snap.count ==
               static_cast<uint64_t>(responses) - stats.rejected_overload)
      << "queue-wait histogram count " << queue_snap.count
      << " != executed requests";
  return 0;
}
