// The repository's benchmark: annotate and search through the serving
// API, end to end, with per-layer spans recorded from outside.
//
//   perfbench --workload annotate|search --seed N --seconds S
//                    --trace 0|1 [--work-dir DIR]
//
// One closed-loop client sends wire-JSON requests to a one-worker
// WebTabService in process, on the path serve_tool takes for a request
// line (ParseWireRequest -> Resolve*/WireToTable -> Submit* ->
// Render*Response), after a setup that annotates a corpus, indexes it,
// writes a snapshot, loads it and warms the service up. Every response
// is compared with a single-threaded reference on the same snapshot.
//
// --trace 0 prints the end-to-end metrics; --trace 1 also replays the
// timed inputs through a fresh service with the benchmark's spans on,
// decomposes annotation and search into their stages, and prints the
// per-layer metrics. The last stdout line is the
// JSON result; everything else goes to stderr. The exit code is nonzero
// when any check fails.
#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include <sched.h>
#include <sys/stat.h>
#include <unistd.h>

#include "annotate/annotator.h"
#include "annotate/corpus_annotator.h"
#include "common/logging.h"
#include "eval/annotation_eval.h"
#include "eval/metrics.h"
#include "eval/search_eval.h"
#include "fixture.h"
#include "index/candidates.h"
#include "index/lemma_index.h"
#include "inference/belief_propagation.h"
#include "inference/table_graph.h"
#include "metrics.h"
#include "model/label_space.h"
#include "search/baseline_search.h"
#include "search/corpus_index.h"
#include "search/join_search.h"
#include "search/type_relation_search.h"
#include "search/type_search.h"
#include "serve/protocol.h"
#include "serve/service.h"
#include "spans.h"
#include "stats.h"
#include "storage/snapshot.h"
#include "storage/snapshot_writer.h"

namespace perfbench {
namespace {

using namespace webtab;  // NOLINT(build/namespaces)
using serve::EngineKind;

/// Setups per run; setup_s is their median, and each serves a third of
/// the timed phase.
constexpr int kSetupReps = 3;
/// Reference annotators run side by side after the timed phase, each a
/// plain single-threaded TableAnnotator on its own table subset.
constexpr int kReferenceThreads = 3;
/// Tables the traced run decomposes stage by stage: the first timed
/// tables on annotate, the first corpus tables on search (Figure 7
/// uses 200).
constexpr int kDecomposedTables = 600;
constexpr int kDecomposedCorpusTables = 200;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string work_dir = ".bench_build/perfbench/run";
};

[[noreturn]] void Usage(const std::string& error) {
  std::cerr << "perfbench: " << error
            << "\nusage: perfbench --workload annotate|search "
               "--seed N --seconds S --trace 0|1 [--work-dir DIR]\n";
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  std::set<std::string> seen;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[i + 1];
    if (!seen.insert(flag).second) Usage("repeated " + flag);
    char* end = nullptr;
    errno = 0;
    if (flag == "--workload") {
      if (value != "annotate" && value != "search") {
        Usage("unknown workload " + value);
      }
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0' || errno != 0) {
        Usage("bad --seed " + value);
      }
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(args.seconds > 0)) {
        Usage("bad --seconds " + value);
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("bad --trace " + value);
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  for (const char* required : {"--workload", "--seed", "--seconds",
                               "--trace"}) {
    if (seen.count(required) == 0) Usage(std::string("missing ") + required);
  }
  return args;
}

double Millis(int64_t ns) { return static_cast<double>(ns) * 1e-6; }

// ---------------------------------------------------------------------------
// CPU placement. The serving threads (this client, the service's worker
// and collector, which inherit the mask of the thread that starts them)
// share one CPU while they serve, so each request's hand-offs are
// same-CPU context switches. Across vCPUs of a shared VM the wake-ups
// were what varied: three search runs gave 2599-3436 requests/s spread
// over all CPUs and 3769-4063 on one. Batch work (the setup's corpus
// annotation, the references) runs on every CPU.

cpu_set_t AllCpus() {
  static const cpu_set_t kAll = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    WEBTAB_CHECK(::sched_getaffinity(0, sizeof(set), &set) == 0);
    return set;
  }();
  return kAll;
}

void RunOnAllCpus() {
  const cpu_set_t all = AllCpus();
  WEBTAB_CHECK(::sched_setaffinity(0, sizeof(all), &all) == 0);
}

/// Moves the calling thread to the highest CPU it may use.
void RunOnServingCpu() {
  const cpu_set_t all = AllCpus();
  cpu_set_t one;
  CPU_ZERO(&one);
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (CPU_ISSET(cpu, &all)) {
      CPU_SET(cpu, &one);
      break;
    }
  }
  WEBTAB_CHECK(::sched_setaffinity(0, sizeof(one), &one) == 0);
}

// ---------------------------------------------------------------------------
// Response digests: the exact payload a client would compare.

uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

uint64_t DigestResults(const std::vector<SearchResult>& results) {
  uint64_t h = results.size();
  for (const SearchResult& r : results) {
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(r.score));
    std::memcpy(&bits, &r.score, sizeof(bits));
    h = Mix(h, static_cast<uint64_t>(r.entity));
    h = Mix(h, bits);
    h = Mix(h, std::hash<std::string>{}(r.text));
  }
  return h;
}

bool SameAnnotation(const TableAnnotation& a, const TableAnnotation& b) {
  return a.column_types == b.column_types &&
         a.cell_entities == b.cell_entities && a.relations == b.relations;
}

// ---------------------------------------------------------------------------
// The client: one wire request in, one rendered response out.

/// The top-k contract a wire request asks the engines for: an explicit
/// "k" is a pruned top-k, its absence the full ranking.
TopKOptions WireTopK(const serve::WireRequest& wire) {
  TopKOptions topk;
  topk.k = std::max(0, wire.top_k);
  topk.prune = true;
  return topk;
}

/// Parses a request line the benchmark generated itself.
serve::WireRequest ParseLine(const std::string& line) {
  Result<serve::WireRequest> wire = serve::ParseWireRequest(line);
  WEBTAB_CHECK(wire.ok()) << wire.status().ToString();
  return *wire;
}

struct Outcome {
  int input = -1;  // pool index (annotate) or key index (search)
  double latency_ms = 0.0;
  double queue_ms = 0.0;
  double work_ms = 0.0;
  bool ok = false;
  uint64_t digest = 0;  // search payload
  std::string error;
};

/// Sends one request line the way serve_tool handles it. Annotations go
/// to `annotation` (when non-null) so the caller can check them.
Outcome Send(serve::WebTabService* service, const std::string& line,
             SpanRecorder* rec, uint32_t id, TableAnnotation* annotation) {
  Outcome out;
  serve::SearchResponse search;
  serve::AnnotateResponse annotate;
  bool is_search = false;
  const int64_t start = NowNs();
  {
    ScopedSpan request(rec, "request", id);
    Result<serve::WireRequest> parsed = [&] {
      ScopedSpan span(rec, "serve.parse", id);
      return serve::ParseWireRequest(line);
    }();
    if (!parsed.ok()) {
      out.error = parsed.status().ToString();
      return out;
    }
    const serve::SnapshotManager::Handle handle =
        service->manager()->Current();
    const CatalogView& catalog = handle.snapshot->catalog();
    const serve::WireRequest& wire = *parsed;
    switch (wire.op) {
      case serve::WireRequest::Op::kSearch:
      case serve::WireRequest::Op::kJoin: {
        is_search = true;
        const TopKOptions topk = WireTopK(wire);
        if (wire.op == serve::WireRequest::Op::kSearch) {
          SelectQuery query;
          Status valid;
          {
            ScopedSpan span(rec, "serve.resolve", id);
            query = serve::ResolveSelectQuery(wire.select, catalog);
            valid = serve::ValidateResolvedSelect(wire.engine, wire.select,
                                                  query);
          }
          if (!valid.ok()) {
            out.error = valid.ToString();
            return out;
          }
          ScopedSpan span(rec, "serve.submit", id);
          search =
              service->SubmitSearch(wire.engine, std::move(query), topk).get();
        } else {
          JoinQuery query;
          Status valid;
          {
            ScopedSpan span(rec, "serve.resolve", id);
            query = serve::ResolveJoinQuery(wire.join, catalog);
            valid = serve::ValidateResolvedJoin(wire.join, query);
          }
          if (!valid.ok()) {
            out.error = valid.ToString();
            return out;
          }
          ScopedSpan span(rec, "serve.submit", id);
          search = service->SubmitJoin(std::move(query), topk).get();
        }
        ScopedSpan span(rec, "serve.render", id);
        serve::RenderSearchResponse(search, &catalog,
                                    wire.top_k > 0 ? wire.top_k : 10);
        break;
      }
      case serve::WireRequest::Op::kAnnotate: {
        Result<Table> table = [&] {
          ScopedSpan span(rec, "serve.resolve", id);
          return serve::WireToTable(wire.table);
        }();
        if (!table.ok()) {
          out.error = table.status().ToString();
          return out;
        }
        {
          ScopedSpan span(rec, "serve.submit", id);
          annotate = service->SubmitAnnotate(std::move(*table)).get();
        }
        ScopedSpan span(rec, "serve.render", id);
        serve::RenderAnnotateResponse(annotate, &catalog);
        break;
      }
      default:
        out.error = "not a request the benchmark sends";
        return out;
    }
  }
  out.latency_ms = Millis(NowNs() - start);
  const Status& status = is_search ? search.status : annotate.status;
  const serve::RequestMetadata& meta = is_search ? search.meta : annotate.meta;
  out.ok = status.ok();
  if (!out.ok) out.error = status.ToString();
  out.queue_ms = meta.queue_millis;
  out.work_ms = meta.work_millis;
  if (is_search) {
    out.digest = DigestResults(search.results);
  } else if (annotation != nullptr) {
    *annotation = std::move(annotate.annotation);
  }
  return out;
}

struct Phase {
  std::vector<Outcome> outcomes;
  std::vector<TableAnnotation> annotations;  // annotate, per outcome
  double wall_s = 0.0;
  uint64_t cache_hits = 0;
  uint64_t cache_lookups = 0;
};

/// Sends workload input `input` and appends the outcome to `phase`.
void SendInput(serve::WebTabService* service, const Fixture& fx, bool search,
               int input, SpanRecorder* rec, uint32_t id, Phase* phase) {
  TableAnnotation annotation;
  Outcome o = Send(service, search ? fx.keys[input].line : fx.pool_lines[input],
                   rec, id, search ? nullptr : &annotation);
  o.input = input;
  phase->outcomes.push_back(std::move(o));
  if (!search) phase->annotations.push_back(std::move(annotation));
}

/// Closed loop on `service` for `seconds`, appended to `phase`: the next
/// request leaves when the previous response is rendered. Stops early
/// when an annotate stream has sent its whole pool.
void RunTimed(serve::WebTabService* service, const Fixture& fx, bool search,
              RequestStream* stream, double seconds, Phase* phase) {
  const serve::ResultCache::Stats before = service->stats().cache;
  const int64_t start = NowNs();
  const int64_t stop = start + static_cast<int64_t>(seconds * 1e9);
  while (NowNs() < stop) {
    const int input = stream->Next();
    if (input < 0) break;
    SendInput(service, fx, search, input, nullptr, 0, phase);
  }
  phase->wall_s += static_cast<double>(NowNs() - start) * 1e-9;
  const serve::ResultCache::Stats after = service->stats().cache;
  phase->cache_hits += after.hits - before.hits;
  phase->cache_lookups +=
      (after.hits + after.misses) - (before.hits + before.misses);
}

/// Sends `inputs` in order, untimed; request i carries span id i + 1.
Phase SendAll(serve::WebTabService* service, const Fixture& fx, bool search,
              const std::vector<int>& inputs, SpanRecorder* rec) {
  Phase phase;
  for (size_t i = 0; i < inputs.size(); ++i) {
    SendInput(service, fx, search, inputs[i], rec,
              static_cast<uint32_t>(i + 1), &phase);
  }
  return phase;
}

// ---------------------------------------------------------------------------
// Setup: the write path, annotating a corpus through serving a snapshot.

struct Deployment {
  std::unique_ptr<serve::SnapshotManager> manager;
  std::unique_ptr<serve::WebTabService> service;
  std::vector<TableAnnotation> corpus_annotations;
  double setup_s = 0.0;
  int64_t snapshot_bytes = 0;

  const serve::ServingSnapshot& snapshot() const {
    return *manager->Current().snapshot;
  }
};

/// Loads `path` into a fresh one-worker service and warms it up. Leaves
/// the calling thread on the serving CPU.
void StartService(Deployment* dep, const std::string& path,
                  const std::vector<std::string>& warmup, SpanRecorder* rec) {
  RunOnServingCpu();
  {
    ScopedSpan span(rec, "setup.snapshot_load", 0);
    dep->manager = std::make_unique<serve::SnapshotManager>();
    Result<uint64_t> loaded = dep->manager->Load(path);
    WEBTAB_CHECK(loaded.ok()) << loaded.status().ToString();
  }
  {
    ScopedSpan span(rec, "setup.service_start", 0);
    serve::ServiceOptions options;
    options.num_workers = 1;
    dep->service =
        std::make_unique<serve::WebTabService>(dep->manager.get(), options);
    dep->service->Start();
  }
  ScopedSpan span(rec, "setup.warmup", 0);
  for (const std::string& line : warmup) {
    Outcome o = Send(dep->service.get(), line, nullptr, 0, nullptr);
    WEBTAB_CHECK(o.ok) << "warm-up request failed: " << o.error;
  }
}

std::unique_ptr<Deployment> Setup(const Fixture& fx,
                                  const std::vector<Table>& corpus_tables,
                                  const std::string& path,
                                  const std::vector<std::string>& warmup,
                                  SpanRecorder* rec) {
  auto dep = std::make_unique<Deployment>();
  RunOnAllCpus();
  // The in-memory builds outlive the timed window so that freeing them
  // is not counted as setup.
  std::unique_ptr<LemmaIndex> index;
  std::unique_ptr<ClosureCache> closure;
  std::unique_ptr<CorpusIndex> corpus;
  const int64_t start = NowNs();
  {
    ScopedSpan root(rec, "setup", 0);
    {
      ScopedSpan span(rec, "setup.lemma_index", 0);
      index = std::make_unique<LemmaIndex>(&fx.world.catalog);
    }
    std::vector<AnnotatedTable> annotated;
    {
      ScopedSpan span(rec, "setup.corpus_annotate", 0);
      CorpusAnnotatorOptions options;
      options.num_threads = kCorpusThreads;
      annotated = AnnotateCorpusParallel(&fx.world.catalog, index.get(),
                                         options, corpus_tables);
    }
    {
      ScopedSpan span(rec, "setup.corpus_index", 0);
      closure = std::make_unique<ClosureCache>(&fx.world.catalog);
      corpus =
          std::make_unique<CorpusIndex>(std::move(annotated), closure.get());
    }
    {
      ScopedSpan span(rec, "setup.snapshot_write", 0);
      storage::SnapshotBuilder writer;
      writer.SetCatalog(&fx.world.catalog)
          .SetLemmaIndex(index.get())
          .SetCorpus(corpus.get());
      WEBTAB_CHECK_OK(writer.WriteToFile(path));
    }
    StartService(dep.get(), path, warmup, rec);
  }
  dep->setup_s = static_cast<double>(NowNs() - start) * 1e-9;
  for (int i = 0; i < static_cast<int>(corpus->num_tables()); ++i) {
    dep->corpus_annotations.push_back(corpus->table(i).annotation);
  }
  struct stat st;
  WEBTAB_CHECK(::stat(path.c_str(), &st) == 0);
  dep->snapshot_bytes = static_cast<int64_t>(st.st_size);
  return dep;
}

// ---------------------------------------------------------------------------
// Single-threaded references on an independent mapping of the snapshot.

const char* EngineSpan(EngineKind engine) {
  switch (engine) {
    case EngineKind::kBaseline:
      return "search.engine.baseline";
    case EngineKind::kType:
      return "search.engine.type";
    case EngineKind::kTypeRelation:
      return "search.engine.type_relation";
    case EngineKind::kJoin:
      return "search.engine.join";
  }
  return "search.engine";
}

/// A search request resolved against `catalog` and run by calling the
/// engine kernel directly, as the service's worker does: normalization,
/// then the engine over `corpus` with `topk` and the reused workspace.
/// With a recorder, both steps are spans of request `id`.
std::vector<SearchResult> RunQuery(const CatalogView& catalog,
                                   const CorpusView& corpus,
                                   const serve::WireRequest& wire,
                                   const TopKOptions& topk,
                                   SearchWorkspace* ws,
                                   SpanRecorder* rec = nullptr,
                                   uint32_t id = 0) {
  std::vector<SearchResult> out;
  if (wire.op == serve::WireRequest::Op::kJoin) {
    const JoinQuery query = serve::ResolveJoinQuery(wire.join, catalog);
    ScopedSpan span(rec, EngineSpan(EngineKind::kJoin), id);
    JoinSearch(corpus, query, topk, ws, &out);
    return out;
  }
  const SelectQuery query = serve::ResolveSelectQuery(wire.select, catalog);
  NormalizedSelectQuery normalized;
  {
    ScopedSpan span(rec, "search.normalize", id);
    normalized = NormalizeSelectQuery(query);
  }
  ScopedSpan span(rec, EngineSpan(wire.engine), id);
  switch (wire.engine) {
    case EngineKind::kBaseline:
      BaselineSearch(corpus, query, normalized, topk, ws, &out);
      break;
    case EngineKind::kType:
      TypeSearch(corpus, query, normalized, topk, ws, &out);
      break;
    default:
      TypeRelationSearch(corpus, query, normalized, topk, ws, &out);
      break;
  }
  return out;
}

/// Reference digest per search key, computed once per key.
class SearchReference {
 public:
  SearchReference(const storage::Snapshot* snapshot, const Fixture& fx)
      : snapshot_(snapshot), fx_(fx) {}

  uint64_t Digest(int key) {
    auto it = digests_.find(key);
    if (it != digests_.end()) return it->second;
    const serve::WireRequest wire = ParseLine(fx_.keys[key].line);
    const uint64_t d = DigestResults(RunQuery(*snapshot_->catalog(),
                                              *snapshot_->corpus(), wire,
                                              WireTopK(wire), &workspace_));
    digests_.emplace(key, d);
    return d;
  }

 private:
  const storage::Snapshot* snapshot_;
  const Fixture& fx_;
  SearchWorkspace workspace_;
  std::unordered_map<int, uint64_t> digests_;
};

Table ParseTable(const std::string& line) {
  Result<Table> table = serve::WireToTable(ParseLine(line).table);
  WEBTAB_CHECK(table.ok()) << table.status().ToString();
  return std::move(*table);
}

/// TableAnnotator::Annotate for each pool table in `inputs`, split over
/// kReferenceThreads independent annotators.
std::map<int, TableAnnotation> ReferenceAnnotations(
    const storage::Snapshot& snapshot, const Fixture& fx,
    const std::vector<int>& inputs) {
  std::vector<TableAnnotation> out(inputs.size());
  std::vector<std::thread> threads;
  for (int t = 0; t < kReferenceThreads; ++t) {
    threads.emplace_back([&, t] {
      Vocabulary vocab = snapshot.lemma_index()->CopyVocabulary();
      TableAnnotator annotator(snapshot.catalog(), snapshot.lemma_index(),
                               AnnotatorOptions(), &vocab);
      for (size_t i = t; i < inputs.size(); i += kReferenceThreads) {
        out[i] = annotator.Annotate(ParseTable(fx.pool_lines[inputs[i]]));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  std::map<int, TableAnnotation> by_input;
  for (size_t i = 0; i < inputs.size(); ++i) {
    by_input[inputs[i]] = std::move(out[i]);
  }
  return by_input;
}

/// The run's correctness ledger.
struct Verdict {
  int64_t attempted = 0;
  int64_t failed = 0;
  bool correct = true;
  std::vector<std::string> problems;

  void Fail(const std::string& what) {
    correct = false;
    if (problems.size() < 10) problems.push_back(what);
  }
};

/// Compares every response of `phase` with its reference.
void CheckPhase(const Phase& phase, const Fixture& fx, bool search,
                SearchReference* search_ref,
                const std::map<int, TableAnnotation>& annotate_ref,
                Verdict* verdict) {
  for (size_t i = 0; i < phase.outcomes.size(); ++i) {
    const Outcome& o = phase.outcomes[i];
    ++verdict->attempted;
    std::string wrong;
    if (!o.ok) {
      wrong = "request failed: " + o.error;
    } else if (search && o.digest != search_ref->Digest(o.input)) {
      wrong = "search response differs: " + fx.keys[o.input].line;
    } else if (!search && !SameAnnotation(phase.annotations[i],
                                          annotate_ref.at(o.input))) {
      wrong = "annotation differs: pool table " + std::to_string(o.input);
    }
    if (!wrong.empty()) {
      ++verdict->failed;
      verdict->Fail(wrong);
    }
  }
}

// ---------------------------------------------------------------------------
// Quality.

struct Quality {
  double entity_accuracy = 0.0, type_f1 = 0.0, relation_f1 = 0.0;
  double map_type_relation = 0.0, map_type = 0.0, map_baseline = 0.0;
};

/// Figure 6 (collective) scores of `annotations` against the gold labels.
void AnnotationQuality(const std::vector<const LabeledTable*>& gold,
                       const std::vector<const TableAnnotation*>& annotations,
                       Quality* q) {
  AnnotationEvaluator eval;
  for (size_t i = 0; i < gold.size(); ++i) eval.Add(*gold[i], *annotations[i]);
  q->entity_accuracy = eval.EntityAccuracy();
  q->type_f1 = eval.type_prf().F1();
  q->relation_f1 = eval.relation_prf().F1();
}

/// Figure 9: MAP over every select query of the key set (one per
/// grounded (relation, E2)), full rankings judged against the world's
/// hidden truth.
void SearchQuality(const storage::Snapshot& snapshot, const Fixture& fx,
                   Quality* q) {
  std::vector<double> ap_tr, ap_type, ap_base;
  SearchWorkspace ws;
  for (int key = 0; key < static_cast<int>(fx.keys.size()); ++key) {
    const SearchKey& k = fx.keys[key];
    if (k.engine != EngineKind::kTypeRelation) continue;
    std::unordered_set<EntityId> relevant;
    for (EntityId s : fx.world.TrueSubjectsOf(k.relation, k.entity)) {
      relevant.insert(s);
    }
    if (relevant.empty()) continue;
    serve::WireRequest wire = ParseLine(k.line);
    for (auto [engine, aps] :
         {std::pair{EngineKind::kTypeRelation, &ap_tr},
          std::pair{EngineKind::kType, &ap_type},
          std::pair{EngineKind::kBaseline, &ap_base}}) {
      wire.engine = engine;
      aps->push_back(JudgeAveragePrecision(
          RunQuery(*snapshot.catalog(), *snapshot.corpus(), wire,
                   TopKOptions(), &ws),
          relevant, fx.world.catalog));
    }
  }
  q->map_type_relation = MeanAveragePrecision(ap_tr);
  q->map_type = MeanAveragePrecision(ap_type);
  q->map_baseline = MeanAveragePrecision(ap_base);
}

// ---------------------------------------------------------------------------
// Decomposed passes (traced run only).

struct AnnotateCounts {
  int64_t tables = 0, cells = 0, columns = 0;
  int64_t distinct_cells = 0, probed_cells = 0;
  int64_t entity_candidates = 0, type_candidates = 0;
  int64_t relation_candidates = 0, relation_pairs = 0;
  int64_t factors = 0, bp_iterations = 0, bp_converged = 0;
  int64_t factor_updates = 0, factor_skips = 0;
};

/// The annotation pipeline stage by stage, on the per-worker state the
/// service builds for a generation: a private vocabulary copy and an
/// annotator whose closure cache is seeded from the snapshot's
/// precomputed prototype; candidate and BP workspaces reused across
/// tables as the annotator reuses its own.
class AnnotateDecomposer {
 public:
  explicit AnnotateDecomposer(const serve::ServingSnapshot& snapshot)
      : index_(snapshot.lemma_index()),
        vocab_(index_->CopyVocabulary()),
        annotator_(&snapshot.catalog(), index_, AnnotatorOptions(), &vocab_) {
    annotator_.closure()->SeedFrom(snapshot.closure_prototype());
    // The decode below is TableAnnotator's minus the optional
    // uniqueness re-decode, which the serving default leaves off.
    WEBTAB_CHECK(!annotator_.options().unique_column_constraint);
  }

  TableAnnotation Annotate(const Table& table, SpanRecorder* rec,
                           uint32_t id, AnnotateCounts* counts) {
    const AnnotatorOptions& options = annotator_.options();
    ScopedSpan root(rec, "annotate.table", id);
    TableCandidates candidates;
    {
      ScopedSpan span(rec, "annotate.candidates", id);
      candidates = GenerateCandidates(table, *index_, annotator_.closure(),
                                      options.candidates, &candidates_ws_);
    }
    std::optional<TableLabelSpace> space;
    std::optional<TableGraph> graph;
    {
      ScopedSpan span(rec, "annotate.graph_build", id);
      space = TableLabelSpace::Build(table, candidates);
      TableGraphOptions graph_options;
      graph_options.use_relations = options.use_relations;
      graph_options.factor_rep = options.factor_rep;
      graph = BuildTableGraph(table, *space, annotator_.features(),
                              options.weights, graph_options);
    }
    BpResult bp;
    {
      ScopedSpan span(rec, "annotate.bp", id);
      bp = RunBeliefPropagation(graph->graph, options.bp, &bp_ws_);
    }
    TableAnnotation annotation;
    {
      ScopedSpan span(rec, "annotate.decode", id);
      annotation = graph->DecodeAssignment(bp.assignment, *space);
    }
    if (counts != nullptr) Count(table, candidates, *graph, bp, counts);
    return annotation;
  }

 private:
  void Count(const Table& table, const TableCandidates& candidates,
             const TableGraph& graph, const BpResult& bp,
             AnnotateCounts* c) const {
    ++c->tables;
    c->cells += static_cast<int64_t>(table.rows()) * table.cols();
    c->columns += table.cols();
    for (int col = 0; col < table.cols(); ++col) {
      c->type_candidates +=
          static_cast<int64_t>(candidates.column_types[col].size());
      for (int r = 0; r < table.rows(); ++r) {
        c->entity_candidates +=
            static_cast<int64_t>(candidates.cells[r][col].size());
      }
      if (col < static_cast<int>(candidates_ws_.columns.size()) &&
          candidates_ws_.columns[col].num_distinct > 0) {
        c->distinct_cells += candidates_ws_.columns[col].num_distinct;
        c->probed_cells += table.rows();
      }
    }
    for (const auto& [pair, relations] : candidates.relations) {
      c->relation_candidates += static_cast<int64_t>(relations.size());
      ++c->relation_pairs;
    }
    c->factors += graph.graph.num_factors();
    c->bp_iterations += bp.iterations;
    c->bp_converged += bp.converged ? 1 : 0;
    c->factor_updates += bp.factor_updates;
    c->factor_skips += bp.factor_skips;
  }

  const LemmaIndexView* index_;
  Vocabulary vocab_;
  TableAnnotator annotator_;
  CandidateWorkspace candidates_ws_;
  BpWorkspace bp_ws_;
};

/// Annotates, stage by stage with spans, the first kDecomposedTables
/// timed tables (annotate) or the first kDecomposedCorpusTables corpus
/// tables (search), after warming up on the warm-up tables; each result
/// must equal TableAnnotator::Annotate's.
AnnotateCounts DecomposeAnnotation(
    const serve::ServingSnapshot& snapshot, const Fixture& fx, bool search,
    const std::vector<int>& sent, const std::vector<Table>& corpus_tables,
    const std::vector<TableAnnotation>& corpus_annotations,
    const std::map<int, TableAnnotation>& annotate_ref, SpanRecorder* rec,
    Verdict* verdict) {
  AnnotateDecomposer decomposer(snapshot);
  for (const std::string& line : fx.warmup_tables) {
    decomposer.Annotate(ParseTable(line), nullptr, 0, nullptr);
  }
  AnnotateCounts counts;
  uint32_t id = 1u << 30;
  if (search) {
    for (int i = 0; i < kDecomposedCorpusTables; ++i) {
      if (!SameAnnotation(
              decomposer.Annotate(corpus_tables[i], rec, id++, &counts),
              corpus_annotations[i])) {
        verdict->Fail("decomposed annotation differs: corpus table " +
                      std::to_string(i));
      }
    }
    return counts;
  }
  for (size_t i = 0; i < sent.size() && i < kDecomposedTables; ++i) {
    const int p = sent[i];
    if (!SameAnnotation(decomposer.Annotate(ParseTable(fx.pool_lines[p]), rec,
                                            id++, &counts),
                        annotate_ref.at(p))) {
      verdict->Fail("decomposed annotation differs: pool table " +
                    std::to_string(p));
    }
  }
  return counts;
}

struct SearchCounts {
  int64_t queries = 0, planned = 0, scored = 0, stopped_early = 0;
};

/// One request line through RunQuery on the serving snapshot, with the
/// workspace's counters added to `counts` (when non-null).
uint64_t DecomposeQuery(const serve::ServingSnapshot& snapshot,
                        const std::string& line, SearchWorkspace* ws,
                        SpanRecorder* rec, uint32_t id, SearchCounts* counts) {
  const serve::WireRequest wire = ParseLine(line);
  const uint64_t digest = DigestResults(RunQuery(
      snapshot.catalog(), *snapshot.corpus(), wire, WireTopK(wire), ws, rec,
      id));
  if (counts != nullptr) {
    ++counts->queries;
    counts->planned += ws->stats().tables_planned;
    counts->scored += ws->stats().tables_scored;
    counts->stopped_early += ws->stats().stopped_early ? 1 : 0;
  }
  return digest;
}

/// Runs, with spans, each distinct key of the timed stream once in order
/// of first use (search), or every key (annotate, which sends none),
/// after warming the workspace on the warm-up queries. On search each
/// result must equal the reference.
SearchCounts DecomposeSearches(const serve::ServingSnapshot& snapshot,
                               const Fixture& fx, bool search,
                               const std::vector<int>& sent,
                               const std::vector<std::string>& warmup,
                               SearchReference* search_ref, SpanRecorder* rec,
                               Verdict* verdict) {
  SearchWorkspace ws;
  for (const std::string& line : warmup) {
    if (line.find("\"op\":\"annotate\"") != std::string::npos) continue;
    DecomposeQuery(snapshot, line, &ws, nullptr, 0, nullptr);
  }
  std::vector<int> keys;
  if (search) {
    std::vector<bool> seen(fx.keys.size(), false);
    for (int k : sent) {
      if (!seen[k]) keys.push_back(k);
      seen[k] = true;
    }
  } else {
    for (int k = 0; k < static_cast<int>(fx.keys.size()); ++k) {
      keys.push_back(k);
    }
  }
  SearchCounts counts;
  uint32_t id = 1u << 31;
  for (int k : keys) {
    const uint64_t digest =
        DecomposeQuery(snapshot, fx.keys[k].line, &ws, rec, id++, &counts);
    if (search && digest != search_ref->Digest(k)) {
      verdict->Fail("decomposed search differs: " + fx.keys[k].line);
    }
  }
  return counts;
}

// ---------------------------------------------------------------------------
// Metrics.

using Metrics = std::map<std::string, double>;
using SamplesByName = std::map<std::string, std::vector<double>>;

const std::vector<double>& Samples(const SamplesByName& by_name,
                                   const char* name) {
  static const std::vector<double> kNone;
  auto it = by_name.find(name);
  return it == by_name.end() ? kNone : it->second;
}

double Require(std::optional<double> value, const char* what) {
  WEBTAB_CHECK(value.has_value())
      << what << ": too few samples for this percentile (raise --seconds)";
  return *value;
}

std::vector<double> Field(const std::vector<Outcome>& outcomes,
                          double Outcome::*field) {
  std::vector<double> v;
  v.reserve(outcomes.size());
  for (const Outcome& o : outcomes) v.push_back(o.*field);
  return v;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }
double Ratio(int64_t num, int64_t den) {
  return Ratio(static_cast<double>(num), static_cast<double>(den));
}

double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// Serve layer, per replayed request: protocol = parse + resolve + render
/// self time; hop = latency - protocol - queue - work.
void AddServeMetrics(const SpanRecorder& rec, const Phase& timed,
                     const Phase& replay, Metrics* m) {
  const std::vector<int64_t> self_ns = rec.SelfTimesNs();
  const size_t n = replay.outcomes.size();
  std::vector<double> protocol(n, 0.0), latency(n, 0.0);
  for (size_t i = 0; i < rec.spans().size(); ++i) {
    const Span& s = rec.spans()[i];
    if (s.request < 1 || s.request > n) continue;
    const size_t r = s.request - 1;
    const std::string_view name = s.name;
    if (name == "request") {
      latency[r] = Millis(s.end_ns - s.start_ns);
    } else if (name == "serve.parse" || name == "serve.resolve" ||
               name == "serve.render") {
      protocol[r] += Millis(self_ns[i]);
    }
  }
  std::vector<double> hop(n);
  for (size_t r = 0; r < n; ++r) {
    const Outcome& o = replay.outcomes[r];
    hop[r] = latency[r] - protocol[r] - o.queue_ms - o.work_ms;
  }
  // Queue waits come from RequestMetadata, which the service returns
  // untraced as well, so both passes feed the p99; so does the client
  // latency p99.
  std::vector<double> queue = Field(timed.outcomes, &Outcome::queue_ms);
  std::vector<double> both = Field(timed.outcomes, &Outcome::latency_ms);
  for (const Outcome& o : replay.outcomes) queue.push_back(o.queue_ms);
  both.insert(both.end(), latency.begin(), latency.end());
  (*m)["serve.protocol_ms"] = Require(Median(protocol), "protocol");
  (*m)["serve.queue_ms.p50"] = Require(Median(queue), "queue p50");
  (*m)["serve.queue_ms.p99"] = Require(NearestRank(queue, 99.0), "queue p99");
  (*m)["serve.work_ms.p50"] =
      Require(Median(Field(replay.outcomes, &Outcome::work_ms)), "work p50");
  (*m)["serve.hop_ms.p50"] = Require(Median(hop), "hop p50");
  (*m)["serve.cache_hit_ratio"] = Ratio(
      static_cast<double>(timed.cache_hits),
      static_cast<double>(timed.cache_lookups));
  (*m)["serve.latency_p99_ms"] =
      Require(NearestRank(both, 99.0), "latency p99");
  (*m)["bench.trace_overhead_ratio"] =
      Require(Median(latency), "traced p50") /
      Require(Median(Field(timed.outcomes, &Outcome::latency_ms)),
              "untraced p50");
  (*m)["bench.measured_requests"] = static_cast<double>(timed.outcomes.size());
}

void AddAnnotateMetrics(const SpanRecorder& rec, const AnnotateCounts& c,
                        Metrics* m, Verdict* verdict) {
  const SamplesByName self = rec.SelfMillisByName();
  const SamplesByName whole = rec.MillisByName();
  const double table_ms = Sum(Samples(whole, "annotate.table"));
  double covered = 0.0;
  for (const char* stage : {"candidates", "graph_build", "bp", "decode"}) {
    const std::string span = std::string("annotate.") + stage;
    const double stage_ms = Sum(Samples(whole, span.c_str()));
    covered += stage_ms;
    (*m)[span + "_ms"] = Require(Median(Samples(self, span.c_str())), stage);
    (*m)[std::string("annotate.share.") + stage] = Ratio(stage_ms, table_ms);
  }
  (*m)["annotate.stage_coverage"] = Ratio(covered, table_ms);
  if ((*m)["annotate.stage_coverage"] < 0.9) {
    verdict->Fail("annotate stage spans cover under 90% of table time");
  }
  (*m)["annotate.tables"] = static_cast<double>(c.tables);
  (*m)["annotate.cells"] = static_cast<double>(c.cells);
  (*m)["annotate.distinct_cell_ratio"] =
      Ratio(c.distinct_cells, c.probed_cells);
  (*m)["annotate.entity_candidates_per_cell"] =
      Ratio(c.entity_candidates, c.cells);
  (*m)["annotate.type_candidates_per_column"] =
      Ratio(c.type_candidates, c.columns);
  (*m)["annotate.relation_candidates_per_pair"] =
      Ratio(c.relation_candidates, c.relation_pairs);
  (*m)["annotate.graph_factors"] = Ratio(c.factors, c.tables);
  (*m)["annotate.bp_iterations"] = Ratio(c.bp_iterations, c.tables);
  (*m)["annotate.bp_converged_ratio"] = Ratio(c.bp_converged, c.tables);
  (*m)["annotate.bp_skip_ratio"] =
      Ratio(c.factor_skips, c.factor_updates + c.factor_skips);
}

void AddSearchMetrics(const SpanRecorder& rec, const SearchCounts& c,
                      const Quality& q, Metrics* m) {
  const SamplesByName self = rec.SelfMillisByName();
  (*m)["search.normalize_ms"] =
      Require(Median(Samples(self, "search.normalize")), "normalize");
  for (EngineKind engine : {EngineKind::kBaseline, EngineKind::kType,
                            EngineKind::kTypeRelation, EngineKind::kJoin}) {
    (*m)[std::string("search.engine_ms.") +
         std::string(serve::EngineKindName(engine))] =
        Require(Median(Samples(self, EngineSpan(engine))), EngineSpan(engine));
  }
  (*m)["search.queries"] = static_cast<double>(c.queries);
  (*m)["search.tables_planned"] = static_cast<double>(c.planned);
  (*m)["search.tables_scored"] = static_cast<double>(c.scored);
  (*m)["search.scored_ratio"] = Ratio(c.scored, c.planned);
  (*m)["search.stopped_early_ratio"] = Ratio(c.stopped_early, c.queries);
  (*m)["search.map.baseline"] = q.map_baseline;
  (*m)["search.map.type"] = q.map_type;
}

/// Per setup step, the median over the run's setups.
void AddSetupMetrics(const SpanRecorder& rec, int64_t snapshot_bytes,
                     Metrics* m) {
  const SamplesByName whole = rec.MillisByName();
  for (const char* step : {"lemma_index", "corpus_annotate", "corpus_index",
                           "snapshot_write", "snapshot_load", "warmup"}) {
    const std::string span = std::string("setup.") + step;
    (*m)[span + "_ms"] = Require(Median(Samples(whole, span.c_str())), step);
  }
  (*m)["storage.snapshot_bytes"] = static_cast<double>(snapshot_bytes);
}

// ---------------------------------------------------------------------------

int Run(const Args& args) {
  const bool search = args.workload == "search";
  std::cerr << "perfbench: workload=" << args.workload
            << " seed=" << args.seed << " seconds=" << args.seconds
            << " trace=" << args.trace << "\n";
  int64_t clock = NowNs();
  auto lap = [&clock](const char* what) {
    const int64_t now = NowNs();
    std::cerr << "  [" << what << " " << Millis(now - clock) / 1e3 << " s]\n";
    clock = now;
  };

  const Fixture fx = BuildFixture();
  std::vector<Table> corpus_tables;
  for (const LabeledTable& lt : fx.corpus) corpus_tables.push_back(lt.table);
  const std::vector<std::string> warmup = WarmupLines(fx, args.seed);
  lap("fixture");

  WEBTAB_CHECK(::mkdir(args.work_dir.c_str(), 0755) == 0 || errno == EEXIST)
      << "cannot create " << args.work_dir;
  const std::string snapshot_path =
      args.work_dir + "/webtab-" + std::to_string(::getpid()) + ".snap";
  SpanRecorder rec;
  SpanRecorder* const trace = args.trace ? &rec : nullptr;

  // Setup k serves the k-th slice of the timed phase, so that the phase
  // samples the machine across the whole span of the setups.
  RequestStream stream(fx, search, args.seed);
  Phase timed;
  std::vector<double> setup_times;
  std::unique_ptr<Deployment> dep;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    dep.reset();
    dep = Setup(fx, corpus_tables, snapshot_path, warmup, trace);
    setup_times.push_back(dep->setup_s);
    RunTimed(dep->service.get(), fx, search, &stream,
             args.seconds / kSetupReps, &timed);
    std::cerr << "  setup " << rep << ": " << dep->setup_s << " s, "
              << timed.outcomes.size() << " requests timed so far\n";
  }
  lap("setups and timed phase");
  std::vector<int> sent;
  for (const Outcome& o : timed.outcomes) sent.push_back(o.input);

  // The annotate quality set's tables the timed phase did not reach, sent
  // untimed to the last service.
  Phase completion;
  if (!search) {
    std::vector<bool> done(fx.pool.size(), false);
    for (int p : sent) done[p] = true;
    std::vector<int> rest;
    for (int p = 0; p < kQualityTables; ++p) {
      if (!done[p]) rest.push_back(p);
    }
    completion = SendAll(dep->service.get(), fx, false, rest, nullptr);
    lap("quality completion");
  }
  // The serving process's high-water mark, before the benchmark's own
  // reference and replay passes add theirs.
  const double peak_rss_mb = PeakRssMiB();

  // Traced replay of the timed inputs through a fresh service.
  Phase replay;
  std::unique_ptr<Deployment> traced;
  if (args.trace) {
    traced = std::make_unique<Deployment>();
    StartService(traced.get(), snapshot_path, warmup, nullptr);
    replay = SendAll(traced->service.get(), fx, search, sent, trace);
    lap("traced replay");
  }
  RunOnAllCpus();

  // Every response against a single-threaded reference.
  Result<storage::Snapshot> ref_snapshot =
      storage::Snapshot::Open(snapshot_path);
  WEBTAB_CHECK(ref_snapshot.ok()) << ref_snapshot.status().ToString();
  SearchReference search_ref(&*ref_snapshot, fx);
  std::map<int, TableAnnotation> annotate_ref;
  if (!search) {
    std::set<int> inputs(sent.begin(), sent.end());
    for (const Outcome& o : completion.outcomes) inputs.insert(o.input);
    annotate_ref = ReferenceAnnotations(
        *ref_snapshot, fx, std::vector<int>(inputs.begin(), inputs.end()));
  }
  Verdict verdict;
  for (const Phase* phase : {&timed, &completion, &replay}) {
    CheckPhase(*phase, fx, search, &search_ref, annotate_ref, &verdict);
  }
  lap("reference checks");

  // Quality, untimed, over responses that all checked out.
  Quality quality;
  if (verdict.correct) {
    std::vector<const LabeledTable*> gold;
    std::vector<const TableAnnotation*> predicted;
    if (search) {
      for (size_t i = 0; i < fx.corpus.size(); ++i) {
        gold.push_back(&fx.corpus[i]);
        predicted.push_back(&dep->corpus_annotations[i]);
      }
    } else {
      std::map<int, const TableAnnotation*> response;
      for (const Phase* phase : {&timed, &completion}) {
        for (size_t i = 0; i < phase->outcomes.size(); ++i) {
          response[phase->outcomes[i].input] = &phase->annotations[i];
        }
      }
      for (int p = 0; p < kQualityTables; ++p) {
        gold.push_back(&fx.pool[p]);
        predicted.push_back(response.at(p));
      }
    }
    AnnotationQuality(gold, predicted, &quality);
    SearchQuality(*ref_snapshot, fx, &quality);
    lap("quality");
  }

  Metrics values;
  if (!args.trace) {
    const std::vector<double> latencies =
        Field(timed.outcomes, &Outcome::latency_ms);
    values["setup_s"] = *Median(setup_times);
    values["throughput_per_s"] =
        static_cast<double>(timed.outcomes.size()) / timed.wall_s;
    values["latency_p50_ms"] = Require(Median(latencies), "latency p50");
    values["latency_p90_ms"] =
        Require(NearestRank(latencies, 90.0), "latency p90");
    values["peak_rss_mb"] = peak_rss_mb;
    values["success_rate"] = Ratio(verdict.attempted - verdict.failed,
                                   verdict.attempted);
    values["entity_accuracy"] = quality.entity_accuracy;
    values["type_f1"] = quality.type_f1;
    values["relation_f1"] = quality.relation_f1;
    values["search_map"] = quality.map_type_relation;
  } else {
    // Decomposed passes on the traced deployment's snapshot, after the
    // replay, on the CPU the idle worker served from.
    RunOnServingCpu();
    const serve::ServingSnapshot& snapshot = traced->snapshot();
    const AnnotateCounts annotate_counts = DecomposeAnnotation(
        snapshot, fx, search, sent, corpus_tables, dep->corpus_annotations,
        annotate_ref, trace, &verdict);
    lap("annotate decomposition");
    const SearchCounts search_counts = DecomposeSearches(
        snapshot, fx, search, sent, warmup, &search_ref, trace, &verdict);
    lap("search decomposition");
    AddServeMetrics(rec, timed, replay, &values);
    AddAnnotateMetrics(rec, annotate_counts, &values, &verdict);
    AddSearchMetrics(rec, search_counts, quality, &values);
    AddSetupMetrics(rec, dep->snapshot_bytes, &values);
    const std::string spans_path =
        args.work_dir + "/spans-" + args.workload + ".csv";
    if (rec.WriteCsv(spans_path)) {
      std::cerr << "  " << rec.spans().size() << " spans -> " << spans_path
                << "\n";
    } else {
      verdict.Fail("cannot write " + spans_path);
    }
  }

  traced.reset();
  dep.reset();
  std::remove(snapshot_path.c_str());

  const std::vector<MetricSpec>& specs =
      args.trace ? PerLayerMetrics() : EndToEndMetrics();
  for (const MetricSpec& spec : specs) {
    auto it = values.find(spec.name);
    if (it == values.end()) continue;
    std::fprintf(stderr, "  %-40s %14.6g %s\n", spec.name, it->second,
                 spec.unit);
  }
  std::cerr << "  requests attempted=" << verdict.attempted
            << " failed=" << verdict.failed
            << " timed=" << timed.outcomes.size() << " in " << timed.wall_s
            << " s\n";
  for (const std::string& p : verdict.problems) {
    std::cerr << "  FAIL " << p << "\n";
  }
  std::cout << RenderResultLine(verdict.correct, verdict.attempted,
                                verdict.failed, specs, values)
            << std::endl;
  return verdict.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::Run(perfbench::ParseArgs(argc, argv));
}
