// Measures AnnotateCorpusParallel wall-clock scaling across worker
// threads (the ROADMAP called the thread pool's speedup unverified).
// Annotates the same synthetic corpus at 1/2/4 threads, asserts the
// annotations are identical regardless of thread count (tables are
// independent; output order and labels must not depend on scheduling),
// and emits BENCH_annotate_parallel.json with the scaling curve, the
// per-worker warm-up and the heap allocations per annotated table.
//
// Timing: `--reps` interleaved cycles, each timing one full corpus call
// per thread count; a cycle's speedup is its 1-thread wall over its
// N-thread wall, and the gated speedup_Nthreads is the median over
// cycles. Interleaving puts every configuration under the same machine
// drift, and a cycle starts at a rotating configuration, so no slot is
// always first. Every call builds fresh workers, as a batch job does.
//
// Warm-up: a fresh worker annotating its first share of the corpus
// (tables / 4) pays for caches a warmed worker already holds; the gap to
// a second pass over the same tables is `worker_warmup_ms` (median over
// reps). It is paid once per worker, so it caps speedup_4threads as
// per-table work gets cheaper.
//
// Allocations: a warmed TableAnnotator annotates the corpus once more
// while a replacement operator new counts; `allocations_per_table` is
// the mean, CHECKed against kMaxAllocationsPerTable.
//
// Acceptance: on a machine with >= 4 hardware threads, 4 workers must
// cut corpus wall-clock by >= 1.7x vs 1 worker. On smaller machines the
// speedup keys are still emitted (bench_diff treats missing keys as a
// schema regression) with "multicore": false recording why the CHECK
// was skipped.
//
//   ./corpus_annotate_bench --tables 120 --out BENCH_annotate_parallel.json
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "annotate/corpus_annotator.h"
#include "bench_util.h"
#include "common/timer.h"
#include "synth/corpus_generator.h"

// --- Global allocation counter (bench binary only) ------------------------
static std::atomic<uint64_t> g_allocations{0};

// Out of line, like the deletes below: GCC otherwise pairs the inlined
// malloc() with a sized delete and warns -Wmismatched-new-delete.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

using namespace webtab;         // NOLINT(build/namespaces)
using namespace webtab::bench;  // NOLINT(build/namespaces)

namespace {

/// Ceiling on the mean heap allocations per annotated table (steady
/// state, default options, the 120-table corpus CI runs). Before the
/// annotator rebuilt its candidates, label space and factor graph in
/// place, these tables cost 2,591 allocations each; the ceiling is a
/// third of that.
constexpr double kMaxAllocationsPerTable = 860.0;

bool SameAnnotation(const TableAnnotation& a, const TableAnnotation& b) {
  if (a.column_types != b.column_types) return false;
  if (a.cell_entities != b.cell_entities) return false;
  if (a.relations.size() != b.relations.size()) return false;
  for (const auto& [pair, cand] : a.relations) {
    auto it = b.relations.find(pair);
    if (it == b.relations.end() ||
        it->second.relation != cand.relation ||
        it->second.swapped != cand.swapped) {
      return false;
    }
  }
  return true;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n == 0 ? 0.0 : n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Wall ms of annotating `tables` in order with `annotator`.
double AnnotateMillis(TableAnnotator* annotator,
                      const std::vector<Table>& tables) {
  WallTimer timer;
  for (const Table& table : tables) annotator->Annotate(table);
  return timer.ElapsedMillis();
}

}  // namespace

int main(int argc, char** argv) {
  int64_t seed = 42;
  int64_t num_tables = 160;
  int64_t reps = 9;
  std::string out;
  FlagSet flags;
  flags.AddInt("seed", &seed, "world seed");
  flags.AddInt("tables", &num_tables, "web-table corpus size");
  flags.AddInt("reps", &reps, "interleaved timing cycles (median-of)");
  flags.AddString("out", &out, "JSON output path");
  WEBTAB_CHECK_OK(flags.Parse(argc, argv));
  WEBTAB_CHECK(reps >= 1) << "--reps must be at least 1";

  World world = GenerateWorld(DefaultWorldSpec(seed));
  LemmaIndex index(&world.catalog);
  CorpusSpec spec;
  spec.seed = seed + 23;
  spec.num_tables = static_cast<int>(num_tables);
  std::vector<Table> tables;
  for (const LabeledTable& lt : GenerateCorpus(world, spec)) {
    tables.push_back(lt.table);
  }
  std::cerr << "annotating " << tables.size() << " tables at 1/2/4 threads\n";

  const unsigned hardware_threads = std::thread::hardware_concurrency();
  const bool multicore = hardware_threads >= 4;

  // One full run per thread count for the determinism cross-check.
  constexpr int kConfigs = 3;
  const int thread_counts[kConfigs] = {1, 2, 4};
  std::vector<AnnotatedTable> reference;
  bool identical = true;
  for (int tc = 0; tc < kConfigs; ++tc) {
    CorpusAnnotatorOptions options;
    options.num_threads = thread_counts[tc];
    std::vector<AnnotatedTable> annotated =
        AnnotateCorpusParallel(&world.catalog, &index, options, tables);
    if (tc == 0) {
      reference = std::move(annotated);
      continue;
    }
    identical = identical && annotated.size() == reference.size();
    for (size_t i = 0; identical && i < annotated.size(); ++i) {
      identical = SameAnnotation(annotated[i].annotation,
                                 reference[i].annotation);
    }
    WEBTAB_CHECK(identical) << "annotations differ between 1 and "
                            << thread_counts[tc] << " threads";
  }

  // Interleaved timing cycles.
  std::vector<double> walls[kConfigs];
  std::vector<double> cpu_4threads;
  std::vector<double> ratio_2threads, ratio_4threads;
  for (int64_t rep = 0; rep < reps; ++rep) {
    double cycle[kConfigs] = {0, 0, 0};
    for (int slot = 0; slot < kConfigs; ++slot) {
      const int tc = static_cast<int>((rep + slot) % kConfigs);
      CorpusAnnotatorOptions options;
      options.num_threads = thread_counts[tc];
      CorpusTimingStats timing;
      WallTimer timer;
      AnnotateCorpusParallel(&world.catalog, &index, options, tables,
                             &timing);
      cycle[tc] = timer.ElapsedMillis();
      walls[tc].push_back(cycle[tc]);
      if (tc == 2) cpu_4threads.push_back(timing.total_seconds * 1000.0);
    }
    ratio_2threads.push_back(cycle[1] > 0 ? cycle[0] / cycle[1] : 0.0);
    ratio_4threads.push_back(cycle[2] > 0 ? cycle[0] / cycle[2] : 0.0);
  }
  double wall_ms[kConfigs];
  for (int tc = 0; tc < kConfigs; ++tc) {
    wall_ms[tc] = Median(walls[tc]);
    std::cerr << "  " << thread_counts[tc] << " threads: " << wall_ms[tc]
              << " ms wall (median of " << reps << ")\n";
  }
  const double speedup_2threads = Median(ratio_2threads);
  const double speedup_4threads = Median(ratio_4threads);

  // Per-worker warm-up over one worker's share of the corpus.
  const std::vector<Table> share(
      tables.begin(),
      tables.begin() + std::max<size_t>(1, tables.size() / 4));
  std::vector<double> warmups;
  for (int64_t rep = 0; rep < reps; ++rep) {
    Vocabulary vocab = index.CopyVocabulary();
    TableAnnotator annotator(&world.catalog, &index, AnnotatorOptions(),
                             &vocab);
    const double first = AnnotateMillis(&annotator, share);
    const double second = AnnotateMillis(&annotator, share);
    warmups.push_back(first - second);
  }
  const double worker_warmup_ms = Median(warmups);
  std::cerr << "  worker warm-up over " << share.size()
            << " tables: " << worker_warmup_ms << " ms\n";

  // Steady-state allocations per table.
  double allocations_per_table = 0.0;
  {
    Vocabulary vocab = index.CopyVocabulary();
    TableAnnotator annotator(&world.catalog, &index, AnnotatorOptions(),
                             &vocab);
    AnnotateMillis(&annotator, tables);
    const uint64_t before = g_allocations.load(std::memory_order_relaxed);
    AnnotateMillis(&annotator, tables);
    allocations_per_table =
        static_cast<double>(g_allocations.load(std::memory_order_relaxed) -
                            before) /
        static_cast<double>(tables.size());
  }
  std::cerr << "  allocations per table: " << allocations_per_table << "\n";

  char buf[2048];
  const int n = std::snprintf(
      buf, sizeof(buf),
      "{\n"
      "  \"bench\": \"annotate_parallel\",\n"
      "  \"tables\": %d,\n"
      "  \"reps\": %d,\n"
      "  \"hardware_threads\": %u,\n"
      "  \"multicore\": %s,\n"
      "  \"annotations_identical\": %s,\n"
      "  \"wall_ms_1thread\": %.1f,\n"
      "  \"wall_ms_2threads\": %.1f,\n"
      "  \"wall_ms_4threads\": %.1f,\n"
      "  \"cpu_ms_4threads\": %.1f,\n"
      "  \"speedup_2threads\": %.2f,\n"
      "  \"speedup_4threads\": %.2f,\n"
      "  \"worker_warmup_tables\": %d,\n"
      "  \"worker_warmup_ms\": %.1f,\n"
      "  \"allocations_per_table\": %.1f\n"
      "}\n",
      static_cast<int>(num_tables), static_cast<int>(reps), hardware_threads,
      multicore ? "true" : "false", identical ? "true" : "false",
      wall_ms[0], wall_ms[1], wall_ms[2], Median(cpu_4threads),
      speedup_2threads, speedup_4threads, static_cast<int>(share.size()),
      worker_warmup_ms, allocations_per_table);
  WEBTAB_CHECK(n >= 0 && n < static_cast<int>(sizeof(buf)))
      << "bench JSON exceeds buffer";
  std::cout << buf;
  if (!out.empty()) {
    std::ofstream f(out);
    f << buf;
    std::cout << "wrote " << out << "\n";
  }

  WEBTAB_CHECK(identical);
  WEBTAB_CHECK(allocations_per_table <= kMaxAllocationsPerTable)
      << "allocations per annotated table " << allocations_per_table
      << " > " << kMaxAllocationsPerTable;
  if (multicore) {
    WEBTAB_CHECK(speedup_4threads >= 1.7)
        << "corpus annotation speedup at 4 threads " << speedup_4threads
        << " < 1.7x on a " << hardware_threads << "-thread machine";
  }
  return 0;
}
