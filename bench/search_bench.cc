// Times the table-at-a-time search kernel (sorted posting cursors +
// reusable SearchWorkspace + top-k upper-bound pruning) against the
// retained map/set reference engines (tests/reference_search.h) on an
// annotated synthetic corpus, per engine:
//
//   - reference full rank    (the pre-refactor per-query shape)
//   - kernel full rank       (byte-identical, CHECKed)
//   - kernel top-10, pruned  (identical prefix, CHECKed)
//
// Emits BENCH_search.json with per-engine QPS and p50 latency, a
// steady-state allocation count for the kernel path, and acceptance
// CHECKs: >= 2x geomean on the pruned top-k path vs the reference full
// rank, and zero steady-state allocations per query. The reference and
// the kernel are timed back to back on each query, and every gated
// figure is a median over in-bench repetitions, so one run of the
// bench holds bench_diff's gates.
//
// An ungated section then times the three select engines at the
// serving corpus size (800 tables, Figure 9's corpus) on serving-shaped
// queries, an E2 entity id together with its name, and reports the
// kernel's ms per query and the `search.match_support` stage's share,
// read from the production request trace.
//
//   ./search_bench --tables 240 --out BENCH_search.json
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <new>
#include <string>
#include <string_view>
#include <vector>

#include "annotate/corpus_annotator.h"
#include "bench_util.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "reference_search.h"
#include "search/baseline_search.h"
#include "search/corpus_index.h"
#include "search/join_search.h"
#include "search/search_workspace.h"
#include "search/type_relation_search.h"
#include "search/type_search.h"
#include "synth/corpus_generator.h"

// --- Global allocation counter (bench binary only) ------------------------
// Counts every operator-new so the "zero steady-state allocations in the
// query hot path" claim is measured, not asserted.
static std::atomic<uint64_t> g_allocations{0};

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
// Out of line: inlined into a caller that also inlines operator new,
// the free() reads to GCC as a mismatched allocation pair.
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

struct Timings {
  double reference_ms = 0.0;   // full rank, map/set engines
  double kernel_full_ms = 0.0; // full rank
  double kernel_topk_ms = 0.0; // k=10, pruning on
  double p50_reference_ms = 0.0;
  double p50_topk_ms = 0.0;
  /// Median over repetitions of one repetition's summed reference time
  /// over its summed kernel top-k time.
  double speedup = 0.0;
  int64_t stopped_early = 0;
  int64_t tables_planned = 0;
  int64_t tables_scored = 0;
};

double Median(std::vector<double>* samples) {
  if (samples->empty()) return 0.0;
  std::sort(samples->begin(), samples->end());
  return (*samples)[samples->size() / 2];
}

double Mean(const std::vector<double>& samples) {
  double sum = 0.0;
  for (double s : samples) sum += s;
  return samples.empty() ? 0.0 : sum / samples.size();
}

/// Times `reference(i)` and `kernel(i)` back to back on every query i,
/// `reps` times over the query list, so drift and machine state hit
/// both sides of the ratio alike. Appends per-call ms to the sample
/// vectors and returns the median over repetitions of the repetition's
/// summed reference time over its summed kernel time.
template <typename ReferenceFn, typename KernelFn>
double InterleavedSpeedup(int64_t reps, size_t num_queries,
                          ReferenceFn&& reference, KernelFn&& kernel,
                          std::vector<double>* reference_samples,
                          std::vector<double>* kernel_samples) {
  std::vector<double> ratios;
  for (int64_t rep = 0; rep < reps; ++rep) {
    double reference_sum = 0.0, kernel_sum = 0.0;
    for (size_t i = 0; i < num_queries; ++i) {
      WallTimer one;
      reference(i);
      const double reference_ms = one.ElapsedMillis();
      one.Restart();
      kernel(i);
      const double kernel_ms = one.ElapsedMillis();
      reference_samples->push_back(reference_ms);
      kernel_samples->push_back(kernel_ms);
      reference_sum += reference_ms;
      kernel_sum += kernel_ms;
    }
    ratios.push_back(kernel_sum > 0 ? reference_sum / kernel_sum : 0.0);
  }
  return Median(&ratios);
}

void CheckExact(const std::vector<SearchResult>& got,
                const std::vector<SearchResult>& want, const char* what) {
  WEBTAB_CHECK(got.size() == want.size()) << what << ": size mismatch";
  for (size_t i = 0; i < got.size(); ++i) {
    WEBTAB_CHECK(got[i].entity == want[i].entity &&
                 got[i].text == want[i].text &&
                 got[i].score == want[i].score)
        << what << ": result " << i << " differs";
  }
}

void CheckPrefix(const std::vector<SearchResult>& got,
                 const std::vector<SearchResult>& full, int k,
                 const char* what) {
  const size_t want = std::min(full.size(), static_cast<size_t>(k));
  WEBTAB_CHECK(got.size() == want) << what << ": prefix size mismatch";
  for (size_t i = 0; i < want; ++i) {
    // Identity: entity id when resolved, text when not (display text
    // of entity answers is best-effort under pruning; see query.h).
    WEBTAB_CHECK(got[i].entity == full[i].entity &&
                 (full[i].entity != kNa || got[i].text == full[i].text))
        << what << ": prefix " << i << " differs";
  }
}

}  // namespace

int main(int argc, char** argv) {
  int64_t seed = 42;
  int64_t num_tables = 240;
  int64_t reps = 15;
  int64_t top_k = 10;
  std::string out;
  FlagSet flags;
  flags.AddInt("seed", &seed, "world seed");
  flags.AddInt("tables", &num_tables, "web-table corpus size");
  flags.AddInt("reps", &reps, "timing repetitions");
  flags.AddInt("k", &top_k, "top-k for the pruned path");
  flags.AddString("out", &out, "JSON output path");
  WEBTAB_CHECK_OK(flags.Parse(argc, argv));

  World world = GenerateWorld(DefaultWorldSpec(seed));
  LemmaIndex index(&world.catalog);
  TableAnnotator annotator(&world.catalog, &index);
  CorpusSpec spec;
  spec.seed = seed + 17;
  spec.num_tables = static_cast<int>(num_tables);
  std::vector<Table> tables;
  for (const LabeledTable& lt : GenerateCorpus(world, spec)) {
    tables.push_back(lt.table);
  }
  std::cerr << "annotating " << tables.size() << " tables...\n";
  CorpusIndex corpus(AnnotateCorpus(&annotator, tables),
                     annotator.closure());

  // Query mix: three relation families, E2 sampled from the hidden
  // truth (the distribution the corpus rows are drawn from), half
  // grounded and half text-only.
  struct Family {
    RelationId rel;
    TypeId t1, t2;
    const char* rel_text;
    const char* t1_text;
    const char* t2_text;
  };
  const Family families[] = {
      {world.acted_in, world.actor, world.movie, "acted in", "actor",
       "movie"},
      {world.directed, world.movie, world.director, "directed by", "movie",
       "director"},
      {world.wrote, world.novelist, world.novel, "wrote", "author",
       "novel title"},
  };
  std::vector<SelectQuery> queries;
  for (const Family& f : families) {
    const auto& tuples = world.true_relations[f.rel].tuples;
    const size_t stride = std::max<size_t>(1, tuples.size() / 10);
    bool ground = true;
    for (size_t i = 0; i < tuples.size(); i += stride) {
      SelectQuery q;
      q.relation = f.rel;
      q.type1 = f.t1;
      q.type2 = f.t2;
      q.relation_text = f.rel_text;
      q.type1_text = f.t1_text;
      q.type2_text = f.t2_text;
      // Grounded queries are entity-linked E2s with no string form (the
      // paper's relational query shape — the text form is the fallback
      // when linking fails), text-only queries the opposite.
      q.e2 = ground ? tuples[i].second : kNa;
      if (!ground) {
        q.e2_text =
            std::string(world.catalog.EntityName(tuples[i].second));
      }
      queries.push_back(q);
      ground = !ground;
    }
  }
  std::cerr << queries.size() << " select queries\n";

  struct EngineCase {
    const char* name;
    std::vector<SearchResult> (*reference)(const CorpusView&,
                                           const SelectQuery&,
                                           const NormalizedSelectQuery&);
    void (*kernel)(const CorpusView&, const SelectQuery&,
                   const NormalizedSelectQuery&, const TopKOptions&,
                   SearchWorkspace*, std::vector<SearchResult>*);
  };
  const EngineCase engines[] = {
      {"baseline", &testing_util::ReferenceBaselineSearch, &BaselineSearch},
      {"type", &testing_util::ReferenceTypeSearch, &TypeSearch},
      {"type_relation", &testing_util::ReferenceTypeRelationSearch,
       &TypeRelationSearch},
  };

  std::vector<NormalizedSelectQuery> normalized;
  for (const SelectQuery& q : queries) {
    normalized.push_back(NormalizeSelectQuery(q));
  }
  const TopKOptions full_rank{};
  const TopKOptions topk{static_cast<int>(top_k), true};

  SearchWorkspace ws;
  std::vector<SearchResult> got;
  Timings timings[3];
  uint64_t steady_allocs = 0;
  uint64_t steady_queries = 0;

  for (int e = 0; e < 3; ++e) {
    const EngineCase& engine = engines[e];
    Timings& t = timings[e];

    // Correctness first: kernel full rank byte-identical, top-k prefix
    // identical, on every query.
    for (size_t i = 0; i < queries.size(); ++i) {
      std::vector<SearchResult> want =
          engine.reference(corpus, queries[i], normalized[i]);
      engine.kernel(corpus, queries[i], normalized[i], full_rank, &ws,
                    &got);
      CheckExact(got, want, engine.name);
      engine.kernel(corpus, queries[i], normalized[i], topk, &ws, &got);
      CheckPrefix(got, want, static_cast<int>(top_k), engine.name);
      t.stopped_early += ws.stats().stopped_early ? 1 : 0;
      t.tables_planned += ws.stats().tables_planned;
      t.tables_scored += ws.stats().tables_scored;
    }

    // Timing. The kernel loops reuse one workspace and one output
    // vector — the serving worker's steady state.
    std::vector<double> ref_samples, topk_samples;
    t.speedup = InterleavedSpeedup(
        reps, queries.size(),
        [&](size_t i) { engine.reference(corpus, queries[i], normalized[i]); },
        [&](size_t i) {
          engine.kernel(corpus, queries[i], normalized[i], topk, &ws, &got);
        },
        &ref_samples, &topk_samples);
    t.reference_ms = Mean(ref_samples);
    t.p50_reference_ms = Median(&ref_samples);
    t.kernel_topk_ms = Mean(topk_samples);
    t.p50_topk_ms = Median(&topk_samples);

    WallTimer timer;
    for (int64_t rep = 0; rep < reps; ++rep) {
      for (size_t i = 0; i < queries.size(); ++i) {
        engine.kernel(corpus, queries[i], normalized[i], full_rank, &ws,
                      &got);
      }
    }
    t.kernel_full_ms = timer.ElapsedMillis() /
                       static_cast<double>(reps * queries.size());

    // Warmup passes so every arena/table/string reaches its peak
    // capacity (the recycled result strings converge over a sweep),
    // then measure allocations across a full steady-state sweep.
    for (int warm = 0; warm < 2; ++warm) {
      for (size_t i = 0; i < queries.size(); ++i) {
        engine.kernel(corpus, queries[i], normalized[i], topk, &ws, &got);
      }
    }
    // The measured sweep runs with a request trace attached: span and
    // trace-counter recording uses fixed inline storage, so the
    // zero-allocation contract must hold with tracing on.
    obs::RequestTrace trace;
    obs::ScopedTraceAttach attach(&trace);
    const uint64_t allocs_before =
        g_allocations.load(std::memory_order_relaxed);
    for (size_t i = 0; i < queries.size(); ++i) {
      trace.Clear();
      engine.kernel(corpus, queries[i], normalized[i], topk, &ws, &got);
    }
    steady_allocs += g_allocations.load(std::memory_order_relaxed) -
                     allocs_before;
    steady_queries += queries.size();
  }

  // Join engine: reference vs kernel (report-only; the join's work is
  // already bounded by max_join_entities).
  std::vector<JoinQuery> join_queries;
  {
    const auto& tuples = world.true_relations[world.directed].tuples;
    const size_t stride = std::max<size_t>(1, tuples.size() / 8);
    for (size_t i = 0; i < tuples.size(); i += stride) {
      // "Actors in movies directed by D": acted_in(movie, actor) and
      // directed(movie, director).
      JoinQuery jq;
      jq.r1 = world.acted_in;
      jq.e1_is_subject = false;
      jq.r2 = world.directed;
      jq.e2_is_subject = true;
      jq.e3 = tuples[i].second;
      jq.e3_text =
          std::string(world.catalog.EntityName(tuples[i].second));
      join_queries.push_back(jq);
    }
  }
  double join_reference_ms = 0.0, join_kernel_ms = 0.0;
  double join_p50_ms = 0.0, join_speedup = 0.0;
  Timings join_t;
  {
    for (const JoinQuery& jq : join_queries) {
      std::vector<SearchResult> want =
          testing_util::ReferenceJoinSearch(corpus, jq);
      JoinSearch(corpus, jq, full_rank, &ws, &got);
      CheckExact(got, want, "join");
      JoinSearch(corpus, jq, topk, &ws, &got);
      CheckPrefix(got, want, static_cast<int>(top_k), "join");
      join_t.stopped_early += ws.stats().stopped_early ? 1 : 0;
      join_t.tables_planned += ws.stats().tables_planned;
      join_t.tables_scored += ws.stats().tables_scored;
    }
    std::vector<double> reference_samples, join_samples;
    join_speedup = InterleavedSpeedup(
        reps, join_queries.size(),
        [&](size_t i) {
          testing_util::ReferenceJoinSearch(corpus, join_queries[i]);
        },
        [&](size_t i) { JoinSearch(corpus, join_queries[i], topk, &ws, &got); },
        &reference_samples, &join_samples);
    join_reference_ms = Mean(reference_samples);
    join_kernel_ms = Mean(join_samples);
    join_p50_ms = Median(&join_samples);
  }

  const double allocs_per_query =
      steady_queries > 0
          ? static_cast<double>(steady_allocs) /
                static_cast<double>(steady_queries)
          : 0.0;

  // --- Instrumentation overhead (paired configs) ---
  // The same pruned top-k query mix over every select engine, timed per
  // query under three configurations:
  //   on:      metrics enabled, explain off  (the serving default)
  //   off:     metrics disabled, explain off (the kill-switch floor)
  //   explain: metrics enabled, explain on   (the debugging mode)
  // One call takes 5-50 us, too short to time alone against timer and
  // scheduler jitter, so a sample is the mean of kOverheadBatch
  // back-to-back calls of one query, taken after one untimed call that
  // absorbs the cost of switching configuration. Each round samples the
  // three configurations on the same query back to back, in an order
  // that rotates per round, so three consecutive rounds (one cycle)
  // give every configuration every slot once and slot effects cancel
  // within a cycle. Per query, the extra cost and the cost of the
  // lighter configuration are each the median over cycles of their
  // cycle sums, so a stall inflates one cycle of one query and moves
  // nothing; summed over queries, their ratio gives the overhead
  // fraction.
  constexpr int kOverheadCycles = 11;
  constexpr int kOverheadRounds = 3 * kOverheadCycles;
  constexpr int kOverheadBatch = 8;
  const size_t overhead_items = 3 * queries.size();
  // samples[config][item * kOverheadRounds + round]: ms per call.
  std::vector<double> samples[3];
  for (std::vector<double>& s : samples) {
    s.assign(overhead_items * kOverheadRounds, 0.0);
  }
  for (int round = 0; round < kOverheadRounds; ++round) {
    for (size_t item = 0; item < overhead_items; ++item) {
      const EngineCase& engine = engines[item / queries.size()];
      const size_t i = item % queries.size();
      for (int slot = 0; slot < 3; ++slot) {
        const int config = (slot + round) % 3;
        obs::MetricsRegistry::SetEnabled(config != 1);
        ws.EnableExplain(config == 2);
        engine.kernel(corpus, queries[i], normalized[i], topk, &ws, &got);
        WallTimer batch;
        for (int b = 0; b < kOverheadBatch; ++b) {
          engine.kernel(corpus, queries[i], normalized[i], topk, &ws, &got);
        }
        samples[config][item * kOverheadRounds + round] =
            batch.ElapsedMillis() / kOverheadBatch;
      }
    }
  }
  obs::MetricsRegistry::SetEnabled(true);
  ws.EnableExplain(false);
  // Extra cost of config `with` over config `without`, as a fraction of
  // the latter.
  auto paired_overhead = [&](int with, int without) {
    std::vector<double> diff(kOverheadCycles), cost(kOverheadCycles);
    double extra = 0.0, base = 0.0;
    for (size_t item = 0; item < overhead_items; ++item) {
      for (int cycle = 0; cycle < kOverheadCycles; ++cycle) {
        diff[cycle] = cost[cycle] = 0.0;
        for (int r = 3 * cycle; r < 3 * cycle + 3; ++r) {
          const size_t at = item * kOverheadRounds + r;
          diff[cycle] += samples[with][at] - samples[without][at];
          cost[cycle] += samples[without][at];
        }
      }
      extra += Median(&diff);
      base += Median(&cost);
    }
    return base > 0 ? extra / base : 0.0;
  };
  // The raw fraction can dip slightly below zero when the paired
  // medians still carry residual noise — recording counters cannot make
  // the kernel faster, so a negative value is measurement error, not a
  // speedup. Report the clamped fraction (what the overhead actually
  // is, down to the noise floor) alongside the raw value (how tight the
  // pairing was); a raw value far below zero fails the acceptance check
  // instead of silently laundering a broken measurement through the
  // clamp.
  const double metrics_overhead_raw = paired_overhead(0, 1);
  const double metrics_overhead = std::max(0.0, metrics_overhead_raw);
  const double explain_overhead_raw = paired_overhead(2, 0);
  const double explain_overhead = std::max(0.0, explain_overhead_raw);

  // --- Serving size (ungated) ---
  // Figure 9's 800-table corpus, the one the repository benchmark
  // serves, with serving-shaped queries: the serving layer resolves E2's
  // name to its entity id and keeps the name, so each query carries
  // both. Kernel calls run with a request trace attached, as every
  // served request does, and the trace's `search.match_support` stage
  // gives that step's share.
  constexpr int kServingTables = 800;
  WallTimer serving_wall;
  CorpusSpec serving_spec;
  serving_spec.seed = seed + 9;
  serving_spec.num_tables = kServingTables;
  std::vector<Table> serving_tables;
  for (const LabeledTable& lt : GenerateCorpus(world, serving_spec)) {
    serving_tables.push_back(lt.table);
  }
  std::cerr << "annotating " << serving_tables.size()
            << " serving-size tables...\n";
  CorpusIndex serving_corpus(AnnotateCorpus(&annotator, serving_tables),
                             annotator.closure());
  std::vector<SelectQuery> serving_queries;
  for (const Family& f : families) {
    const auto& tuples = world.true_relations[f.rel].tuples;
    const size_t stride = std::max<size_t>(1, tuples.size() / 10);
    for (size_t i = 0; i < tuples.size(); i += stride) {
      SelectQuery q;
      q.relation = f.rel;
      q.type1 = f.t1;
      q.type2 = f.t2;
      q.relation_text = f.rel_text;
      q.type1_text = f.t1_text;
      q.type2_text = f.t2_text;
      q.e2 = tuples[i].second;
      q.e2_text = std::string(world.catalog.EntityName(tuples[i].second));
      serving_queries.push_back(q);
    }
  }
  std::vector<NormalizedSelectQuery> serving_normalized;
  for (const SelectQuery& q : serving_queries) {
    serving_normalized.push_back(NormalizeSelectQuery(q));
  }
  struct ServingTimings {
    double kernel_topk_ms = 0.0;
    int64_t samples = 0;
    double match_support_ms = 0.0;
    double tables_planned = 0.0;
  };
  ServingTimings serving[3];
  for (int e = 0; e < 3; ++e) {
    const EngineCase& engine = engines[e];
    for (size_t i = 0; i < serving_queries.size(); ++i) {
      std::vector<SearchResult> want = engine.reference(
          serving_corpus, serving_queries[i], serving_normalized[i]);
      engine.kernel(serving_corpus, serving_queries[i],
                    serving_normalized[i], topk, &ws, &got);
      CheckPrefix(got, want, static_cast<int>(top_k), engine.name);
    }
    obs::RequestTrace trace;
    obs::ScopedTraceAttach attach(&trace);
    std::vector<double> kernel_samples;
    int64_t planned = 0;
    for (int64_t rep = 0; rep < reps; ++rep) {
      for (size_t i = 0; i < serving_queries.size(); ++i) {
        WallTimer one;
        engine.kernel(serving_corpus, serving_queries[i],
                      serving_normalized[i], topk, &ws, &got);
        kernel_samples.push_back(one.ElapsedMillis());
        planned += ws.stats().tables_planned;
      }
    }
    ServingTimings& st = serving[e];
    st.kernel_topk_ms = Mean(kernel_samples);
    st.samples = static_cast<int64_t>(kernel_samples.size());
    st.tables_planned = static_cast<double>(planned) / st.samples;
    for (int i = 0; i < trace.num_stages(); ++i) {
      if (std::string_view(trace.stage(i).name) == "search.match_support") {
        st.match_support_ms = trace.stage(i).ms / st.samples;
      }
    }
  }
  const double serving_wall_s = serving_wall.ElapsedSeconds();

  // snprintf returns the would-be length: check after every append so
  // growth of the report trips a loud failure instead of writing past
  // the buffer on the next call.
  char buf[8192];
  auto check_fits = [&](int n) {
    WEBTAB_CHECK(n >= 0 && n < static_cast<int>(sizeof(buf)))
        << "bench JSON exceeds buffer";
  };
  int n = std::snprintf(
      buf, sizeof(buf),
      "{\n"
      "  \"bench\": \"search\",\n"
      "  \"tables\": %d,\n"
      "  \"queries\": %d,\n"
      "  \"top_k\": %d,\n"
      "  \"steady_state_allocations_per_query\": %.3f,\n"
      "  \"metrics_overhead_fraction\": %.4f,\n"
      "  \"metrics_overhead_raw_fraction\": %.4f,\n"
      "  \"explain_overhead_fraction\": %.4f,\n"
      "  \"explain_overhead_raw_fraction\": %.4f,\n",
      static_cast<int>(num_tables), static_cast<int>(queries.size()),
      static_cast<int>(top_k), allocs_per_query, metrics_overhead,
      metrics_overhead_raw, explain_overhead, explain_overhead_raw);
  check_fits(n);
  for (int e = 0; e < 3; ++e) {
    const Timings& t = timings[e];
    n += std::snprintf(
        buf + n, sizeof(buf) - n,
        "  \"%s\": {\n"
        "    \"reference_full_ms_per_query\": %.4f,\n"
        "    \"reference_full_p50_ms\": %.4f,\n"
        "    \"reference_full_qps\": %.1f,\n"
        "    \"kernel_full_ms_per_query\": %.4f,\n"
        "    \"kernel_top%d_ms_per_query\": %.4f,\n"
        "    \"kernel_top%d_p50_ms\": %.4f,\n"
        "    \"kernel_top%d_qps\": %.1f,\n"
        "    \"speedup_top%d_vs_reference\": %.2f,\n"
        "    \"prune_stops\": %lld,\n"
        "    \"tables_scored\": %lld,\n"
        "    \"tables_planned\": %lld\n"
        "  },\n",
        engines[e].name, t.reference_ms, t.p50_reference_ms,
        t.reference_ms > 0 ? 1000.0 / t.reference_ms : 0.0,
        t.kernel_full_ms,
        static_cast<int>(top_k), t.kernel_topk_ms,
        static_cast<int>(top_k), t.p50_topk_ms, static_cast<int>(top_k),
        t.kernel_topk_ms > 0 ? 1000.0 / t.kernel_topk_ms : 0.0,
        static_cast<int>(top_k), t.speedup,
        static_cast<long long>(t.stopped_early),
        static_cast<long long>(t.tables_scored),
        static_cast<long long>(t.tables_planned));
    check_fits(n);
  }
  n += std::snprintf(buf + n, sizeof(buf) - n,
                     "  \"serving_size\": {\n"
                     "    \"tables\": %d,\n"
                     "    \"queries\": %d,\n"
                     "    \"wall_s\": %.2f,\n",
                     kServingTables,
                     static_cast<int>(serving_queries.size()),
                     serving_wall_s);
  check_fits(n);
  for (int e = 0; e < 3; ++e) {
    const ServingTimings& st = serving[e];
    n += std::snprintf(buf + n, sizeof(buf) - n,
                       "    \"%s\": {\n"
                       "      \"kernel_top%d_ms_per_query\": %.4f,\n"
                       "      \"samples\": %lld,\n"
                       "      \"match_support_ms_per_query\": %.4f,\n"
                       "      \"tables_planned_per_query\": %.1f\n"
                       "    }%s\n",
                       engines[e].name, static_cast<int>(top_k),
                       st.kernel_topk_ms, static_cast<long long>(st.samples),
                       st.match_support_ms, st.tables_planned,
                       e < 2 ? "," : "");
    check_fits(n);
  }
  n += std::snprintf(buf + n, sizeof(buf) - n,
                     "  },\n"
                     "  \"join\": {\n"
                     "    \"reference_full_ms_per_query\": %.4f,\n"
                     "    \"kernel_top%d_ms_per_query\": %.4f,\n"
                     "    \"kernel_top%d_p50_ms\": %.4f,\n"
                     "    \"kernel_top%d_qps\": %.1f,\n"
                     "    \"speedup\": %.2f,\n"
                     "    \"prune_stops\": %lld,\n"
                     "    \"tables_scored\": %lld,\n"
                     "    \"tables_planned\": %lld\n"
                     "  }\n"
                     "}\n",
                     join_reference_ms, static_cast<int>(top_k),
                     join_kernel_ms, static_cast<int>(top_k), join_p50_ms,
                     static_cast<int>(top_k),
                     join_kernel_ms > 0 ? 1000.0 / join_kernel_ms : 0.0,
                     join_speedup,
                     static_cast<long long>(join_t.stopped_early),
                     static_cast<long long>(join_t.tables_scored),
                     static_cast<long long>(join_t.tables_planned));
  check_fits(n);
  std::cout << buf;
  if (!out.empty()) {
    std::ofstream f(out);
    f << buf;
    std::cout << "wrote " << out << "\n";
  }

  // Acceptance: the pruned top-k kernel path must at least halve
  // per-query time vs the pre-refactor reference, with zero
  // steady-state allocations in the hot path. Gated on the geometric
  // mean across the three select engines (per-engine figures are
  // reported above): per-engine margins vary with corpus scale and
  // runner speed, but the aggregate constant-factor win (cursors, flat
  // accumulators, memoized text matching) must hold everywhere.
  double geomean = 1.0;
  for (int e = 0; e < 3; ++e) geomean *= timings[e].speedup;
  geomean = std::cbrt(geomean);
  WEBTAB_CHECK(geomean >= 2.0)
      << "select-engine top-k speedup geomean " << geomean << " < 2x";
  WEBTAB_CHECK(allocs_per_query == 0.0)
      << "kernel hot path allocated " << allocs_per_query
      << " times per query at steady state (tracing attached)";
  // Observability acceptance: the record path (per-query counters, no
  // trace attached) costs <= 2% of the hot kernel sweep.
  WEBTAB_CHECK(metrics_overhead <= 0.02)
      << "metrics record path cost " << metrics_overhead * 100.0
      << "% of the pruned top-k sweep (paired-median ratio)";
  // A raw fraction far below zero means the paired timings diverged (the
  // two configurations did not see comparable machine conditions) and
  // the clamped figure above cannot be trusted.
  WEBTAB_CHECK(metrics_overhead_raw >= -0.05)
      << "overhead pairs diverged: raw metrics overhead "
      << metrics_overhead_raw * 100.0 << "% < -5% is beyond noise";
  WEBTAB_CHECK(explain_overhead_raw >= -0.05)
      << "overhead pairs diverged: raw explain overhead "
      << explain_overhead_raw * 100.0 << "% < -5% is beyond noise";
  // The match-support bounds must make the top-k prune actually fire: some
  // queries stop early, and across the workload each select engine
  // scores under 20% of the tables its plan admits (the rest are
  // eliminated by zero bounds, the suffix-bound break, or the gap
  // stop — all exact, as the prefix checks above prove).
  for (int e = 0; e < 3; ++e) {
    const Timings& t = timings[e];
    WEBTAB_CHECK(t.stopped_early > 0)
        << engines[e].name << ": pruning never stopped a scan early";
    WEBTAB_CHECK(t.tables_scored < 0.2 * t.tables_planned)
        << engines[e].name << ": scanned " << t.tables_scored << "/"
        << t.tables_planned << " planned tables (>= 20%)";
  }
  return 0;
}
