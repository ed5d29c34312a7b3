// Candidate-pipeline benchmark: per-table candidate-generation time
// (retired per-cell reference prober vs the column-major batched
// pipeline) and F1-scoring time (the direct similarity calls of
// tests/reference_features.h vs FeatureComputer's memoizing
// SimilarityScratch) on a repeated-value synthetic corpus —
// the countries/clubs regime where web tables repeat cell strings
// heavily. Emits BENCH_candidates.json with before/after numbers and
// CHECKs the ≥2x candidate-generation acceptance bar, bit-identical
// outputs between the compared paths, and a ≤2% metrics record-path
// overhead.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/logging.h"
#include "common/timer.h"
#include "index/candidates.h"
#include "index/lemma_index.h"
#include "model/features.h"
#include "obs/metrics.h"
#include "reference_candidates.h"
#include "reference_features.h"
#include "synth/corpus_generator.h"
#include "synth/world_generator.h"

using namespace webtab;  // NOLINT(build/namespaces)

namespace {

/// Re-emits `source` with `rows` rows cycled from a small distinct pool,
/// reproducing the repeated-value profile of web tables (countries,
/// clubs, languages): many rows, few distinct strings per column.
Table RepeatRows(const Table& source, int rows, int distinct_pool) {
  Table out(rows, source.cols());
  const int distinct =
      std::max(1, std::min(source.rows(), distinct_pool));
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < source.cols(); ++c) {
      out.set_cell(r, c, source.cell(r % distinct, c));
    }
  }
  if (source.has_headers()) {
    for (int c = 0; c < source.cols(); ++c) {
      out.set_header(c, source.header(c));
    }
  }
  out.set_context(source.context());
  return out;
}

double Median(std::vector<double>* samples) {
  if (samples->empty()) return 0.0;
  std::sort(samples->begin(), samples->end());
  return (*samples)[samples->size() / 2];
}

void CheckSameCandidates(const TableCandidates& a,
                         const TableCandidates& b) {
  WEBTAB_CHECK(a.cells == b.cells) << "cell candidates diverged";
  WEBTAB_CHECK(a.column_types == b.column_types) << "types diverged";
  WEBTAB_CHECK(a.relations == b.relations) << "relations diverged";
}

/// Sum of `phi1(cell text, entity)` over every (cell, candidate entity)
/// pair — the F1 hot loop of graph materialization, summed so the work
/// cannot be elided and the two paths can be checked for bit-equality.
template <typename Phi1Fn>
double ScoreAllF1(const std::vector<Table>& tables,
                  const std::vector<TableCandidates>& candidates,
                  Phi1Fn&& phi1) {
  double sum = 0.0;
  for (size_t i = 0; i < tables.size(); ++i) {
    const Table& table = tables[i];
    for (int r = 0; r < table.rows(); ++r) {
      for (int c = 0; c < table.cols(); ++c) {
        for (const LemmaHit& hit : candidates[i].cells[r][c]) {
          sum += phi1(table.cell(r, c), hit.id);
        }
      }
    }
  }
  return sum;
}

}  // namespace

int main(int argc, char** argv) {
  int64_t seed = 42;
  int64_t num_tables = 40;
  int64_t rows = 50;
  int64_t distinct_pool = 6;
  int64_t reps = 5;
  std::string out = "BENCH_candidates.json";
  FlagSet flags;
  flags.AddInt("seed", &seed, "world seed");
  flags.AddInt("tables", &num_tables, "number of tables");
  flags.AddInt("rows", &rows, "rows per repeated-value table");
  flags.AddInt("distinct_pool", &distinct_pool,
               "distinct source rows cycled per table");
  flags.AddInt("reps", &reps, "timing repetitions");
  flags.AddString("out", &out, "JSON output path (empty = stdout only)");
  WEBTAB_CHECK_OK(flags.Parse(argc, argv));

  WorldSpec wspec;
  wspec.seed = static_cast<uint64_t>(seed);
  World world = GenerateWorld(wspec);
  LemmaIndex index(&world.catalog);
  ClosureCache closure(&world.catalog);
  CandidateOptions options;

  CorpusSpec spec;
  spec.seed = static_cast<uint64_t>(seed) + 11;
  spec.num_tables = static_cast<int>(num_tables);
  spec.min_rows = 8;
  spec.max_rows = 16;
  spec.join_table_prob = 0.5;
  spec.numeric_col_prob = 0.2;
  std::vector<Table> tables;
  for (const LabeledTable& lt : GenerateCorpus(world, spec)) {
    tables.push_back(RepeatRows(lt.table, static_cast<int>(rows),
                                static_cast<int>(distinct_pool)));
  }
  int64_t total_cells = 0;
  for (const Table& t : tables) total_cells += t.rows() * t.cols();

  // --- Candidate generation: per-cell reference vs batched pipeline.
  // One warm-up pass apiece fills the shared closure cache and sizes the
  // workspace, so the timed reps compare steady states.
  CandidateWorkspace workspace;
  std::vector<TableCandidates> batched(tables.size());
  for (size_t i = 0; i < tables.size(); ++i) {
    TableCandidates reference = testing_util::ReferenceGenerateCandidates(
        tables[i], index, &closure, options);
    batched[i] =
        GenerateCandidates(tables[i], index, &closure, options, &workspace);
    CheckSameCandidates(reference, batched[i]);
  }

  WallTimer timer;
  for (int64_t rep = 0; rep < reps; ++rep) {
    for (const Table& table : tables) {
      testing_util::ReferenceGenerateCandidates(table, index, &closure,
                                                options);
    }
  }
  const double per_cell_ms =
      timer.ElapsedMillis() / static_cast<double>(reps * tables.size());

  timer.Restart();
  for (int64_t rep = 0; rep < reps; ++rep) {
    for (const Table& table : tables) {
      GenerateCandidates(table, index, &closure, options, &workspace);
    }
  }
  const double batched_ms =
      timer.ElapsedMillis() / static_cast<double>(reps * tables.size());
  const double candidate_speedup =
      batched_ms > 0 ? per_cell_ms / batched_ms : 0.0;

  // --- Metrics record-path overhead (enabled vs disabled) ---
  // The batched candidate sweep, timed per table with the registry
  // enabled and disabled. Each round times the two configurations on
  // the same table back to back, each after one untimed call that
  // absorbs the switch, in an order that alternates per round. The
  // later call of a round runs on a warmer table, so rounds 2k and
  // 2k+1 (one per order) form one sample whose mean paired difference
  // cancels that position effect. A stall inflates one side of one
  // pair, and drift is shared by both sides, so the per-table median of
  // those samples is robust to both; summed over tables and divided by
  // the summed median cost with the registry disabled, it gives the
  // overhead fraction.
  constexpr int kOverheadPairs = 11;  // odd: the median is one sample
  constexpr int kOverheadRounds = 2 * kOverheadPairs;
  // samples[enabled][table * kOverheadRounds + round]: ms per call.
  std::vector<double> samples[2];
  for (std::vector<double>& v : samples) {
    v.assign(tables.size() * kOverheadRounds, 0.0);
  }
  for (int round = 0; round < kOverheadRounds; ++round) {
    for (size_t i = 0; i < tables.size(); ++i) {
      for (int slot = 0; slot < 2; ++slot) {
        const int enabled = (slot + round) % 2;
        obs::MetricsRegistry::SetEnabled(enabled == 1);
        GenerateCandidates(tables[i], index, &closure, options, &workspace);
        WallTimer one;
        GenerateCandidates(tables[i], index, &closure, options, &workspace);
        samples[enabled][i * kOverheadRounds + round] = one.ElapsedMillis();
      }
    }
  }
  obs::MetricsRegistry::SetEnabled(true);
  double extra = 0.0, base = 0.0;
  std::vector<double> diff(kOverheadPairs), cost(kOverheadPairs);
  for (size_t i = 0; i < tables.size(); ++i) {
    for (int k = 0; k < kOverheadPairs; ++k) {
      const size_t a = i * kOverheadRounds + 2 * k;
      const size_t b = a + 1;
      diff[k] = (samples[1][a] - samples[0][a] + samples[1][b] -
                 samples[0][b]) / 2;
      cost[k] = (samples[0][a] + samples[0][b]) / 2;
    }
    extra += Median(&diff);
    base += Median(&cost);
  }
  const double metrics_overhead = base > 0 ? extra / base : 0.0;

  // --- F1 scoring: direct similarity calls vs SimilarityScratch.
  // The direct calls pay full cost every pass; a fresh computer's
  // scratch reps run at steady state after the first (warm-up) pass —
  // the profile annotation and training actually see. Both weight f1
  // the way Phi1Log does: w1 · f1, summed in index order.
  FeatureComputer memoized(&closure, index.vocabulary());
  const Weights weights = Weights::Default();
  auto direct_phi1 = [&](std::string_view text, EntityId e) {
    const std::array<double, kF1Size> f = testing_util::ReferenceF1(
        world.catalog, index.vocabulary(), text, e);
    double sum = 0.0;
    for (int k = 0; k < kF1Size; ++k) sum += weights.w1[k] * f[k];
    return sum;
  };
  auto scratch_phi1 = [&](std::string_view text, EntityId e) {
    return memoized.Phi1Log(weights, text, e);
  };

  const double plain_sum = ScoreAllF1(tables, batched, direct_phi1);
  timer.Restart();
  double check = 0.0;
  for (int64_t rep = 0; rep < reps; ++rep) {
    check = ScoreAllF1(tables, batched, direct_phi1);
  }
  const double f1_plain_ms =
      timer.ElapsedMillis() / static_cast<double>(reps * tables.size());
  WEBTAB_CHECK(check == plain_sum) << "unmemoized F1 scoring unstable";

  const double scratch_sum = ScoreAllF1(tables, batched, scratch_phi1);
  timer.Restart();
  for (int64_t rep = 0; rep < reps; ++rep) {
    check = ScoreAllF1(tables, batched, scratch_phi1);
  }
  const double f1_scratch_ms =
      timer.ElapsedMillis() / static_cast<double>(reps * tables.size());
  const double f1_speedup =
      f1_scratch_ms > 0 ? f1_plain_ms / f1_scratch_ms : 0.0;
  WEBTAB_CHECK(scratch_sum == plain_sum && check == plain_sum)
      << "similarity scratch changed F1 scores";

  char buf[2048];
  std::snprintf(
      buf, sizeof(buf),
      "{\n"
      "  \"bench\": \"candidates\",\n"
      "  \"tables\": %d,\n"
      "  \"rows_per_table\": %d,\n"
      "  \"distinct_pool\": %d,\n"
      "  \"total_cells\": %lld,\n"
      "  \"metrics_overhead_fraction\": %.4f,\n"
      "  \"candidate_generation\": {\n"
      "    \"per_cell_ms_per_table\": %.4f,\n"
      "    \"batched_ms_per_table\": %.4f,\n"
      "    \"speedup\": %.2f\n"
      "  },\n"
      "  \"f1_scoring\": {\n"
      "    \"unmemoized_ms_per_table\": %.4f,\n"
      "    \"scratch_ms_per_table\": %.4f,\n"
      "    \"speedup\": %.2f\n"
      "  }\n"
      "}\n",
      static_cast<int>(tables.size()), static_cast<int>(rows),
      static_cast<int>(distinct_pool),
      static_cast<long long>(total_cells), metrics_overhead, per_cell_ms,
      batched_ms, candidate_speedup, f1_plain_ms, f1_scratch_ms,
      f1_speedup);

  std::cout << buf;
  if (!out.empty()) {
    std::ofstream f(out);
    f << buf;
    std::cout << "wrote " << out << "\n";
  }

  // Acceptance: the batched pipeline must at least halve candidate
  // generation time in the repeated-value regime.
  WEBTAB_CHECK(candidate_speedup >= 2.0)
      << "candidate generation speedup " << candidate_speedup << " < 2x";
  // Observability acceptance: the registry record path costs <= 2% of
  // the batched candidate sweep.
  WEBTAB_CHECK(metrics_overhead <= 0.02)
      << "metrics record path cost " << metrics_overhead * 100.0
      << "% of the batched candidate sweep (paired-median ratio)";
  return 0;
}
