// bench_diff: the bench-regression watchdog. Compares a freshly
// generated BENCH_*.json against the checked-in baseline and fails
// (exit 1) when a headline metric regressed by more than --max-regress
// (default 15%).
//
//   bench_diff --baseline BENCH_search.json --candidate /tmp/BENCH_search.json
//   bench_diff --baseline BENCH_search.json --candidate new.json \
//       --max-regress 0.10
//
// Which metrics gate is keyed by the file's "bench" field, and the
// gated set deliberately prefers machine-independent figures: speedup
// ratios (kernel vs reference on the same machine, same run) and exact
// invariants (zero allocations, zero failures, byte-identical
// verification) rather than absolute QPS or wall milliseconds, which
// swing with the runner. Metrics present in the spec but missing from
// the baseline are skipped (older baseline schema); missing from the
// candidate they fail (a schema regression hides exactly the numbers
// the gate exists to watch).
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/flags.h"
#include "common/status.h"
#include "serve/json.h"

using webtab::FlagSet;
using webtab::Result;
using webtab::Status;
using webtab::serve::Json;

namespace {

enum class Direction {
  kHigherBetter,  // ratio gate: (base - cand) / base <= max_regress
  kLowerBetter,   // ratio gate: (cand - base) / base <= max_regress
  kExactZero,     // invariant: candidate must be exactly 0
  kBoolTrue,      // invariant: candidate must be true
};

struct MetricSpec {
  const char* path;  // dotted path into the JSON document
  Direction direction;
};

struct BenchSpec {
  const char* bench;  // value of the "bench" field
  std::vector<MetricSpec> metrics;
};

/// The watchdog's built-in headline-metric registry, one entry per
/// bench driver that emits a BENCH_*.json.
const std::vector<BenchSpec>& Specs() {
  static const std::vector<BenchSpec> specs = {
      {"search",
       {{"baseline.speedup_top10_vs_reference", Direction::kHigherBetter},
        {"type.speedup_top10_vs_reference", Direction::kHigherBetter},
        {"type_relation.speedup_top10_vs_reference",
         Direction::kHigherBetter},
        {"join.speedup", Direction::kHigherBetter},
        {"steady_state_allocations_per_query", Direction::kExactZero},
        {"metrics_overhead_fraction", Direction::kLowerBetter}}},
      {"candidates",
       {{"candidate_generation.speedup", Direction::kHigherBetter},
        {"f1_scoring.speedup", Direction::kHigherBetter}}},
      {"serving",
       {{"failures", Direction::kExactZero},
        {"byte_identical_verified", Direction::kBoolTrue}}},
      {"annotate_parallel",
       {{"annotations_identical", Direction::kBoolTrue},
        {"speedup_4threads", Direction::kHigherBetter}}},
      {"snapshot_load",
       {{"speedup", Direction::kHigherBetter},
        {"speedup_noverify", Direction::kHigherBetter}}},
      {"bp_kernel",
       {{"configs.default_candidates.bp_speedup", Direction::kHigherBetter},
        {"configs.relation_heavy.bp_speedup", Direction::kHigherBetter},
        {"configs.relation_heavy.factor_memory_ratio",
         Direction::kHigherBetter}}},
  };
  return specs;
}

const Json* FindPath(const Json& root, std::string_view path) {
  const Json* cur = &root;
  size_t start = 0;
  while (true) {
    const size_t dot = path.find('.', start);
    const std::string_view key =
        dot == std::string_view::npos ? path.substr(start)
                                      : path.substr(start, dot - start);
    cur = cur->Find(key);
    if (cur == nullptr || dot == std::string_view::npos) return cur;
    start = dot + 1;
  }
}

Result<Json> LoadJsonFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return Json::Parse(buffer.str());
}

int Fail(const Status& status) {
  std::fprintf(stderr, "bench_diff: %s\n", status.ToString().c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string baseline_path, candidate_path;
  double max_regress = 0.15;
  FlagSet flags;
  flags.AddString("baseline", &baseline_path,
                  "checked-in BENCH_*.json to compare against");
  flags.AddString("candidate", &candidate_path,
                  "freshly generated BENCH_*.json to gate");
  flags.AddDouble("max-regress", &max_regress,
                  "maximum tolerated fractional regression on ratio "
                  "metrics");
  Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) return Fail(parsed);
  if (baseline_path.empty() || candidate_path.empty()) {
    std::fprintf(stderr,
                 "usage: bench_diff --baseline OLD.json --candidate "
                 "NEW.json [--max-regress 0.15]\n%s",
                 flags.Usage().c_str());
    return 2;
  }

  Result<Json> baseline = LoadJsonFile(baseline_path);
  if (!baseline.ok()) return Fail(baseline.status());
  Result<Json> candidate = LoadJsonFile(candidate_path);
  if (!candidate.ok()) return Fail(candidate.status());

  const std::string bench = candidate->GetString("bench");
  if (bench.empty()) {
    return Fail(Status::InvalidArgument(candidate_path +
                                        ": no \"bench\" field"));
  }
  if (baseline->GetString("bench") != bench) {
    return Fail(Status::InvalidArgument(
        "bench mismatch: baseline is \"" + baseline->GetString("bench") +
        "\", candidate is \"" + bench + "\""));
  }
  const BenchSpec* spec = nullptr;
  for (const BenchSpec& s : Specs()) {
    if (bench == s.bench) spec = &s;
  }
  if (spec == nullptr) {
    std::fprintf(stderr,
                 "bench_diff: no gate registered for bench \"%s\" — "
                 "nothing to check\n",
                 bench.c_str());
    return 0;
  }

  std::printf("bench_diff %s: baseline=%s candidate=%s max-regress=%.0f%%\n",
              bench.c_str(), baseline_path.c_str(), candidate_path.c_str(),
              max_regress * 100.0);
  int failures = 0;
  for (const MetricSpec& metric : spec->metrics) {
    const Json* base = FindPath(*baseline, metric.path);
    const Json* cand = FindPath(*candidate, metric.path);
    if (cand == nullptr) {
      std::printf("  FAIL %-44s missing from candidate\n", metric.path);
      ++failures;
      continue;
    }
    if (base == nullptr) {
      // Older baseline schema without this metric: nothing to compare
      // against yet; the next baseline refresh picks it up.
      std::printf("  skip %-44s not in baseline\n", metric.path);
      continue;
    }
    switch (metric.direction) {
      case Direction::kBoolTrue: {
        const bool ok = cand->is_bool() && cand->bool_value();
        std::printf("  %s %-44s %s\n", ok ? "ok  " : "FAIL", metric.path,
                    ok ? "true" : "not true");
        if (!ok) ++failures;
        break;
      }
      case Direction::kExactZero: {
        const bool ok = cand->is_number() && cand->number_value() == 0.0;
        std::printf("  %s %-44s %g (must be 0)\n", ok ? "ok  " : "FAIL",
                    metric.path, cand->number_value());
        if (!ok) ++failures;
        break;
      }
      case Direction::kHigherBetter:
      case Direction::kLowerBetter: {
        if (!base->is_number() || !cand->is_number()) {
          std::printf("  FAIL %-44s not numeric\n", metric.path);
          ++failures;
          break;
        }
        const double b = base->number_value();
        const double c = cand->number_value();
        double regress = 0.0;
        if (metric.direction == Direction::kHigherBetter) {
          regress = b > 0 ? (b - c) / b : 0.0;
        } else {
          // A lower-better metric with a ~zero baseline (e.g. an
          // overhead fraction already at the noise floor) gates on the
          // absolute value instead of a ratio of nothing.
          regress = b > 1e-9 ? (c - b) / b : c;
        }
        // Lower-better fractions are overheads: when the candidate is
        // below 1% absolute it sits at the timer-jitter floor, and the
        // ratio of two jitter readings (0.2% -> 0.3% = "+74%") gates
        // nothing real. The bench's own CHECK still enforces the
        // absolute ceiling.
        const bool at_floor =
            metric.direction == Direction::kLowerBetter && c <= 0.01;
        const bool ok = regress <= max_regress || at_floor;
        std::printf("  %s %-44s %.4g -> %.4g (%+.1f%%)\n",
                    ok ? "ok  " : "FAIL", metric.path, b, c,
                    -regress * 100.0);
        if (!ok) ++failures;
        break;
      }
    }
  }
  if (failures > 0) {
    std::printf("bench_diff %s: %d metric(s) regressed beyond %.0f%%\n",
                bench.c_str(), failures, max_regress * 100.0);
    return 1;
  }
  std::printf("bench_diff %s: all gated metrics within bounds\n",
              bench.c_str());
  return 0;
}
