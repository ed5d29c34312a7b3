// The benchmark's fixed data and its seeded request streams.
//
// The world, the setup corpus, the annotate table pool and the search
// key set are fixtures: built from fixed seeds, identical in every run.
// The workload seed only orders and draws from them, so two seeds send
// the same kind of traffic over the same data and the quality metrics
// do not depend on the seed.
#ifndef PERFBENCH_FIXTURE_H_
#define PERFBENCH_FIXTURE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "serve/service.h"
#include "synth/world_generator.h"
#include "table/annotation.h"

namespace perfbench {

/// Tables the setup annotates in batch and indexes for search. 800 gave
/// a 4.4% IQR on search p50 where 1600 gave 14.6%.
inline constexpr int kCorpusTables = 800;
/// Worker threads of the setup's batch annotation.
inline constexpr int kCorpusThreads = 2;

/// One distinct search request: an engine over one grounded entity, with
/// the wire "k" it is always sent with (0 = absent, the full ranking).
struct SearchKey {
  webtab::serve::EngineKind engine = webtab::serve::EngineKind::kTypeRelation;
  webtab::RelationId relation = webtab::kNa;  // select R; a join's R2
  webtab::EntityId entity = webtab::kNa;      // select E2; a join's E3
  int k = 0;
  std::string line;
};

struct Fixture {
  webtab::World world;
  /// The setup's batch input (with gold labels, for the batch quality
  /// the search workload reports).
  std::vector<webtab::LabeledTable> corpus;
  /// The annotate workload's tables: the four Figure 5 sets (Wiki
  /// Manual, Web Manual, Web Relations, a slice of Wiki Link), none of
  /// them in the corpus. The first kQualityTables feed the quality
  /// metrics whether or not the timed phase reached them.
  std::vector<webtab::LabeledTable> pool;
  std::vector<std::string> pool_lines;
  /// Select queries over every grounded E2 of the Figure 9 relations on
  /// the baseline, type and type_relation engines, plus joins over every
  /// director.
  std::vector<SearchKey> keys;
  /// Warm-up inputs, disjoint from `pool` and `keys`: more Wiki Link
  /// tables, and queries over the relations Figure 9 does not use.
  std::vector<std::string> warmup_tables;
  std::vector<SearchKey> warmup_queries;
};

inline constexpr int kQualityTables = 600;

Fixture BuildFixture();

/// The wire form of an annotate request for `table`.
std::string AnnotateLine(const webtab::Table& table);

/// The measured request stream of one workload, as indices into
/// Fixture::pool (annotate) or Fixture::keys (search).
class RequestStream {
 public:
  RequestStream(const Fixture& fixture, bool search, uint64_t seed);

  /// annotate: the next pool table of a seeded permutation, -1 once every
  /// table has been sent. search: a uniform draw over the key set.
  int Next();

 private:
  bool search_;
  int num_keys_;
  webtab::Rng rng_;
  std::vector<int> order_;
  size_t next_ = 0;
};
/// Warm-up requests (wire lines): a few tables and many queries, drawn
/// from a stream of their own so they never overlap the measured one.
std::vector<std::string> WarmupLines(const Fixture& fixture, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_FIXTURE_H_
