// Tests for the vectorized batch execution layer (src/exec) and its use
// in the select kernels:
//
//   - BitVector / TidList selection-vector semantics on crafted batches
//     stressing word boundaries: all-pruned, none-pruned, and
//     single-survivor selections at lanes 0/63/64/.../1023.
//   - FilterManager determinism: a fixed seed and a fixed
//     Record/EndBatch sequence produce a fixed permutation trace, the
//     exploit order follows measured pass-rate-per-cost, and
//     exploration rounds fire on schedule.
//   - Batch-vs-scalar engine equivalence: every engine, on both corpus
//     backends, across k and prune settings, must produce bit-identical
//     results with TopKOptions::batch on and off (the scalar path is
//     the retained equivalence reference).
//   - EXPLAIN filter-log determinism: two fresh workspaces replaying
//     the same query sequence log the same screen decisions bit for
//     bit, including the adaptive reorderer's permutations.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "annotate/annotator.h"
#include "exec/bit_vector.h"
#include "exec/filter_manager.h"
#include "exec/score_batch.h"
#include "exec/tid_list.h"
#include "search/baseline_search.h"
#include "search/corpus_index.h"
#include "search/join_search.h"
#include "search/search_workspace.h"
#include "search/type_relation_search.h"
#include "search/type_search.h"
#include "storage/snapshot.h"
#include "storage/snapshot_writer.h"
#include "synth/corpus_generator.h"
#include "test_world.h"

namespace webtab {
namespace {

using exec::BitVector;
using exec::FilterManager;
using exec::kBatchSize;
using exec::TidList;
using storage::Snapshot;
using storage::SnapshotBuilder;
using testing_util::SharedIndex;
using testing_util::SharedWorld;

// --- Selection-vector semantics -------------------------------------------

TEST(BitVectorTest, EdgeWordSizes) {
  for (uint32_t n : {0u, 1u, 63u, 64u, 65u, 127u, 128u, 1023u, 1024u}) {
    BitVector bits(n);
    EXPECT_EQ(bits.num_bits(), n);
    EXPECT_EQ(bits.CountOnes(), 0u);
    bits.SetAll();
    EXPECT_EQ(bits.CountOnes(), n);
    // The whole-word invariant: tail bits of the last word stay zero.
    const uint32_t tail = n & 63;
    if (tail != 0) {
      EXPECT_EQ(bits.words()[bits.NumWords() - 1] >> tail, 0u) << n;
    }
    if (n == 0) continue;  // no bit to clear
    bits.Clear(0);
    bits.Clear(n - 1);
    EXPECT_EQ(bits.CountOnes(), n - (n > 1 ? 2 : 1));
  }
}

TEST(BitVectorTest, AssignIsBranchFreeConditionalSet) {
  BitVector bits(130);
  for (uint32_t i = 0; i < 130; ++i) bits.Assign(i, i % 3 == 0);
  for (uint32_t i = 0; i < 130; ++i) {
    EXPECT_EQ(bits.Test(i), i % 3 == 0) << i;
  }
  // Resize reuses storage but must clear stale bits.
  bits.Resize(130);
  EXPECT_EQ(bits.CountOnes(), 0u);
}

TEST(BitVectorTest, ForEachSetBitAscendingAcrossWords) {
  BitVector bits(kBatchSize);
  const std::vector<uint32_t> lanes = {0, 1, 63, 64, 65, 127, 128,
                                       511, 512, 1022, 1023};
  for (uint32_t lane : lanes) bits.Set(lane);
  std::vector<uint32_t> seen;
  bits.ForEachSetBit([&](uint32_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, lanes);  // Ascending order is load-bearing.
  BitVector other(kBatchSize);
  other.Set(63);
  other.Set(64);
  other.Set(100);
  bits.And(other);
  EXPECT_EQ(bits.CountOnes(), 2u);
  EXPECT_TRUE(bits.Test(63) && bits.Test(64));
}

TEST(TidListTest, AllPrunedNonePrunedSingleSurvivor) {
  TidList tids;
  // None pruned: the full batch survives in order.
  tids.Reset(kBatchSize);
  tids.Filter([](uint32_t) { return true; });
  ASSERT_EQ(tids.size(), kBatchSize);
  for (uint32_t i = 0; i < kBatchSize; ++i) EXPECT_EQ(tids[i], i);

  // All pruned: empty selection, no survivors touched downstream.
  tids.Filter([](uint32_t) { return false; });
  EXPECT_TRUE(tids.empty());

  // Single survivor at every word-boundary lane.
  for (uint32_t lane : {0u, 1u, 63u, 64u, 65u, 511u, 512u, 1022u, 1023u}) {
    tids.Reset(kBatchSize);
    tids.Filter([lane](uint32_t t) { return t == lane; });
    ASSERT_EQ(tids.size(), 1u) << lane;
    EXPECT_EQ(tids[0], lane);
  }
}

TEST(TidListTest, BuildFromBitsMatchesSetBits) {
  BitVector bits(kBatchSize);
  for (uint32_t lane : {0u, 63u, 64u, 1023u}) bits.Set(lane);
  TidList tids;
  tids.BuildFromBits(bits);
  ASSERT_EQ(tids.size(), 4u);
  EXPECT_EQ(tids[0], 0u);
  EXPECT_EQ(tids[1], 63u);
  EXPECT_EQ(tids[2], 64u);
  EXPECT_EQ(tids[3], 1023u);

  // Empty bit vector -> empty selection.
  bits.Resize(kBatchSize);
  tids.BuildFromBits(bits);
  EXPECT_TRUE(tids.empty());
}

TEST(TidListTest, PartitionIntoKeepsBothSidesAscending) {
  TidList rest, pass;
  rest.Reset(200);
  pass.Clear();
  rest.PartitionInto(&pass, [](uint32_t t) { return t % 2 == 0; });
  ASSERT_EQ(pass.size(), 100u);
  ASSERT_EQ(rest.size(), 100u);
  for (uint32_t i = 0; i < 100; ++i) {
    EXPECT_EQ(pass[i], 2 * i);
    EXPECT_EQ(rest[i], 2 * i + 1);
  }
  // A second condition peels from the remainder (the disjunctive-screen
  // chain); survivors append after the first condition's, so a sort
  // restores the global ascending order scan loops need.
  rest.PartitionInto(&pass, [](uint32_t t) { return t < 10; });
  EXPECT_EQ(pass.size(), 105u);
  pass.SortAscending();
  for (uint32_t i = 1; i < pass.size(); ++i) {
    EXPECT_LT(pass[i - 1], pass[i]);
  }
}

TEST(ScoreBatchTest, ResetSelectsEverything) {
  exec::ScoreBatch batch;
  batch.Reset(kBatchSize);
  EXPECT_EQ(batch.size, kBatchSize);
  EXPECT_EQ(batch.active.size(), kBatchSize);
  EXPECT_TRUE(batch.scratch.empty());
  batch.Reset(0);
  EXPECT_TRUE(batch.active.empty());
}

// --- FilterManager determinism --------------------------------------------

/// Drives `fm` through `batches` batches of one class with fixed
/// per-condition pass rates, recording the order after every batch.
std::vector<std::vector<uint8_t>> DriveManager(FilterManager* fm, int cls,
                                               int batches,
                                               const std::vector<int>& pass,
                                               int evaluated) {
  std::vector<std::vector<uint8_t>> trace;
  for (int b = 0; b < batches; ++b) {
    for (size_t cond = 0; cond < pass.size(); ++cond) {
      fm->Record(cls, static_cast<int>(cond), evaluated, pass[cond]);
    }
    fm->EndBatch(cls);
    std::span<const uint8_t> order = fm->Order(cls);
    trace.emplace_back(order.begin(), order.end());
  }
  return trace;
}

TEST(FilterManagerTest, FixedSeedFixedTrace) {
  const FilterManager::ConditionDef conds[] = {
      {"a", 1.0}, {"b", 2.0}, {"c", 1.0}};
  FilterManager fm1(123), fm2(123);
  const int cls1 = fm1.RegisterClass("screen", conds);
  const int cls2 = fm2.RegisterClass("screen", conds);
  // Long enough to cross several resamples and at least one exploration
  // round (kResamplePeriod * kExplorePeriod batches).
  const int batches = static_cast<int>(FilterManager::kResamplePeriod *
                                       FilterManager::kExplorePeriod * 2);
  auto t1 = DriveManager(&fm1, cls1, batches, {10, 90, 50}, 100);
  auto t2 = DriveManager(&fm2, cls2, batches, {10, 90, 50}, 100);
  EXPECT_EQ(t1, t2);  // Bit-for-bit identical permutation trace.
  // The trace is not frozen at the initial order: resampling really ran.
  EXPECT_NE(t1.front(), t1.back());
}

TEST(FilterManagerTest, ExploitOrdersByPassRatePerCost) {
  const FilterManager::ConditionDef conds[] = {
      {"rare", 1.0}, {"common", 1.0}, {"mid_expensive", 4.0}};
  FilterManager fm;
  const int cls = fm.RegisterClass("screen", conds);
  // Pass rates: rare 5%, common 90%, mid 50% but 4x cost => rate/cost
  // 0.05 / 0.90 / 0.125. Disjunctive screens run highest rate/cost
  // first: common, mid_expensive, rare.
  for (uint64_t b = 0; b < FilterManager::kResamplePeriod; ++b) {
    fm.Record(cls, 0, 1000, 50);
    fm.Record(cls, 1, 1000, 900);
    fm.Record(cls, 2, 1000, 500);
    fm.EndBatch(cls);
  }
  ASSERT_FALSE(fm.state(cls).exploring);
  std::span<const uint8_t> order = fm.Order(cls);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 1);  // common
  EXPECT_EQ(order[1], 2);  // mid_expensive
  EXPECT_EQ(order[2], 0);  // rare
}

TEST(FilterManagerTest, ExploresOnSchedule) {
  const FilterManager::ConditionDef conds[] = {{"a", 1.0}, {"b", 1.0}};
  FilterManager fm;
  const int cls = fm.RegisterClass("screen", conds);
  int explore_rounds = 0;
  const uint64_t resamples = FilterManager::kExplorePeriod * 3;
  for (uint64_t r = 1; r <= resamples; ++r) {
    for (uint64_t b = 0; b < FilterManager::kResamplePeriod; ++b) {
      fm.Record(cls, 0, 100, 10);
      fm.Record(cls, 1, 100, 90);
      fm.EndBatch(cls);
    }
    if (fm.state(cls).exploring) ++explore_rounds;
    EXPECT_EQ(fm.state(cls).resamples, r);
  }
  EXPECT_EQ(explore_rounds, 3);
}

// --- Batch vs scalar engine equivalence -----------------------------------

class ExecBatchEquivalenceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const World& world = SharedWorld();
    CorpusSpec spec;
    spec.seed = 977;
    spec.num_tables = 36;
    spec.min_rows = 3;
    spec.max_rows = 10;
    spec.join_table_prob = 0.4;
    std::vector<Table> tables;
    for (const LabeledTable& lt : GenerateCorpus(world, spec)) {
      tables.push_back(lt.table);
    }
    TableAnnotator annotator(&world.catalog, &SharedIndex());
    std::vector<AnnotatedTable> annotated =
        AnnotateCorpus(&annotator, tables);
    ClosureCache closure(&world.catalog);
    mem_corpus_ = new CorpusIndex(std::move(annotated), &closure);

    path_ = new std::string(::testing::TempDir() + "/exec_batch.snap");
    SnapshotBuilder builder;
    builder.SetCatalog(&world.catalog)
        .SetLemmaIndex(&SharedIndex())
        .SetCorpus(mem_corpus_);
    WEBTAB_CHECK_OK(builder.WriteToFile(*path_));
    Result<Snapshot> snap = Snapshot::OpenValidated(*path_);
    WEBTAB_CHECK(snap.ok()) << snap.status().ToString();
    snap_ = new Snapshot(std::move(snap.value()));
  }

  static void TearDownTestSuite() {
    delete snap_;
    snap_ = nullptr;
    std::remove(path_->c_str());
    delete path_;
    path_ = nullptr;
    delete mem_corpus_;
    mem_corpus_ = nullptr;
  }

  static std::vector<SelectQuery> SelectQueries() {
    const World& world = SharedWorld();
    std::vector<SelectQuery> queries;
    auto add_family = [&](RelationId rel, TypeId t1, TypeId t2,
                          const char* rel_text, const char* t1_text,
                          const char* t2_text) {
      SelectQuery base;
      base.relation = rel;
      base.type1 = t1;
      base.type2 = t2;
      base.relation_text = rel_text;
      base.type1_text = t1_text;
      base.type2_text = t2_text;
      const auto& tuples = world.true_relations[rel].tuples;
      const size_t stride = std::max<size_t>(1, tuples.size() / 4);
      for (size_t i = 0; i < tuples.size(); i += stride) {
        EntityId e = tuples[i].second;
        SelectQuery q = base;
        q.e2 = e;
        q.e2_text = std::string(world.catalog.EntityName(e));
        queries.push_back(q);
        q.e2 = kNa;  // Ungrounded spelling of the same value.
        queries.push_back(q);
      }
      SelectQuery junk = base;
      junk.e2 = kNa;
      junk.e2_text = "no such thing anywhere";
      queries.push_back(junk);
    };
    add_family(world.acted_in, world.actor, world.movie, "acted in",
               "actor", "movie");
    add_family(world.wrote, world.novelist, world.novel, "wrote", "author",
               "novel title");
    return queries;
  }

  static CorpusIndex* mem_corpus_;
  static std::string* path_;
  static Snapshot* snap_;
};

CorpusIndex* ExecBatchEquivalenceTest::mem_corpus_ = nullptr;
std::string* ExecBatchEquivalenceTest::path_ = nullptr;
Snapshot* ExecBatchEquivalenceTest::snap_ = nullptr;

struct EngineCase {
  const char* name;
  void (*kernel)(const CorpusView&, const SelectQuery&,
                 const NormalizedSelectQuery&, const TopKOptions&,
                 SearchWorkspace*, std::vector<SearchResult>*);
};

const EngineCase kEngines[] = {
    {"baseline", &BaselineSearch},
    {"type", &TypeSearch},
    {"type_relation", &TypeRelationSearch},
};

void ExpectBitIdentical(const std::vector<SearchResult>& batch,
                        const std::vector<SearchResult>& scalar,
                        const std::string& context) {
  ASSERT_EQ(batch.size(), scalar.size()) << context;
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(batch[i].entity, scalar[i].entity) << context << " @" << i;
    EXPECT_EQ(batch[i].text, scalar[i].text) << context << " @" << i;
    EXPECT_EQ(batch[i].score, scalar[i].score)  // Bitwise doubles.
        << context << " @" << i;
  }
}

TEST_F(ExecBatchEquivalenceTest, BatchMatchesScalarEverywhere) {
  // Separate workspaces so the batch run's adaptive reorderer state
  // cannot leak into the scalar run (and vice versa); each workspace
  // still threads through every query to exercise epoch hygiene.
  SearchWorkspace ws_batch, ws_scalar;
  std::vector<SearchResult> got_batch, got_scalar;
  const CorpusView& snap_view = *snap_->corpus();
  const CorpusView* backends[] = {mem_corpus_, &snap_view};
  const char* backend_names[] = {"mem", "snap"};
  const int ks[] = {0, 1, 5, 1000};
  size_t total_results = 0;
  for (const SelectQuery& q : SelectQueries()) {
    NormalizedSelectQuery nq = NormalizeSelectQuery(q);
    for (const EngineCase& engine : kEngines) {
      for (int b = 0; b < 2; ++b) {
        for (int k : ks) {
          for (bool prune : {false, true}) {
            TopKOptions batch_opts{k, prune, /*batch=*/true};
            TopKOptions scalar_opts{k, prune, /*batch=*/false};
            std::string context = std::string(engine.name) + " e2=" +
                                  q.e2_text + " k=" + std::to_string(k) +
                                  (prune ? " pruned " : " unpruned ") +
                                  backend_names[b];
            engine.kernel(*backends[b], q, nq, batch_opts, &ws_batch,
                          &got_batch);
            engine.kernel(*backends[b], q, nq, scalar_opts, &ws_scalar,
                          &got_scalar);
            ExpectBitIdentical(got_batch, got_scalar, context);
            total_results += got_batch.size();
          }
        }
      }
    }
  }
  // Non-vacuity: the sweep must exercise real rankings.
  EXPECT_GT(total_results, 100u);
}

TEST_F(ExecBatchEquivalenceTest, JoinBatchMatchesScalar) {
  const World& world = SharedWorld();
  SearchWorkspace ws_batch, ws_scalar;
  std::vector<SearchResult> got_batch, got_scalar;
  const CorpusView& snap_view = *snap_->corpus();
  for (EntityId e = 5; e < world.catalog.num_entities(); e += 509) {
    JoinQuery jq;
    jq.r1 = world.acted_in;
    jq.e1_is_subject = true;
    jq.r2 = world.directed;
    jq.e2_is_subject = false;
    jq.e3 = e;
    jq.e3_text = std::string(world.catalog.EntityName(e));
    for (const CorpusView* backend : {static_cast<const CorpusView*>(
                                          mem_corpus_),
                                      &snap_view}) {
      for (int k : {0, 3}) {
        for (bool prune : {false, true}) {
          JoinSearch(*backend, jq, TopKOptions{k, prune, true}, &ws_batch,
                     &got_batch);
          JoinSearch(*backend, jq, TopKOptions{k, prune, false},
                     &ws_scalar, &got_scalar);
          ExpectBitIdentical(got_batch, got_scalar,
                             "join k=" + std::to_string(k));
        }
      }
    }
  }
}

TEST_F(ExecBatchEquivalenceTest, FilterLogTraceIsDeterministic) {
  // Two fresh workspaces replay the same query sequence: the adaptive
  // reorderer must log bit-identical screen decisions — same classes,
  // same lane counts, same permutations, same exploration rounds.
  SearchWorkspace ws1, ws2;
  ws1.EnableExplain(true);
  ws2.EnableExplain(true);
  std::vector<SearchResult> got;
  std::vector<SearchWorkspace::FilterDecision> trace1, trace2;
  auto run = [&](SearchWorkspace* ws,
                 std::vector<SearchWorkspace::FilterDecision>* trace) {
    trace->clear();
    // Several passes so per-class batch counters cross kResamplePeriod
    // and the permutation actually changes mid-trace.
    for (int pass = 0; pass < 3; ++pass) {
      for (const SelectQuery& q : SelectQueries()) {
        NormalizedSelectQuery nq = NormalizeSelectQuery(q);
        for (const EngineCase& engine : kEngines) {
          engine.kernel(*mem_corpus_, q, nq, TopKOptions{5, true}, ws,
                        &got);
          trace->insert(trace->end(), ws->filter_log.begin(),
                        ws->filter_log.end());
        }
      }
    }
  };
  run(&ws1, &trace1);
  run(&ws2, &trace2);
  ASSERT_FALSE(trace1.empty());
  ASSERT_EQ(trace1.size(), trace2.size());
  for (size_t i = 0; i < trace1.size(); ++i) {
    const SearchWorkspace::FilterDecision& a = trace1[i];
    const SearchWorkspace::FilterDecision& b = trace2[i];
    EXPECT_EQ(a.cls, b.cls) << i;
    EXPECT_EQ(a.lanes_in, b.lanes_in) << i;
    EXPECT_EQ(a.lanes_pass, b.lanes_pass) << i;
    EXPECT_EQ(a.num_conditions, b.num_conditions) << i;
    EXPECT_EQ(a.exploring, b.exploring) << i;
    EXPECT_EQ(a.order, b.order) << i;
  }
  // The managers themselves converged to the same state.
  ASSERT_EQ(ws1.filter_manager().num_classes(),
            ws2.filter_manager().num_classes());
  for (int c = 0; c < ws1.filter_manager().num_classes(); ++c) {
    const FilterManager::ClassState& s1 = ws1.filter_manager().state(c);
    const FilterManager::ClassState& s2 = ws2.filter_manager().state(c);
    EXPECT_EQ(s1.batches, s2.batches);
    EXPECT_EQ(s1.resamples, s2.resamples);
    EXPECT_EQ(s1.order, s2.order);
    for (int i = 0; i < s1.num_conditions; ++i) {
      EXPECT_EQ(s1.conditions[i].evaluated, s2.conditions[i].evaluated);
      EXPECT_EQ(s1.conditions[i].passed, s2.conditions[i].passed);
    }
  }
}

}  // namespace
}  // namespace webtab
