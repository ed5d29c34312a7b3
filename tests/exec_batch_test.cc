// Tests for the vectorized batch execution layer (src/exec) and its use
// in the select kernels:
//
//   - BitVector verdict-lane semantics: branch-free Assign, and Resize
//     clearing stale bits on reuse.
//   - Batch-vs-scalar engine equivalence: every engine, on both corpus
//     backends, across k and prune settings, must produce bit-identical
//     results with TopKOptions::batch on and off (the scalar path is
//     the retained equivalence reference).
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "annotate/annotator.h"
#include "exec/bit_vector.h"
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
using storage::Snapshot;
using storage::SnapshotBuilder;
using testing_util::SharedIndex;
using testing_util::SharedWorld;

// --- Verdict-lane semantics ----------------------------------------------

TEST(BitVectorTest, AssignIsBranchFreeConditionalSet) {
  BitVector bits;
  bits.Resize(130);
  for (uint32_t i = 0; i < 130; ++i) bits.Assign(i, i % 3 == 0);
  for (uint32_t i = 0; i < 130; ++i) {
    EXPECT_EQ(bits.Test(i), i % 3 == 0) << i;
  }
  // Resize reuses storage but must clear stale bits.
  bits.Resize(130);
  for (uint32_t i = 0; i < 130; ++i) EXPECT_FALSE(bits.Test(i)) << i;
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
  // Separate workspaces so neither run's scratch can leak into the
  // other; each workspace still threads through every query to exercise
  // epoch hygiene.
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

}  // namespace
}  // namespace webtab
