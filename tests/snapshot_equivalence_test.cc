// End-to-end equivalence: the annotator and all four search engines must
// produce byte-identical results when backed by an mmap'd snapshot
// instead of the in-memory catalog / lemma index / corpus index — the
// acceptance bar for the snapshot subsystem.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "annotate/annotator.h"
#include "annotate/corpus_annotator.h"
#include "index/candidates.h"
#include "search/baseline_search.h"
#include "search/corpus_index.h"
#include "search/join_search.h"
#include "search/type_relation_search.h"
#include "search/type_search.h"
#include "storage/snapshot.h"
#include "storage/snapshot_writer.h"
#include "synth/corpus_generator.h"
#include "test_world.h"

namespace webtab {
namespace {

using storage::Snapshot;
using storage::SnapshotBuilder;
using testing_util::SharedIndex;
using testing_util::SharedWorld;

void ExpectSameAnnotation(const TableAnnotation& a,
                          const TableAnnotation& b) {
  EXPECT_EQ(a.column_types, b.column_types);
  EXPECT_EQ(a.cell_entities, b.cell_entities);
  EXPECT_EQ(a.relations, b.relations);
}

void ExpectSameResults(const std::vector<SearchResult>& a,
                       const std::vector<SearchResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].entity, b[i].entity);
    EXPECT_EQ(a[i].text, b[i].text);
    EXPECT_EQ(a[i].score, b[i].score);  // Bitwise double equality.
  }
}

class SnapshotEquivalenceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const World& world = SharedWorld();
    CorpusSpec spec;
    spec.seed = 1234;
    spec.num_tables = 12;
    spec.min_rows = 4;
    spec.max_rows = 10;
    spec.join_table_prob = 0.4;
    tables_ = new std::vector<Table>();
    for (const LabeledTable& lt : GenerateCorpus(world, spec)) {
      tables_->push_back(lt.table);
    }

    // In-memory pipeline: annotate, then index the corpus.
    TableAnnotator annotator(&world.catalog, &SharedIndex());
    mem_annotated_ = new std::vector<AnnotatedTable>(
        AnnotateCorpus(&annotator, *tables_));
    ClosureCache closure(&world.catalog);
    mem_corpus_ = new CorpusIndex(*mem_annotated_, &closure);

    // Snapshot all three payloads and open the file.
    path_ = new std::string(::testing::TempDir() + "/equivalence.snap");
    SnapshotBuilder builder;
    builder.SetCatalog(&world.catalog)
        .SetLemmaIndex(&SharedIndex())
        .SetCorpus(mem_corpus_);
    WEBTAB_CHECK_OK(builder.WriteToFile(*path_));
    Result<Snapshot> snap = Snapshot::Open(*path_);
    WEBTAB_CHECK(snap.ok()) << snap.status().ToString();
    snap_ = new Snapshot(std::move(snap.value()));
    WEBTAB_CHECK(snap_->catalog() != nullptr);
    WEBTAB_CHECK(snap_->lemma_index() != nullptr);
    WEBTAB_CHECK(snap_->corpus() != nullptr);
  }

  static void TearDownTestSuite() {
    delete snap_;
    snap_ = nullptr;
    std::remove(path_->c_str());
    delete path_;
    path_ = nullptr;
    delete mem_corpus_;
    mem_corpus_ = nullptr;
    delete mem_annotated_;
    mem_annotated_ = nullptr;
    delete tables_;
    tables_ = nullptr;
  }

  static std::vector<Table>* tables_;
  static std::vector<AnnotatedTable>* mem_annotated_;
  static CorpusIndex* mem_corpus_;
  static std::string* path_;
  static Snapshot* snap_;
};

std::vector<Table>* SnapshotEquivalenceTest::tables_ = nullptr;
std::vector<AnnotatedTable>* SnapshotEquivalenceTest::mem_annotated_ =
    nullptr;
CorpusIndex* SnapshotEquivalenceTest::mem_corpus_ = nullptr;
std::string* SnapshotEquivalenceTest::path_ = nullptr;
Snapshot* SnapshotEquivalenceTest::snap_ = nullptr;

TEST_F(SnapshotEquivalenceTest, CandidatesIdentical) {
  ClosureCache mem_closure(&SharedWorld().catalog);
  ClosureCache snap_closure(snap_->catalog());
  CandidateOptions options;
  for (const Table& table : *tables_) {
    TableCandidates a =
        GenerateCandidates(table, SharedIndex(), &mem_closure, options);
    TableCandidates b = GenerateCandidates(table, *snap_->lemma_index(),
                                           &snap_closure, options);
    ASSERT_EQ(a.cells.size(), b.cells.size());
    for (size_t r = 0; r < a.cells.size(); ++r) {
      for (size_t c = 0; c < a.cells[r].size(); ++c) {
        ASSERT_EQ(a.cells[r][c].size(), b.cells[r][c].size());
        for (size_t i = 0; i < a.cells[r][c].size(); ++i) {
          EXPECT_EQ(a.cells[r][c][i].id, b.cells[r][c][i].id);
          EXPECT_EQ(a.cells[r][c][i].score, b.cells[r][c][i].score);
        }
      }
    }
    EXPECT_EQ(a.column_types, b.column_types);
    EXPECT_EQ(a.relations, b.relations);
  }
}

TEST_F(SnapshotEquivalenceTest, AnnotationIdentical) {
  TableAnnotator snap_annotator(snap_->catalog(), snap_->lemma_index());
  for (size_t i = 0; i < tables_->size(); ++i) {
    TableAnnotation from_snapshot = snap_annotator.Annotate((*tables_)[i]);
    ExpectSameAnnotation((*mem_annotated_)[i].annotation, from_snapshot);
  }
}

TEST_F(SnapshotEquivalenceTest, ParallelWorkersShareOneMapping) {
  CorpusAnnotatorOptions options;
  options.num_threads = 3;
  // Every worker reads the same snapshot views; only closure caches and
  // vocabulary copies are per-worker.
  std::vector<AnnotatedTable> parallel = AnnotateCorpusParallel(
      snap_->catalog(), snap_->lemma_index(), options, *tables_);
  ASSERT_EQ(parallel.size(), mem_annotated_->size());
  for (size_t i = 0; i < parallel.size(); ++i) {
    ExpectSameAnnotation((*mem_annotated_)[i].annotation,
                         parallel[i].annotation);
  }
}

TEST_F(SnapshotEquivalenceTest, CorpusViewIdentical) {
  const CorpusView& sv = *snap_->corpus();
  ASSERT_EQ(sv.num_tables(), mem_corpus_->num_tables());
  for (int t = 0; t < sv.num_tables(); ++t) {
    ASSERT_EQ(sv.rows(t), mem_corpus_->rows(t));
    ASSERT_EQ(sv.cols(t), mem_corpus_->cols(t));
    EXPECT_EQ(sv.table_id(t), mem_corpus_->table_id(t));
    EXPECT_EQ(sv.context(t), mem_corpus_->context(t));
    for (int c = 0; c < sv.cols(t); ++c) {
      EXPECT_EQ(sv.header(t, c), mem_corpus_->header(t, c));
      EXPECT_EQ(sv.ColumnType(t, c), mem_corpus_->ColumnType(t, c));
      for (int r = 0; r < sv.rows(t); ++r) {
        EXPECT_EQ(sv.cell(t, r, c), mem_corpus_->cell(t, r, c));
        EXPECT_EQ(sv.CellEntity(t, r, c), mem_corpus_->CellEntity(t, r, c));
      }
      for (int c2 = c + 1; c2 < sv.cols(t); ++c2) {
        EXPECT_EQ(sv.RelationOf(t, c, c2), mem_corpus_->RelationOf(t, c, c2));
      }
    }
  }
}

TEST_F(SnapshotEquivalenceTest, AllFourEnginesIdentical) {
  const World& world = SharedWorld();
  const CorpusView& sv = *snap_->corpus();

  // A handful of select queries over the world's primary relations.
  std::vector<SelectQuery> queries;
  {
    SelectQuery q;
    q.relation = world.acted_in;
    q.type1 = world.actor;
    q.type2 = world.movie;
    q.relation_text = "acted in";
    q.type1_text = "actor";
    q.type2_text = "movie";
    for (EntityId e = 0; e < world.catalog.num_entities(); e += 97) {
      SelectQuery qe = q;
      qe.e2 = e;
      qe.e2_text = std::string(world.catalog.EntityName(e));
      queries.push_back(qe);
    }
  }
  {
    SelectQuery q;
    q.relation = world.wrote;
    q.type1 = world.novelist;
    q.type2 = world.novel;
    q.relation_text = "wrote";
    q.type1_text = "author";
    q.type2_text = "novel title";
    q.e2 = kNa;
    q.e2_text = "the quest";
    queries.push_back(q);
  }

  for (const SelectQuery& q : queries) {
    ExpectSameResults(BaselineSearch(*mem_corpus_, q),
                      BaselineSearch(sv, q));
    ExpectSameResults(TypeSearch(*mem_corpus_, q), TypeSearch(sv, q));
    ExpectSameResults(TypeRelationSearch(*mem_corpus_, q),
                      TypeRelationSearch(sv, q));
  }

  JoinQuery jq;
  jq.r1 = world.acted_in;
  jq.e1_is_subject = true;
  jq.r2 = world.directed;
  jq.e2_is_subject = false;
  jq.e3 = world.catalog.num_entities() > 10 ? 10 : kNa;
  jq.e3_text = "director";
  ExpectSameResults(JoinSearch(*mem_corpus_, jq), JoinSearch(sv, jq));
}

TEST_F(SnapshotEquivalenceTest, CurrentFormatCarriesBlockMax) {
  EXPECT_EQ(snap_->version_minor(), storage::kFormatVersionMinor);
  EXPECT_TRUE(snap_->corpus()->has_block_max());
  EXPECT_TRUE(snap_->corpus()->HasMatchSupport());
}

TEST_F(SnapshotEquivalenceTest, LegacySnapshotWithoutBlockMaxStillSearches) {
  // Pre-minor-1 files carry no block-max section. They must keep
  // opening (with a one-time warning), report no match support, and
  // produce the same rankings — the engines just cannot prune, so the
  // pruned top-k path must still equal the full ranking's prefix.
  const World& world = SharedWorld();
  std::string path = ::testing::TempDir() + "/legacy_no_blockmax.snap";
  SnapshotBuilder builder;
  builder.SetCatalog(&world.catalog)
      .SetCorpus(mem_corpus_)
      .SetWriteBlockMax(false);
  WEBTAB_CHECK_OK(builder.WriteToFile(path));
  Result<Snapshot> legacy = Snapshot::OpenValidated(path);
  ASSERT_TRUE(legacy.ok()) << legacy.status().ToString();
  EXPECT_EQ(legacy->version_minor(), 0u);
  ASSERT_NE(legacy->corpus(), nullptr);
  EXPECT_FALSE(legacy->corpus()->has_block_max());
  EXPECT_FALSE(legacy->corpus()->HasMatchSupport());

  const CorpusView& lv = *legacy->corpus();
  SelectQuery q;
  q.relation = world.acted_in;
  q.type1 = world.actor;
  q.type2 = world.movie;
  q.relation_text = "acted in";
  q.type1_text = "actor";
  q.type2_text = "movie";
  q.e2 = 10;
  q.e2_text = std::string(world.catalog.EntityName(10));
  ExpectSameResults(TypeRelationSearch(*mem_corpus_, q),
                    TypeRelationSearch(lv, q));
  ExpectSameResults(TypeSearch(*mem_corpus_, q), TypeSearch(lv, q));
  ExpectSameResults(BaselineSearch(*mem_corpus_, q), BaselineSearch(lv, q));

  std::vector<SearchResult> full = TypeRelationSearch(lv, q);
  NormalizedSelectQuery nq = NormalizeSelectQuery(q);
  SearchWorkspace ws;
  std::vector<SearchResult> pruned;
  TypeRelationSearch(lv, q, nq, TopKOptions{5, true}, &ws, &pruned);
  ASSERT_EQ(pruned.size(), std::min<size_t>(5, full.size()));
  for (size_t i = 0; i < pruned.size(); ++i) {
    EXPECT_EQ(pruned[i].entity, full[i].entity);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace webtab
