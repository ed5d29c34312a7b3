// End-to-end equivalence: the annotator and all four search engines must
// produce byte-identical results when backed by an mmap'd snapshot
// instead of the in-memory catalog / lemma index / corpus index — the
// acceptance bar for the snapshot subsystem.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <cstring>
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
#include "snapshot_bytes.h"
#include "storage/format.h"
#include "storage/snapshot.h"
#include "storage/snapshot_writer.h"
#include "synth/corpus_generator.h"
#include "test_world.h"

namespace webtab {
namespace {

using storage::Snapshot;
using storage::SnapshotBuilder;
using testing_util::FixChecksum;
using testing_util::ReadPod;
using testing_util::ReadSectionTable;
using testing_util::SectionOffsetOf;
using testing_util::SharedIndex;
using testing_util::SharedWorld;
using testing_util::WriteBytes;

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

/// Turns a current image into the minor-0 layout: the match-support
/// section's bytes and table entry are cut out, section_count drops by
/// one and version_minor becomes 0. The writer appends that section
/// last, so its payload runs up to the section table.
void DropMatchSupportSection(std::vector<uint8_t>* bytes) {
  auto header = ReadPod<storage::FileHeader>(*bytes, 0);
  std::vector<storage::SectionEntry> entries = ReadSectionTable(*bytes);
  ASSERT_FALSE(entries.empty());
  const storage::SectionEntry last = entries.back();
  ASSERT_EQ(last.kind, storage::kMatchSupportSection);
  entries.pop_back();
  bytes->resize(last.offset);
  const uint8_t* entry_bytes =
      reinterpret_cast<const uint8_t*>(entries.data());
  bytes->insert(bytes->end(), entry_bytes,
                entry_bytes + entries.size() * sizeof(storage::SectionEntry));
  header.section_table_offset = last.offset;
  header.section_count = static_cast<uint32_t>(entries.size());
  header.version_minor = 0;
  header.file_size = bytes->size();
  std::memcpy(bytes->data(), &header, sizeof(header));
  FixChecksum(bytes);
}

/// Fills the match-support header's reserved fields (the former block
/// size and block CSRs) with non-zero garbage. Files written while
/// those fields carried block summaries hold non-zero values there, and
/// readers must not depend on them.
void ScribbleReservedFields(std::vector<uint8_t>* bytes) {
  const uint64_t section =
      SectionOffsetOf(*bytes, storage::kMatchSupportSection);
  ASSERT_NE(section, 0u) << "image lacks a match-support section";
  const size_t reserved_end =
      offsetof(storage::MatchSupportHeader, cell_tokens);
  for (size_t b = 0; b < reserved_end; ++b) {
    (*bytes)[section + b] = static_cast<uint8_t>(0xA5 ^ (b * 37));
  }
  FixChecksum(bytes);
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

/// A handful of select queries over the world's primary relations.
std::vector<SelectQuery> EquivalenceSelectQueries() {
  const World& world = SharedWorld();
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
  return queries;
}

JoinQuery EquivalenceJoinQuery() {
  const World& world = SharedWorld();
  JoinQuery jq;
  jq.r1 = world.acted_in;
  jq.e1_is_subject = true;
  jq.r2 = world.directed;
  jq.e2_is_subject = false;
  jq.e3 = world.catalog.num_entities() > 10 ? 10 : kNa;
  jq.e3_text = "director";
  return jq;
}

/// All four engines' full rankings on `view` equal the in-memory ones.
void ExpectEnginesMatch(const CorpusView& mem, const CorpusView& view) {
  for (const SelectQuery& q : EquivalenceSelectQueries()) {
    ExpectSameResults(BaselineSearch(mem, q), BaselineSearch(view, q));
    ExpectSameResults(TypeSearch(mem, q), TypeSearch(view, q));
    ExpectSameResults(TypeRelationSearch(mem, q),
                      TypeRelationSearch(view, q));
  }
  const JoinQuery jq = EquivalenceJoinQuery();
  ExpectSameResults(JoinSearch(mem, jq), JoinSearch(view, jq));
}

TEST_F(SnapshotEquivalenceTest, AllFourEnginesIdentical) {
  ExpectEnginesMatch(*mem_corpus_, *snap_->corpus());
}

TEST_F(SnapshotEquivalenceTest, CurrentFormatCarriesMatchSupport) {
  EXPECT_EQ(snap_->version_minor(), storage::kFormatVersionMinor);
  EXPECT_TRUE(snap_->corpus()->HasMatchSupport());
}

TEST_F(SnapshotEquivalenceTest,
       LegacySnapshotWithoutMatchSupportStillSearches) {
  // Pre-minor-1 files carry no match-support section. They must keep
  // opening (with a one-time warning), report no match support, and
  // produce the same rankings — the engines just cannot refine their
  // bounds, so the pruned top-k path must still equal the full
  // ranking's prefix.
  const World& world = SharedWorld();
  std::string path = ::testing::TempDir() + "/legacy_no_match_support.snap";
  SnapshotBuilder builder;
  builder.SetCatalog(&world.catalog).SetCorpus(mem_corpus_);
  std::vector<uint8_t> bytes;
  WEBTAB_CHECK_OK(builder.WriteTo(&bytes));
  DropMatchSupportSection(&bytes);
  WriteBytes(path, bytes);
  Result<Snapshot> legacy = Snapshot::OpenValidated(path);
  ASSERT_TRUE(legacy.ok()) << legacy.status().ToString();
  EXPECT_EQ(legacy->version_minor(), 0u);
  ASSERT_NE(legacy->corpus(), nullptr);
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

TEST_F(SnapshotEquivalenceTest, ReservedMatchSupportFieldsAreIgnored) {
  // Files written while the match-support header's reserved fields held
  // per-posting-list block summaries must open and answer exactly like
  // current ones: no reader may look at those fields.
  std::string path = ::testing::TempDir() + "/reserved_garbage.snap";
  SnapshotBuilder builder;
  builder.SetCatalog(&SharedWorld().catalog).SetCorpus(mem_corpus_);
  std::vector<uint8_t> bytes;
  WEBTAB_CHECK_OK(builder.WriteTo(&bytes));
  ScribbleReservedFields(&bytes);
  WriteBytes(path, bytes);
  Result<Snapshot> scribbled = Snapshot::OpenValidated(path);
  ASSERT_TRUE(scribbled.ok()) << scribbled.status().ToString();
  EXPECT_EQ(scribbled->version_minor(), storage::kFormatVersionMinor);
  ASSERT_NE(scribbled->corpus(), nullptr);
  const CorpusView& sv = *scribbled->corpus();
  EXPECT_TRUE(sv.HasMatchSupport());
  ExpectEnginesMatch(*mem_corpus_, sv);

  // The pruned top-k paths read the match-support index too.
  SearchWorkspace ws;
  std::vector<SearchResult> want, got;
  const TopKOptions topk{5, true};
  for (const SelectQuery& q : EquivalenceSelectQueries()) {
    NormalizedSelectQuery nq = NormalizeSelectQuery(q);
    BaselineSearch(*mem_corpus_, q, nq, topk, &ws, &want);
    BaselineSearch(sv, q, nq, topk, &ws, &got);
    ExpectSameResults(want, got);
    TypeSearch(*mem_corpus_, q, nq, topk, &ws, &want);
    TypeSearch(sv, q, nq, topk, &ws, &got);
    ExpectSameResults(want, got);
    TypeRelationSearch(*mem_corpus_, q, nq, topk, &ws, &want);
    TypeRelationSearch(sv, q, nq, topk, &ws, &got);
    ExpectSameResults(want, got);
  }
  const JoinQuery jq = EquivalenceJoinQuery();
  JoinSearch(*mem_corpus_, jq, topk, &ws, &want);
  JoinSearch(sv, jq, topk, &ws, &got);
  ExpectSameResults(want, got);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace webtab
