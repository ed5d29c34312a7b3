// Equivalence property tests for the column-major candidate pipeline:
// GenerateCandidates (batched column probes + distinct-weighted type and
// relation phases) must reproduce the retained per-cell reference prober
// exactly — identical cells (id, lemma ordinal, bit-identical score),
// column_types and relations — on the in-memory and the snapshot
// LemmaIndexView backends, with or without a reused workspace, across
// reruns, on a small test world and on the paper-default world's Fig. 9
// corpus, plus a crafted catalog where a lemma repeats a wide token.
// Also asserts FeatureComputer's scratch-backed f1/f2 equal the direct
// similarity calls of tests/reference_features.h bit for bit.
#include <gtest/gtest.h>

#include <bit>
#include <cctype>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "annotate/annotator.h"
#include "catalog/catalog_builder.h"
#include "index/candidates.h"
#include "model/features.h"
#include "reference_candidates.h"
#include "reference_features.h"
#include "storage/snapshot.h"
#include "storage/snapshot_writer.h"
#include "synth/corpus_generator.h"
#include "synth/world_generator.h"
#include "test_world.h"

namespace webtab {
namespace {

using storage::Snapshot;
using storage::SnapshotBuilder;
using testing_util::ReferenceF1;
using testing_util::ReferenceF2;
using testing_util::ReferenceGenerateCandidates;
using testing_util::SharedIndex;
using testing_util::SharedWorld;

void ExpectSameCandidates(const TableCandidates& a,
                          const TableCandidates& b) {
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (size_t r = 0; r < a.cells.size(); ++r) {
    ASSERT_EQ(a.cells[r].size(), b.cells[r].size());
    for (size_t c = 0; c < a.cells[r].size(); ++c) {
      // LemmaHit equality is field-wise, so scores compare bitwise.
      EXPECT_EQ(a.cells[r][c], b.cells[r][c])
          << "cell (" << r << "," << c << ")";
    }
  }
  EXPECT_EQ(a.column_types, b.column_types);
  EXPECT_EQ(a.relations, b.relations);
}

/// The equivalence sweep: GenerateCandidates through one reused
/// workspace against the per-cell reference, table by table.
void ExpectBatchedMatchesReference(const std::vector<Table>& tables,
                                   const LemmaIndexView& index,
                                   const CatalogView* catalog) {
  ClosureCache closure(catalog);
  CandidateOptions options;
  CandidateWorkspace workspace;
  for (size_t i = 0; i < tables.size(); ++i) {
    SCOPED_TRACE("table " + std::to_string(i));
    TableCandidates reference =
        ReferenceGenerateCandidates(tables[i], index, &closure, options);
    TableCandidates batched = GenerateCandidates(tables[i], index, &closure,
                                                 options, &workspace);
    ExpectSameCandidates(reference, batched);
  }
}

void ExpectSameAnnotation(const TableAnnotation& a,
                          const TableAnnotation& b) {
  EXPECT_EQ(a.column_types, b.column_types);
  EXPECT_EQ(a.cell_entities, b.cell_entities);
  EXPECT_EQ(a.relations, b.relations);
}

/// Tables in the repeated-value regime web corpora exhibit (Macdonald &
/// Barbosa 2020): each source table re-emitted with its rows sampled
/// cyclically from a small distinct pool, so columns repeat values
/// heavily — the case the batch prober dedupes.
Table RepeatRows(const Table& source, int rows) {
  Table out(rows, source.cols());
  const int distinct = std::max(1, source.rows() / 3);
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

class CandidateEquivalenceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const World& world = SharedWorld();
    CorpusSpec spec;
    spec.seed = 4242;
    spec.num_tables = 10;
    spec.min_rows = 4;
    spec.max_rows = 12;
    spec.join_table_prob = 0.4;
    spec.cell_typo_prob = 0.1;  // Some out-of-catalog strings.
    tables_ = new std::vector<Table>();
    for (const LabeledTable& lt : GenerateCorpus(world, spec)) {
      tables_->push_back(lt.table);
      tables_->push_back(RepeatRows(lt.table, 30));
    }
    tables_->push_back(testing_util::MakeFigure1Table());
    tables_->push_back(Table(0, 0));

    path_ = new std::string(::testing::TempDir() + "/cand_equiv.snap");
    SnapshotBuilder builder;
    builder.SetCatalog(&world.catalog).SetLemmaIndex(&SharedIndex());
    WEBTAB_CHECK_OK(builder.WriteToFile(*path_));
    Result<Snapshot> snap = Snapshot::Open(*path_);
    WEBTAB_CHECK(snap.ok()) << snap.status().ToString();
    snap_ = new Snapshot(std::move(snap.value()));
    WEBTAB_CHECK(snap_->catalog() != nullptr);
    WEBTAB_CHECK(snap_->lemma_index() != nullptr);
  }

  static void TearDownTestSuite() {
    delete snap_;
    snap_ = nullptr;
    std::remove(path_->c_str());
    delete path_;
    path_ = nullptr;
    delete tables_;
    tables_ = nullptr;
  }

  static std::vector<Table>* tables_;
  static std::string* path_;
  static Snapshot* snap_;
};

std::vector<Table>* CandidateEquivalenceTest::tables_ = nullptr;
std::string* CandidateEquivalenceTest::path_ = nullptr;
Snapshot* CandidateEquivalenceTest::snap_ = nullptr;

TEST_F(CandidateEquivalenceTest, BatchedMatchesReferenceInMemory) {
  ExpectBatchedMatchesReference(*tables_, SharedIndex(),
                                &SharedWorld().catalog);
}

TEST_F(CandidateEquivalenceTest, BatchedMatchesReferenceOnSnapshot) {
  ExpectBatchedMatchesReference(*tables_, *snap_->lemma_index(),
                                snap_->catalog());
}

// The sweep's second input: the paper-default world (seed 42) and the
// first 200 of the 800 Fig. 9 corpus tables (seed 51), built as the
// repository benchmark builds its setup corpus.
TEST(CandidateEquivalenceFig9Test, BatchedMatchesReferenceOnFig9Corpus) {
  WorldSpec world_spec;
  world_spec.seed = 42;
  const World world = GenerateWorld(world_spec);
  const LemmaIndex index(&world.catalog);
  CorpusSpec corpus_spec;
  corpus_spec.seed = 51;
  corpus_spec.num_tables = 800;
  std::vector<LabeledTable> corpus = GenerateCorpus(world, corpus_spec);
  std::vector<Table> tables;
  for (int i = 0; i < 200; ++i) tables.push_back(corpus[i].table);
  ExpectBatchedMatchesReference(tables, index, &world.catalog);
}

/// `text` with letter i upper-cased iff bit (i mod 11) of `pattern` is
/// set: a distinct raw string per pattern for names of 11+ letters,
/// tokenized identically to `text` (tokens are lower-cased).
std::string CaseVariant(const std::string& text, int pattern) {
  std::string out = text;
  int letter = 0;
  for (char& ch : out) {
    const unsigned char u = static_cast<unsigned char>(ch);
    if (!std::isalpha(u)) continue;
    ch = static_cast<char>(((pattern >> (letter % 11)) & 1)
                               ? std::toupper(u)
                               : std::tolower(u));
    ++letter;
  }
  return out;
}

// Relation votes count distinct row-pairs. Here two entity columns hold
// more than 1,024 distinct cells each, over 2^20 distinct-index
// combinations: every acted_in tuple recurs under many letter-case
// spellings, so each row is its own distinct pair.
TEST(CandidateEquivalenceWideTest, WideDistinctColumnsMatchReference) {
  const World& world = SharedWorld();
  const auto& tuples = world.true_relations[world.acted_in].tuples;
  ASSERT_FALSE(tuples.empty());
  constexpr int kRows = 1100;
  Table table(kRows, 2);
  table.set_header(0, "actor");
  table.set_header(1, "movie");
  std::set<std::string> distinct[2];
  for (int r = 0; r < kRows; ++r) {
    const auto& [actor, movie] = tuples[r % tuples.size()];
    table.set_cell(
        r, 0, CaseVariant(std::string(world.catalog.EntityName(actor)), r));
    table.set_cell(
        r, 1, CaseVariant(std::string(world.catalog.EntityName(movie)), r));
    distinct[0].insert(std::string(table.cell(r, 0)));
    distinct[1].insert(std::string(table.cell(r, 1)));
  }
  ASSERT_GT(distinct[0].size(), 1024u);
  ASSERT_GT(distinct[1].size(), 1024u);

  ClosureCache closure(&world.catalog);
  CandidateOptions options;
  TableCandidates reference =
      ReferenceGenerateCandidates(table, SharedIndex(), &closure, options);
  // Non-vacuity: the pair must collect relation votes.
  ASSERT_FALSE(reference.relations[std::make_pair(0, 1)].empty());
  ExpectBatchedMatchesReference({table}, SharedIndex(), &world.catalog);
}

// A lemma that repeats a token has one posting entry per repeat, so a
// cell's single occurrence of that token adds idf^2 to the lemma once
// per entry. Here "nova" has 35 postings; the cell pairs it with two
// out-of-vocabulary tokens, which leaves every one-"nova" lemma under
// min_entity_score while "Nora nova nova nova" clears it. A probe that
// bounds a token's contribution once per cell occurrence drops that
// candidate.
TEST(CandidateEquivalenceRepeatTest, LemmaRepeatingAWideTokenKeepsCandidate) {
  CatalogBuilder builder;
  const TypeId thing = builder.AddType("thing");
  auto add = [&](const std::string& lemma) {
    const EntityId e = builder.AddEntity(lemma);
    WEBTAB_CHECK_OK(builder.AddEntityLemma(e, lemma));
    WEBTAB_CHECK_OK(builder.AddEntityType(e, thing));
    return e;
  };
  auto letters = [](int i) {
    return std::string{static_cast<char>('a' + i / 26),
                       static_cast<char>('a' + i % 26)};
  };
  for (int i = 0; i < 32; ++i) add("Filler" + letters(i) + " nova");
  const EntityId repeated = add("Nora nova nova nova");
  // Lemmas without "nova" raise the document count, so "nova" carries
  // enough idf for the repeated lemma to reach the threshold.
  for (int i = 0; i < 67; ++i) add("Other" + letters(i));
  Result<Catalog> catalog = builder.Build();
  ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();
  const LemmaIndex index(&catalog.value());

  Table table(1, 1);
  table.set_cell(0, 0, "Quill nova Vex");
  ClosureCache closure(&catalog.value());
  CandidateOptions options;
  TableCandidates reference =
      ReferenceGenerateCandidates(table, index, &closure, options);
  ASSERT_EQ(reference.cells[0][0].size(), 1u);
  EXPECT_EQ(reference.cells[0][0][0].id, repeated);
  ExpectSameCandidates(reference, GenerateCandidates(table, index, &closure,
                                                     options));
}

TEST_F(CandidateEquivalenceTest, BackendsAgreeBitwise) {
  const World& world = SharedWorld();
  ClosureCache mem_closure(&world.catalog);
  ClosureCache snap_closure(snap_->catalog());
  CandidateOptions options;
  for (const Table& table : *tables_) {
    TableCandidates mem =
        GenerateCandidates(table, SharedIndex(), &mem_closure, options);
    TableCandidates snap = GenerateCandidates(
        table, *snap_->lemma_index(), &snap_closure, options);
    ExpectSameCandidates(mem, snap);
  }
}

TEST_F(CandidateEquivalenceTest, WorkspaceReuseAndRerunsAreStable) {
  const World& world = SharedWorld();
  ClosureCache closure(&world.catalog);
  CandidateOptions options;
  CandidateWorkspace reused;
  for (const Table& table : *tables_) {
    // Warm workspace vs transient workspace vs second run: identical —
    // nothing leaks between tables and tie-breaks are order-free.
    TableCandidates warm =
        GenerateCandidates(table, SharedIndex(), &closure, options, &reused);
    TableCandidates fresh =
        GenerateCandidates(table, SharedIndex(), &closure, options);
    TableCandidates again =
        GenerateCandidates(table, SharedIndex(), &closure, options, &reused);
    ExpectSameCandidates(warm, fresh);
    ExpectSameCandidates(warm, again);
  }
}

/// Bitwise equality of two log-potential rows.
void ExpectSameBits(const std::vector<double>& got,
                    const std::vector<double>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t l = 0; l < got.size(); ++l) {
    EXPECT_EQ(std::bit_cast<uint64_t>(got[l]), std::bit_cast<uint64_t>(want[l]))
        << "label " << l << ": " << got[l] << " vs " << want[l];
  }
}

TEST_F(CandidateEquivalenceTest, SimilarityScratchF1F2MatchReferenceBitwise) {
  // One computer threaded through every table, so the scratch's prepared
  // strings, token signatures and lemma slots carry over as they do in
  // annotation.
  const World& world = SharedWorld();
  ClosureCache closure(&world.catalog);
  Vocabulary* vocab = SharedIndex().mutable_vocabulary();
  FeatureComputer features(&closure, vocab);
  const Weights w = Weights::Default();
  CandidateOptions options;
  size_t f1_pairs = 0, f2_pairs = 0, soft_pairs = 0;
  for (size_t i = 0; i < tables_->size(); ++i) {
    SCOPED_TRACE("table " + std::to_string(i));
    const Table& table = (*tables_)[i];
    TableCandidates candidates =
        GenerateCandidates(table, SharedIndex(), &closure, options);
    for (int r = 0; r < table.rows(); ++r) {
      for (int c = 0; c < table.cols(); ++c) {
        std::vector<EntityId> domain{kNa};
        std::vector<double> per_label{0.0};
        for (const LemmaHit& hit : candidates.cells[r][c]) {
          // std::array equality compares every double exactly.
          const auto f1 = features.F1(table.cell(r, c), hit.id);
          EXPECT_EQ(f1, ReferenceF1(world.catalog, vocab, table.cell(r, c),
                                    hit.id))
              << "cell (" << r << "," << c << ") entity " << hit.id;
          ++f1_pairs;
          // Soft-TFIDF credits a near-miss token the cosine misses: the
          // prescreened Jaro-Winkler path ran and counted.
          if (f1[3] > f1[0]) ++soft_pairs;
          domain.push_back(hit.id);
          per_label.push_back(features.Phi1Log(w, table.cell(r, c), hit.id));
        }
        // The per-cell row prepares the cell once for the whole domain.
        std::vector<double> row;
        features.Phi1Logs(w, table.cell(r, c), domain, &row);
        ExpectSameBits(row, per_label);
      }
    }
    for (int c = 0; c < table.cols(); ++c) {
      std::vector<TypeId> domain{kNa};
      std::vector<double> per_label{0.0};
      for (TypeId t : candidates.column_types[c]) {
        EXPECT_EQ(features.F2(table.header(c), t),
                  ReferenceF2(world.catalog, vocab, table.header(c), t))
            << "column " << c << " type " << t;
        ++f2_pairs;
        domain.push_back(t);
        per_label.push_back(features.Phi2Log(w, table.header(c), t));
      }
      std::vector<double> row;
      features.Phi2Logs(w, table.header(c), domain, &row);
      ExpectSameBits(row, per_label);
    }
  }
  // Non-vacuity: the tables must exercise many label candidates, and
  // soft-TFIDF must beat the cosine on some of them.
  EXPECT_GT(f1_pairs, 100u);
  EXPECT_GT(f2_pairs, 100u);
  EXPECT_GT(soft_pairs, 0u);
}

TEST_F(CandidateEquivalenceTest, SnapshotAnnotationsMatchInMemory) {
  const World& world = SharedWorld();
  TableAnnotator mem(&world.catalog, &SharedIndex());
  TableAnnotator snap(snap_->catalog(), snap_->lemma_index());
  for (const Table& table : *tables_) {
    ExpectSameAnnotation(mem.Annotate(table), snap.Annotate(table));
  }
}

}  // namespace
}  // namespace webtab
