// Match-support index tests: (a) the pruned top-k property — for any k,
// on either backend and on both flat and skewed corpora, the pruned
// prefix is identical to the reference full ranking's prefix; (b)
// hostile match-support sections — checksum-valid files whose cell-token
// index lies are rejected (plain Open accepts everything structurally
// sound; OpenValidated must catch content lies, because the engines
// *skip* work based on this index and a lying one silently drops
// evidence instead of crashing).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "annotate/annotator.h"
#include "annotate/corpus_annotator.h"
#include "reference_search.h"
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
#include "text/tokenizer.h"

namespace webtab {
namespace {

using storage::Snapshot;
using storage::SnapshotBuilder;
using testing_util::CsrRowRange;
using testing_util::FixChecksum;
using testing_util::ReadPod;
using testing_util::SectionOffsetOf;
using testing_util::SharedIndex;
using testing_util::SharedWorld;
using testing_util::WriteBytes;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// --- Pruned-prefix property -----------------------------------------------

/// Asserts got == the first min(k, |full|) entries of `full` under the
/// identity contract: entity id when resolved; text when not. Display
/// text of entity answers is best-effort under pruning (query.h).
void ExpectPrefix(const std::vector<SearchResult>& got,
                  const std::vector<SearchResult>& full, int k,
                  const char* what) {
  const size_t want = std::min(full.size(), static_cast<size_t>(k));
  ASSERT_EQ(got.size(), want) << what;
  for (size_t i = 0; i < want; ++i) {
    EXPECT_EQ(got[i].entity, full[i].entity) << what << " at " << i;
    if (full[i].entity == kNa) {
      EXPECT_EQ(got[i].text, full[i].text) << what << " at " << i;
    }
  }
}

struct Backend {
  const char* name;
  const CorpusView* view;
};

class MatchSupportPrefixTest : public ::testing::TestWithParam<bool> {
 protected:
  // Parameter: skewed row distribution. Flat corpora exercise the
  // uniform-bound case (pruning must come from zero-support
  // elimination); skewed corpora give the suffix-bound break and the
  // gap stop big tables to act on.
  void SetUp() override {
    const World& world = SharedWorld();
    CorpusSpec spec;
    spec.seed = GetParam() ? 502 : 501;
    spec.num_tables = 48;
    spec.min_rows = GetParam() ? 2 : 6;
    spec.max_rows = GetParam() ? 24 : 6;
    std::vector<Table> tables;
    for (const LabeledTable& lt : GenerateCorpus(world, spec)) {
      tables.push_back(lt.table);
    }
    TableAnnotator annotator(&world.catalog, &SharedIndex());
    ClosureCache closure(&world.catalog);
    corpus_ = std::make_unique<CorpusIndex>(
        AnnotateCorpus(&annotator, tables), &closure);

    path_ = TempPath(GetParam() ? "match_support_skewed.snap"
                                : "match_support_flat.snap");
    SnapshotBuilder builder;
    builder.SetCatalog(&world.catalog).SetCorpus(corpus_.get());
    WEBTAB_CHECK_OK(builder.WriteToFile(path_));
    Result<Snapshot> snap = Snapshot::OpenValidated(path_);
    WEBTAB_CHECK(snap.ok()) << snap.status().ToString();
    snap_ = std::make_unique<Snapshot>(std::move(snap.value()));
    EXPECT_TRUE(snap_->corpus()->HasMatchSupport());
    EXPECT_EQ(snap_->version_minor(), storage::kFormatVersionMinor);
  }

  void TearDown() override {
    snap_.reset();
    std::remove(path_.c_str());
  }

  std::vector<SelectQuery> Queries() const {
    const World& world = SharedWorld();
    std::vector<SelectQuery> queries;
    const auto& tuples = world.true_relations[world.acted_in].tuples;
    const size_t stride = std::max<size_t>(1, tuples.size() / 6);
    bool ground = true;
    for (size_t i = 0; i < tuples.size(); i += stride) {
      SelectQuery q;
      q.relation = world.acted_in;
      q.type1 = world.actor;
      q.type2 = world.movie;
      q.relation_text = "acted in";
      q.type1_text = "actor";
      q.type2_text = "movie";
      q.e2 = ground ? tuples[i].second : kNa;
      if (!ground) {
        q.e2_text = std::string(world.catalog.EntityName(tuples[i].second));
      }
      queries.push_back(q);
      ground = !ground;
    }
    return queries;
  }

  std::unique_ptr<CorpusIndex> corpus_;
  std::string path_;
  std::unique_ptr<Snapshot> snap_;
};

TEST_P(MatchSupportPrefixTest, PrunedPrefixMatchesFullRankForAnyK) {
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
  const Backend backends[] = {
      {"memory", corpus_.get()},
      {"snapshot", snap_->corpus()},
  };
  SearchWorkspace ws;
  std::vector<SearchResult> got;
  // Support is checked after every call: grounded queries carry no text
  // (the empty-token sentinel path, which keeps nothing here: no cell
  // of these corpora normalizes to ""), the others are text-only.
  size_t text_kept = 0;
  for (const SelectQuery& q : Queries()) {
    NormalizedSelectQuery nq = NormalizeSelectQuery(q);
    const testing_util::SupportOracle oracle =
        testing_util::MakeSupportOracle(*corpus_, nq.e2_text);
    for (const EngineCase& engine : engines) {
      for (const Backend& backend : backends) {
        std::vector<SearchResult> full =
            engine.reference(*backend.view, q, nq);
        for (int k : {1, 5, 10, 50}) {
          engine.kernel(*backend.view, q, nq, TopKOptions{k, true}, &ws,
                        &got);
          std::string what = std::string(engine.name) + "/" +
                             backend.name + "/k=" + std::to_string(k);
          ExpectPrefix(got, full, k, what.c_str());
          testing_util::SupportCheck check = testing_util::CheckMatchSupport(
              oracle, std::span<const search_internal::PlannedTable>(ws.plan),
              ws.support_cols);
          EXPECT_EQ(check.violation, "") << what;
          text_kept += check.kept;
        }
      }
    }
  }
  EXPECT_GT(text_kept, 0u);
}

INSTANTIATE_TEST_SUITE_P(FlatAndSkewed, MatchSupportPrefixTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Skewed" : "Flat";
                         });

// --- Hostile match-support sections --------------------------------------

class MatchSupportHostileTest : public ::testing::Test {
 protected:
  // Built once: annotating the corpus is the expensive part.
  static void SetUpTestSuite() {
    const World& world = SharedWorld();
    CorpusSpec spec;
    spec.seed = 503;
    spec.num_tables = 90;
    spec.min_rows = 3;
    spec.max_rows = 6;
    std::vector<Table> tables;
    for (const LabeledTable& lt : GenerateCorpus(world, spec)) {
      tables.push_back(lt.table);
    }
    TableAnnotator annotator(&world.catalog, &SharedIndex());
    ClosureCache closure(&world.catalog);
    corpus_ = new CorpusIndex(AnnotateCorpus(&annotator, tables), &closure);
    bytes_ = new std::vector<uint8_t>();
    SnapshotBuilder builder;
    builder.SetCatalog(&world.catalog).SetCorpus(corpus_);
    WEBTAB_CHECK_OK(builder.WriteTo(bytes_));
  }

  static void TearDownTestSuite() {
    delete bytes_;
    bytes_ = nullptr;
    delete corpus_;
    corpus_ = nullptr;
  }

  uint64_t Section() const {
    uint64_t s = SectionOffsetOf(*bytes_, storage::kMatchSupportSection);
    WEBTAB_CHECK(s != 0) << "snapshot lacks a match-support section";
    return s;
  }

  /// The image with two cell-token postings of different tables swapped
  /// in one token's row, checksum fixed. BuildMatchSupport gallops each
  /// target token's row to each planned table, so table order is
  /// load-bearing: an out-of-order row would make it miss live columns,
  /// and engines would prune tables that still match.
  std::vector<uint8_t> CellTokenOrderViolation() const {
    std::vector<uint8_t> hostile = *bytes_;
    uint64_t section = Section();
    auto h = ReadPod<storage::MatchSupportHeader>(hostile, section);
    uint64_t values = section + h.cell_token_postings.values.offset;
    uint64_t victim = static_cast<uint64_t>(-1);
    for (uint64_t r = 0; r < h.cell_token_postings.row_ends.count; ++r) {
      auto [begin, end] =
          CsrRowRange(hostile, section, h.cell_token_postings, r);
      for (uint64_t i = begin; i + 1 < end; ++i) {
        auto a = ReadPod<CellTokenRef>(hostile,
                                       values + i * sizeof(CellTokenRef));
        auto b = ReadPod<CellTokenRef>(
            hostile, values + (i + 1) * sizeof(CellTokenRef));
        if (a.table != b.table) {
          victim = i;
          break;
        }
      }
      if (victim != static_cast<uint64_t>(-1)) break;
    }
    WEBTAB_CHECK(victim != static_cast<uint64_t>(-1))
        << "no token spans two tables; grow the corpus";
    auto a = ReadPod<CellTokenRef>(hostile,
                                   values + victim * sizeof(CellTokenRef));
    auto b = ReadPod<CellTokenRef>(
        hostile, values + (victim + 1) * sizeof(CellTokenRef));
    std::memcpy(hostile.data() + values + victim * sizeof(CellTokenRef), &b,
                sizeof(b));
    std::memcpy(hostile.data() + values + (victim + 1) * sizeof(CellTokenRef),
                &a, sizeof(a));
    FixChecksum(&hostile);
    return hostile;
  }

  void ExpectValidatedRejects(const std::string& name,
                              const std::vector<uint8_t>& bytes,
                              const std::string& what) {
    std::string path = TempPath(name);
    WriteBytes(path, bytes);
    EXPECT_TRUE(Snapshot::Open(path).ok())
        << "mutation should pass plain open";
    Result<Snapshot> validated = Snapshot::OpenValidated(path);
    ASSERT_FALSE(validated.ok());
    EXPECT_EQ(validated.status().code(), StatusCode::kParseError);
    EXPECT_NE(validated.status().message().find(what), std::string::npos)
        << validated.status().ToString();
    std::remove(path.c_str());
  }

  static CorpusIndex* corpus_;
  static std::vector<uint8_t>* bytes_;
};

CorpusIndex* MatchSupportHostileTest::corpus_ = nullptr;
std::vector<uint8_t>* MatchSupportHostileTest::bytes_ = nullptr;

TEST_F(MatchSupportHostileTest, OpenValidatedAcceptsIntactFile) {
  std::string path = TempPath("match_support_intact.snap");
  WriteBytes(path, *bytes_);
  Result<Snapshot> snap = Snapshot::OpenValidated(path);
  EXPECT_TRUE(snap.ok()) << snap.status().ToString();
  EXPECT_TRUE(snap->corpus()->HasMatchSupport());
  std::remove(path.c_str());
}

TEST_F(MatchSupportHostileTest, RejectsCellTokenPostingsOutOfTableOrder) {
  ExpectValidatedRejects("match_support_celltoken_order.snap",
                         CellTokenOrderViolation(),
                         "cell token postings out of table order");
}

TEST_F(MatchSupportHostileTest, DescendingColumnsWithinATableAnswerSame) {
  // DeepValidate checks only table order inside a cell-token row, so a
  // validated file may list one table's columns in any order. Support
  // is galloped per planned table and grouped by column there, so every
  // answer must stay what the in-memory index gives. The reversed run is
  // one that grouping in posting order would get wrong: a 2-token
  // director name whose tokens share E2-side column c of a planned
  // table, each only in cells of >= 2 tokens (so neither token alone
  // keeps c), and whose later token also sits in a column right of c.
  // Reversed, that token's entry at c no longer follows the other
  // token's, so c survives only if the table's entries are sorted.
  const World& world = SharedWorld();
  SelectQuery directed;
  directed.relation = world.directed;
  directed.type1 = world.movie;
  directed.type2 = world.director;
  directed.relation_text = "directed by";
  directed.type1_text = "movie";
  directed.type2_text = "director";
  auto entry_at = [&](std::string_view token, int32_t table, int32_t col) {
    for (const CellTokenRef& r : corpus_->CellTokenPostings(token)) {
      if (r.table == table && r.col == col) return r.min_tokens;
    }
    return 0;
  };
  auto is_object_col = [&](int32_t table, int32_t col) {
    for (const RelationRef& r : corpus_->RelationPostings(world.directed)) {
      if (r.table == table && (r.swapped ? r.c1 : r.c2) == col) return true;
    }
    return false;
  };
  SearchWorkspace ws;
  std::vector<SearchResult> got;
  EntityId chosen = kNa;
  std::string later_token;
  int32_t chosen_table = -1;
  for (const auto& tuple : world.true_relations[world.directed].tuples) {
    if (chosen != kNa) break;
    SelectQuery q = directed;
    q.e2_text = std::string(world.catalog.EntityName(tuple.second));
    NormalizedSelectQuery nq = NormalizeSelectQuery(q);
    std::vector<std::string> tokens = Tokenize(nq.e2_text);
    std::sort(tokens.begin(), tokens.end());
    tokens.erase(std::unique(tokens.begin(), tokens.end()), tokens.end());
    if (tokens.size() != 2) continue;
    TypeSearch(*corpus_, q, nq, TopKOptions{}, &ws, &got);
    for (const search_internal::PlannedTable& p : ws.plan) {
      for (uint32_t bi = p.b_begin; bi < p.b_end && chosen == kNa; ++bi) {
        const int32_t c = ws.col_pool[bi];
        if (entry_at(tokens[0], p.table, c) < 2 ||
            entry_at(tokens[1], p.table, c) < 2 ||
            !is_object_col(p.table, c)) {
          continue;
        }
        bool right_of_c = false;
        for (int32_t c2 = c + 1; c2 < corpus_->cols(p.table); ++c2) {
          right_of_c = right_of_c || entry_at(tokens[1], p.table, c2) > 0;
        }
        bool matches = false;
        for (int r = 0; r < corpus_->rows(p.table); ++r) {
          matches = matches || testing_util::CellMatchesText(
                                   corpus_->cell(p.table, r, c), nq.e2_text);
        }
        if (right_of_c && matches) {
          chosen = tuple.second;
          later_token = tokens[1];
          chosen_table = p.table;
        }
      }
    }
  }
  ASSERT_NE(chosen, kNa) << "no run fits; change the corpus seed";
  std::vector<uint8_t> hostile = *bytes_;
  ASSERT_GE(testing_util::ReverseCellTokenRun(&hostile, later_token,
                                              chosen_table),
            2u);
  std::string path = TempPath("match_support_descending.snap");
  WriteBytes(path, hostile);
  Result<Snapshot> snap = Snapshot::OpenValidated(path);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  const CorpusView& view = *snap->corpus();

  struct EngineCase {
    const char* name;
    void (*kernel)(const CorpusView&, const SelectQuery&,
                   const NormalizedSelectQuery&, const TopKOptions&,
                   SearchWorkspace*, std::vector<SearchResult>*);
  };
  const EngineCase engines[] = {{"baseline", &BaselineSearch},
                                {"type", &TypeSearch},
                                {"type_relation", &TypeRelationSearch}};
  auto expect_same = [](const std::vector<SearchResult>& got,
                        const std::vector<SearchResult>& want,
                        const std::string& what) {
    ASSERT_EQ(got.size(), want.size()) << what;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].entity, want[i].entity) << what << " @" << i;
      EXPECT_EQ(got[i].text, want[i].text) << what << " @" << i;
      EXPECT_EQ(got[i].score, want[i].score) << what << " @" << i;
    }
  };
  const auto& tuples = world.true_relations[world.directed].tuples;
  std::vector<EntityId> directors = {chosen};
  for (size_t i = 0; i < tuples.size(); i += tuples.size() / 6) {
    directors.push_back(tuples[i].second);
  }
  std::vector<SearchResult> want;
  size_t chosen_results = 0;
  for (EntityId d : directors) {
    const std::string name(world.catalog.EntityName(d));
    for (EntityId e2 : {d, kNa}) {
      SelectQuery q = directed;
      q.e2 = e2;
      q.e2_text = name;
      NormalizedSelectQuery nq = NormalizeSelectQuery(q);
      for (const EngineCase& engine : engines) {
        for (const TopKOptions& topk : {TopKOptions{}, TopKOptions{5, true}}) {
          const std::string what = std::string(engine.name) + " e2=" + name +
                                   " k=" + std::to_string(topk.k);
          engine.kernel(*corpus_, q, nq, topk, &ws, &want);
          engine.kernel(view, q, nq, topk, &ws, &got);
          expect_same(got, want, what);
          if (d == chosen) chosen_results += want.size();
        }
      }
      // "Actors in movies directed by D": leg 2 grounds the movie from
      // directed(movie, D), the only leg that matches D's name as text.
      JoinQuery jq;
      jq.r1 = world.acted_in;
      jq.e1_is_subject = false;
      jq.r2 = world.directed;
      jq.e2_is_subject = true;
      jq.e3 = e2;
      jq.e3_text = name;
      for (const TopKOptions& topk : {TopKOptions{}, TopKOptions{5, true}}) {
        JoinSearch(*corpus_, jq, topk, &ws, &want);
        JoinSearch(view, jq, topk, &ws, &got);
        expect_same(got, want, "join e3=" + name);
        if (d == chosen) chosen_results += want.size();
      }
    }
  }
  EXPECT_GT(chosen_results, 0u);
  std::remove(path.c_str());
}

TEST_F(MatchSupportHostileTest, WritesDeepInvalidImageForSnapshotTool) {
  // The setup half of a ctest fixture pair: `snapshot_tool verify` on
  // this checksum-valid, deep-invalid image must exit nonzero.
  const char* path = std::getenv("WEBTAB_DEEP_INVALID_SNAPSHOT");
  if (path == nullptr) GTEST_SKIP() << "WEBTAB_DEEP_INVALID_SNAPSHOT unset";
  WriteBytes(path, CellTokenOrderViolation());
  EXPECT_TRUE(Snapshot::Open(path).ok());
  EXPECT_FALSE(Snapshot::OpenValidated(path).ok());
}

TEST_F(MatchSupportHostileTest, NonPositiveMinTokensRejectedAtOpen) {
  // min_tokens >= 1 is structural (a zero would divide the Jaccard
  // feasibility cap), so even plain Open rejects it at attach time.
  std::vector<uint8_t> hostile = *bytes_;
  uint64_t section = Section();
  auto h = ReadPod<storage::MatchSupportHeader>(hostile, section);
  ASSERT_GE(h.cell_token_postings.values.count, 1u);
  uint64_t first = section + h.cell_token_postings.values.offset +
                   offsetof(CellTokenRef, min_tokens);
  int32_t zero = 0;
  std::memcpy(hostile.data() + first, &zero, sizeof(zero));
  FixChecksum(&hostile);
  std::string path = TempPath("match_support_mintokens.snap");
  WriteBytes(path, hostile);
  Result<Snapshot> opened = Snapshot::Open(path);
  ASSERT_FALSE(opened.ok());
  EXPECT_NE(opened.status().message().find("non-positive min_tokens"),
            std::string::npos)
      << opened.status().ToString();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace webtab
