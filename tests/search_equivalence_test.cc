// Property test for the table-at-a-time search kernel: on both corpus
// backends (in-memory CorpusIndex and mmap'd snapshot), every engine's
// full ranking must be byte-identical to the retained map/set reference
// implementation (tests/reference_search.h), and every top-k request —
// pruning on or off, across several k — must return exactly the full
// ranking's prefix under the documented tie-break.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "annotate/annotator.h"
#include "reference_search.h"
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

using search_internal::PlannedTable;
using storage::Snapshot;
using storage::SnapshotBuilder;
using testing_util::CheckMatchSupport;
using testing_util::MakeSupportOracle;
using testing_util::ReferenceBaselineSearch;
using testing_util::ReferenceJoinSearch;
using testing_util::ReferenceTypeRelationSearch;
using testing_util::ReferenceTypeSearch;
using testing_util::SharedIndex;
using testing_util::SharedWorld;
using testing_util::SupportCheck;
using testing_util::SupportOracle;

void ExpectExact(const std::vector<SearchResult>& got,
                 const std::vector<SearchResult>& want,
                 const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].entity, want[i].entity) << context << " @" << i;
    EXPECT_EQ(got[i].text, want[i].text) << context << " @" << i;
    EXPECT_EQ(got[i].score, want[i].score)  // Bitwise double equality.
        << context << " @" << i;
  }
}

/// Prefix identity: same answers in the same order. Scores may be the
/// pruned path's lower bounds, so they are not compared; an answer's
/// identity is its entity id when resolved and its text when not (an
/// entity answer's display text is only guaranteed from scanned
/// tables under pruning — see the TopKOptions contract).
void ExpectSamePrefix(const std::vector<SearchResult>& got,
                      const std::vector<SearchResult>& full, int k,
                      const std::string& context) {
  const size_t want = std::min(full.size(), static_cast<size_t>(k));
  ASSERT_EQ(got.size(), want) << context;
  for (size_t i = 0; i < want; ++i) {
    EXPECT_EQ(got[i].entity, full[i].entity) << context << " @" << i;
    if (full[i].entity == kNa) {
      EXPECT_EQ(got[i].text, full[i].text) << context << " @" << i;
    }
  }
}

/// Kept and eliminated column counts of checked support results, split
/// by target size, so a sweep can prove it exercised both outcomes of
/// the single-token arm (2-token targets) and of the clique test
/// (3 or more tokens).
struct SupportTally {
  size_t kept[2] = {0, 0};        // [2 tokens, >= 3 tokens]
  size_t eliminated[2] = {0, 0};  // [2 tokens, >= 3 tokens]

  void Add(const SupportOracle& oracle, const SupportCheck& check) {
    if (oracle.target_tokens < 2) return;
    const int size_class = oracle.target_tokens == 2 ? 0 : 1;
    kept[size_class] += check.kept;
    eliminated[size_class] += check.eliminated;
  }
};

/// The last select call's match support must equal the oracle's,
/// restricted to the tables of its plan, and keep every planned column
/// that holds a text-matching cell.
void ExpectPlanSupport(const SearchWorkspace& ws,
                       const SupportOracle& oracle,
                       const std::string& context,
                       SupportTally* tally = nullptr) {
  SupportCheck check = CheckMatchSupport(
      oracle, std::span<const PlannedTable>(ws.plan), ws.support_cols);
  EXPECT_EQ(check.violation, "") << context;
  if (tally != nullptr) tally->Add(oracle, check);
}

class SearchEquivalenceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const World& world = SharedWorld();
    CorpusSpec spec;
    spec.seed = 4321;
    spec.num_tables = 48;
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

    path_ = new std::string(::testing::TempDir() + "/search_equiv.snap");
    SnapshotBuilder builder;
    builder.SetCatalog(&world.catalog)
        .SetLemmaIndex(&SharedIndex())
        .SetCorpus(mem_corpus_);
    WEBTAB_CHECK_OK(builder.WriteToFile(*path_));
    // OpenValidated also exercises the new postings table-order checks
    // on a well-formed file.
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
      // Sample E2 values from the relation's hidden truth — the same
      // distribution the corpus generator draws rows from, so queries
      // actually hit tables.
      const auto& tuples = world.true_relations[rel].tuples;
      const size_t stride = std::max<size_t>(1, tuples.size() / 6);
      for (size_t i = 0; i < tuples.size(); i += stride) {
        EntityId e = tuples[i].second;
        SelectQuery q = base;
        q.e2 = e;
        q.e2_text = std::string(world.catalog.EntityName(e));
        queries.push_back(q);
        // The same string ungrounded (paper: E2 not in the catalog).
        q.e2 = kNa;
        queries.push_back(q);
      }
      SelectQuery junk = base;
      junk.e2 = kNa;
      junk.e2_text = "no such thing anywhere";
      queries.push_back(junk);
    };
    add_family(world.acted_in, world.actor, world.movie, "acted in",
               "actor", "movie");
    add_family(world.directed, world.movie, world.director, "directed by",
               "movie", "director");
    add_family(world.wrote, world.novelist, world.novel, "wrote", "author",
               "novel title");
    return queries;
  }

  static CorpusIndex* mem_corpus_;
  static std::string* path_;
  static Snapshot* snap_;
};

CorpusIndex* SearchEquivalenceTest::mem_corpus_ = nullptr;
std::string* SearchEquivalenceTest::path_ = nullptr;
Snapshot* SearchEquivalenceTest::snap_ = nullptr;

struct EngineCase {
  const char* name;
  std::vector<SearchResult> (*reference)(const CorpusView&,
                                         const SelectQuery&,
                                         const NormalizedSelectQuery&);
  void (*kernel)(const CorpusView&, const SelectQuery&,
                 const NormalizedSelectQuery&, const TopKOptions&,
                 SearchWorkspace*, std::vector<SearchResult>*);
};

const EngineCase kEngines[] = {
    {"baseline", &ReferenceBaselineSearch, &BaselineSearch},
    {"type", &ReferenceTypeSearch, &TypeSearch},
    {"type_relation", &ReferenceTypeRelationSearch, &TypeRelationSearch},
};

TEST_F(SearchEquivalenceTest, FullRankMatchesReferenceOnBothBackends) {
  // One workspace threaded through every query, engine and backend —
  // epoch hygiene is part of what this asserts.
  SearchWorkspace ws;
  std::vector<SearchResult> got;
  const CorpusView& snap_view = *snap_->corpus();
  size_t total_results = 0;
  SupportTally tally;
  for (const SelectQuery& q : SelectQueries()) {
    NormalizedSelectQuery nq = NormalizeSelectQuery(q);
    const SupportOracle oracle = MakeSupportOracle(*mem_corpus_, nq.e2_text);
    for (const EngineCase& engine : kEngines) {
      std::string context = std::string(engine.name) + " e2=" + q.e2_text;
      std::vector<SearchResult> want =
          engine.reference(*mem_corpus_, q, nq);
      total_results += want.size();
      engine.kernel(*mem_corpus_, q, nq, TopKOptions{}, &ws, &got);
      ExpectExact(got, want, context + " [mem]");
      ExpectPlanSupport(ws, oracle, context + " [mem]", &tally);
      engine.kernel(snap_view, q, nq, TopKOptions{}, &ws, &got);
      ExpectExact(got, want, context + " [snap]");
      ExpectPlanSupport(ws, oracle, context + " [snap]");
    }
  }
  // Non-vacuity: the corpus and query set must actually exercise the
  // aggregation/ranking paths, not just agree on emptiness.
  EXPECT_GT(total_results, 100u);
  // ... and match support must both keep and eliminate columns that
  // hold a target token, for 2-token and for longer targets.
  for (int size_class = 0; size_class < 2; ++size_class) {
    EXPECT_GT(tally.kept[size_class], 0u) << size_class;
    EXPECT_GT(tally.eliminated[size_class], 0u) << size_class;
  }
}

TEST_F(SearchEquivalenceTest, TopKPrefixMatchesReferenceForAllK) {
  SearchWorkspace ws;
  std::vector<SearchResult> got;
  const CorpusView& snap_view = *snap_->corpus();
  const int ks[] = {1, 2, 5, 20, 1000};
  for (const SelectQuery& q : SelectQueries()) {
    NormalizedSelectQuery nq = NormalizeSelectQuery(q);
    const SupportOracle oracle = MakeSupportOracle(*mem_corpus_, nq.e2_text);
    for (const EngineCase& engine : kEngines) {
      std::vector<SearchResult> full =
          engine.reference(*mem_corpus_, q, nq);
      for (int k : ks) {
        for (bool prune : {false, true}) {
          std::string context = std::string(engine.name) +
                                " e2=" + q.e2_text +
                                " k=" + std::to_string(k) +
                                (prune ? " pruned" : " unpruned");
          engine.kernel(*mem_corpus_, q, nq, TopKOptions{k, prune}, &ws,
                        &got);
          ExpectSamePrefix(got, full, k, context + " [mem]");
          ExpectPlanSupport(ws, oracle, context + " [mem]");
          if (!prune) {
            // Without pruning, top-k is the exact ranking truncated:
            // scores are bit-identical too.
            for (size_t i = 0; i < got.size(); ++i) {
              EXPECT_EQ(got[i].score, full[i].score) << context;
            }
          }
          engine.kernel(snap_view, q, nq, TopKOptions{k, prune}, &ws,
                        &got);
          ExpectSamePrefix(got, full, k, context + " [snap]");
          ExpectPlanSupport(ws, oracle, context + " [snap]");
        }
      }
    }
  }
}

TEST_F(SearchEquivalenceTest, ExplainLogAgreesWithCountersEverywhere) {
  // The EXPLAIN invariants, swept across k x engine x backend x prune:
  //   log.size()        == stats().tables_planned
  //   count(kScored)    == stats().tables_scored
  //   any non-scored    == stats().stopped_early
  // and the bounds are flagged meaningful exactly when pruning ran.
  using Verdict = SearchWorkspace::TableDecision::Verdict;
  SearchWorkspace ws;
  ws.EnableExplain(true);
  std::vector<SearchResult> got;
  const CorpusView& snap_view = *snap_->corpus();
  const CorpusView* backends[] = {mem_corpus_, &snap_view};
  const char* backend_names[] = {"mem", "snap"};
  const int ks[] = {0, 1, 5, 1000};
  int64_t pruned_entries = 0;
  for (const SelectQuery& q : SelectQueries()) {
    NormalizedSelectQuery nq = NormalizeSelectQuery(q);
    for (const EngineCase& engine : kEngines) {
      for (int b = 0; b < 2; ++b) {
        for (int k : ks) {
          for (bool prune : {false, true}) {
            std::string context = std::string(engine.name) + " e2=" +
                                  q.e2_text + " k=" + std::to_string(k) +
                                  (prune ? " pruned " : " unpruned ") +
                                  backend_names[b];
            engine.kernel(*backends[b], q, nq, TopKOptions{k, prune},
                          &ws, &got);
            const SearchWorkspace::QueryStats& stats = ws.stats();
            ASSERT_EQ(ws.decision_log.size(),
                      static_cast<size_t>(stats.tables_planned))
                << context;
            int scored = 0;
            bool any_pruned = false;
            for (const SearchWorkspace::TableDecision& d :
                 ws.decision_log) {
              if (d.verdict == Verdict::kScored) {
                ++scored;
              } else {
                any_pruned = true;
                ++pruned_entries;
              }
            }
            EXPECT_EQ(scored, stats.tables_scored) << context;
            EXPECT_EQ(any_pruned, stats.stopped_early) << context;
            // Bounds are meaningful exactly when pruning actually ran.
            EXPECT_EQ(ws.decision_bounds_valid, k > 0 && prune)
                << context;
          }
        }
      }
    }
  }
  // Non-vacuity: the sweep must have exercised pruned verdicts, not
  // only full scans. (The crafted-corpus test below pins down the
  // specific kPrunedSuffix early-stop shape.)
  EXPECT_GT(pruned_entries, 0);

  // Turning explain off leaves the log empty again — the serving
  // default pays nothing.
  ws.EnableExplain(false);
  const SelectQuery q = SelectQueries().front();
  NormalizedSelectQuery nq = NormalizeSelectQuery(q);
  kEngines[0].kernel(*mem_corpus_, q, nq, TopKOptions{5, true}, &ws,
                     &got);
  EXPECT_TRUE(ws.decision_log.empty());
}

TEST_F(SearchEquivalenceTest, JoinExplainCountsRelationRuns) {
  using Verdict = SearchWorkspace::TableDecision::Verdict;
  const World& world = SharedWorld();
  SearchWorkspace ws;
  ws.EnableExplain(true);
  std::vector<SearchResult> got;
  // "Actors in movies directed by D": acted_in(movie, actor) and
  // directed(movie, director), so e1 is the object of R1 and the join
  // variable the subject of R2.
  const EntityId director =
      world.true_relations[world.directed].tuples[0].second;
  JoinQuery jq;
  jq.r1 = world.acted_in;
  jq.e1_is_subject = false;
  jq.r2 = world.directed;
  jq.e2_is_subject = true;
  jq.e3 = director;
  jq.e3_text = std::string(world.catalog.EntityName(director));
  JoinSearch(*mem_corpus_, jq, TopKOptions{3, true}, &ws, &got);
  ASSERT_EQ(ws.decision_log.size(),
            static_cast<size_t>(ws.stats().tables_planned));
  int scored = 0;
  for (const SearchWorkspace::TableDecision& d : ws.decision_log) {
    // The join engine's eliminations are support proofs, not bound
    // comparisons: only these two verdicts can appear, and the bounds
    // stay flagged meaningless.
    EXPECT_TRUE(d.verdict == Verdict::kScored ||
                d.verdict == Verdict::kPrunedZeroBound);
    if (d.verdict == Verdict::kScored) ++scored;
  }
  EXPECT_EQ(scored, ws.stats().tables_scored);
  // Non-vacuity: the query scores some runs and proves others matchless.
  EXPECT_GT(scored, 0);
  EXPECT_LT(scored, ws.stats().tables_planned);
  EXPECT_FALSE(got.empty());
  EXPECT_FALSE(ws.decision_bounds_valid);
}

TEST_F(SearchEquivalenceTest, JoinMatchesReferenceOnBothBackends) {
  const World& world = SharedWorld();
  SearchWorkspace ws;
  std::vector<SearchResult> got;
  const CorpusView& snap_view = *snap_->corpus();
  // "Actors in movies directed by D" (see JoinExplainCountsRelationRuns)
  // for four evenly strided directors, each grounded, text-grounded, and
  // text-grounded with binding truncation.
  const auto& directed = world.true_relations[world.directed].tuples;
  std::vector<JoinQuery> queries;
  for (size_t j = 0; j < 4; ++j) {
    const EntityId director = directed[j * directed.size() / 4].second;
    JoinQuery jq;
    jq.r1 = world.acted_in;
    jq.e1_is_subject = false;
    jq.r2 = world.directed;
    jq.e2_is_subject = true;
    jq.e3 = director;
    jq.e3_text = std::string(world.catalog.EntityName(director));
    queries.push_back(jq);
    jq.e3 = kNa;  // Text-fallback grounding.
    queries.push_back(jq);
    jq.max_join_entities = 2;  // Exercise binding truncation.
    queries.push_back(jq);
  }
  int grounded_nonempty = 0, text_nonempty = 0;
  for (const JoinQuery& jq : queries) {
    std::vector<SearchResult> want = ReferenceJoinSearch(*mem_corpus_, jq);
    if (!want.empty() && jq.e3 != kNa) ++grounded_nonempty;
    if (!want.empty() && jq.e3 == kNa) ++text_nonempty;
    // Leg 2 is the join's only text leg: its support covers R2's tables.
    const SupportOracle oracle =
        MakeSupportOracle(*mem_corpus_, NormalizeText(jq.e3_text));
    auto expect_leg2_support = [&](const CorpusView& view,
                                   const char* context) {
      SupportCheck check = CheckMatchSupport(
          oracle, view.RelationPostings(jq.r2), ws.support_cols);
      EXPECT_EQ(check.violation, "") << context;
    };
    JoinSearch(*mem_corpus_, jq, TopKOptions{}, &ws, &got);
    ExpectExact(got, want, "join [mem]");
    expect_leg2_support(*mem_corpus_, "join [mem]");
    JoinSearch(snap_view, jq, TopKOptions{}, &ws, &got);
    ExpectExact(got, want, "join [snap]");
    expect_leg2_support(snap_view, "join [snap]");
    JoinSearch(*mem_corpus_, jq, TopKOptions{3, true}, &ws, &got);
    ExpectSamePrefix(got, want, 3, "join k=3");
    expect_leg2_support(*mem_corpus_, "join k=3");
  }
  // Non-vacuity: both grounding paths must produce real rankings.
  EXPECT_GT(grounded_nonempty, 0);
  EXPECT_GT(text_nonempty, 0);
}

TEST_F(SearchEquivalenceTest, MemoMatchesCellMatchesText) {
  // The workspace's memoized predicate must agree with the shared
  // CellMatchesText ground truth on every (cell, target) pair the
  // corpus can produce — including repeats, near-misses and empties.
  const std::vector<std::string> targets = {
      "george clooney", "the quest", "a einstein", "", "2008",
      "no such thing anywhere"};
  SearchWorkspace ws;
  for (const std::string& raw_target : targets) {
    std::string target = NormalizeText(raw_target);
    ws.BeginSelect(target);
    for (int t = 0; t < mem_corpus_->num_tables(); ++t) {
      for (int r = 0; r < mem_corpus_->rows(t); ++r) {
        for (int c = 0; c < mem_corpus_->cols(t); ++c) {
          std::string_view cell = mem_corpus_->cell(t, r, c);
          bool want = testing_util::CellMatchesText(cell, target);
          // Probe twice: compute path and memo-hit path.
          EXPECT_EQ(ws.CellMatches(cell), want) << cell;
          EXPECT_EQ(ws.CellMatches(cell), want) << cell;
        }
      }
    }
  }
}

// --- Crafted-corpus prune behavior ----------------------------------------

class SearchPruneTest : public ::testing::Test {
 protected:
  SearchPruneTest()
      : w_(testing_util::MakeFigure1World()),
        closure_(&w_.catalog),
        index_(MakeCorpus(), &closure_) {}

  /// Table 0: one dominant answer (b41 in 40 rows) plus a 1-row
  /// runner-up. Tables 1..5: one matching row each. With k=1 the gap
  /// after table 0 (40 - 1 = 39) exceeds the remaining bound mass
  /// (5 tables x 1 row x 1.0), so the kernel can prove the prefix and
  /// stop.
  std::vector<AnnotatedTable> MakeCorpus() {
    std::vector<AnnotatedTable> corpus;
    auto make_table = [&](int rows, EntityId answer) {
      AnnotatedTable at;
      at.table = Table(rows, 2);
      at.annotation = TableAnnotation::Empty(rows, 2);
      at.annotation.column_types[0] = w_.book;
      at.annotation.column_types[1] = w_.person;
      for (int r = 0; r < rows; ++r) {
        at.table.set_cell(r, 0, "Some Book");
        at.table.set_cell(r, 1, "A. Einstein");
        at.annotation.cell_entities[r][0] = answer;
        at.annotation.cell_entities[r][1] = w_.einstein;
      }
      return at;
    };
    AnnotatedTable hot = make_table(41, w_.b41);
    hot.annotation.cell_entities[40][0] = w_.b95;  // Runner-up row.
    corpus.push_back(hot);
    for (int i = 0; i < 5; ++i) corpus.push_back(make_table(1, w_.b95));
    return corpus;
  }

  SelectQuery Query() {
    SelectQuery q;
    q.type1 = w_.book;
    q.type2 = w_.person;
    q.e2 = w_.einstein;
    q.e2_text = "A. Einstein";
    return q;
  }

  testing_util::Figure1World w_;
  ClosureCache closure_;
  CorpusIndex index_;
};

TEST_F(SearchPruneTest, StopsEarlyAndPrefixStaysExact) {
  SearchWorkspace ws;
  std::vector<SearchResult> got;
  SelectQuery q = Query();
  NormalizedSelectQuery nq = NormalizeSelectQuery(q);

  std::vector<SearchResult> full = ReferenceTypeSearch(index_, q, nq);
  ASSERT_GE(full.size(), 2u);
  ASSERT_EQ(full[0].entity, w_.b41);

  TypeSearch(index_, q, nq, TopKOptions{1, true}, &ws, &got);
  EXPECT_TRUE(ws.stats().stopped_early);
  EXPECT_LT(ws.stats().tables_scored, ws.stats().tables_planned);
  ExpectSamePrefix(got, full, 1, "crafted prune");

  // Pruning off scans everything and reproduces exact scores.
  TypeSearch(index_, q, nq, TopKOptions{1, false}, &ws, &got);
  EXPECT_FALSE(ws.stats().stopped_early);
  EXPECT_EQ(ws.stats().tables_scored, ws.stats().tables_planned);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].score, full[0].score);
}

TEST_F(SearchPruneTest, ExplainRecordsSuffixPrunesOnEarlyStop) {
  // The crafted early stop, through the EXPLAIN lens: the hot table is
  // scored, everything behind the stop point is logged kPrunedSuffix
  // with the suffix bound that justified the stop.
  using Verdict = SearchWorkspace::TableDecision::Verdict;
  SearchWorkspace ws;
  ws.EnableExplain(true);
  std::vector<SearchResult> got;
  SelectQuery q = Query();
  NormalizedSelectQuery nq = NormalizeSelectQuery(q);

  TypeSearch(index_, q, nq, TopKOptions{1, true}, &ws, &got);
  ASSERT_TRUE(ws.stats().stopped_early);
  ASSERT_EQ(ws.decision_log.size(),
            static_cast<size_t>(ws.stats().tables_planned));
  EXPECT_TRUE(ws.decision_bounds_valid);
  // Scan order: the scored prefix comes first, then the pruned tail —
  // once a table is pruned by the stop, no later entry is scored.
  int suffix_pruned = 0;
  bool seen_pruned = false;
  for (const SearchWorkspace::TableDecision& d : ws.decision_log) {
    if (d.verdict == Verdict::kPrunedSuffix) {
      ++suffix_pruned;
      seen_pruned = true;
      // The justifying bounds: each pruned table's own bound fits under
      // the suffix mass that proved the tail a no-op for the ranking.
      EXPECT_GE(d.suffix_after, 0.0);
      EXPECT_LE(d.bound, ws.decision_log.front().suffix_after);
    } else {
      EXPECT_FALSE(seen_pruned) << "scored entry after the stop point";
    }
  }
  EXPECT_GT(suffix_pruned, 0);
  EXPECT_EQ(ws.decision_log.front().verdict, Verdict::kScored);

  // Pruning off: every table scored, bounds flagged meaningless.
  TypeSearch(index_, q, nq, TopKOptions{1, false}, &ws, &got);
  ASSERT_EQ(ws.decision_log.size(),
            static_cast<size_t>(ws.stats().tables_planned));
  EXPECT_FALSE(ws.decision_bounds_valid);
  for (const SearchWorkspace::TableDecision& d : ws.decision_log) {
    EXPECT_EQ(d.verdict, Verdict::kScored);
  }
}

TEST_F(SearchPruneTest, TiedScoresBlockStopping) {
  // Two answers tied at the top: the gap rule must refuse to stop (a
  // stop could mis-order the tie against the documented tie-break).
  SearchWorkspace ws;
  std::vector<SearchResult> got;
  std::vector<AnnotatedTable> corpus = MakeCorpus();
  // Rewrite the hot table so b41 and b95 tie at 20 rows each (row 40
  // goes to a third answer), and point the five cold single-row tables
  // at that third answer so remaining bound mass stays positive while
  // the tie sits inside the top k+1.
  for (int r = 20; r < 40; ++r) {
    corpus[0].annotation.cell_entities[r][0] = w_.b95;
  }
  corpus[0].annotation.cell_entities[40][0] = w_.b94;
  for (size_t t = 1; t < corpus.size(); ++t) {
    corpus[t].annotation.cell_entities[0][0] = w_.b94;
  }
  ClosureCache closure(&w_.catalog);
  CorpusIndex tied(std::move(corpus), &closure);

  SelectQuery q = Query();
  NormalizedSelectQuery nq = NormalizeSelectQuery(q);
  std::vector<SearchResult> full = ReferenceTypeSearch(tied, q, nq);
  ASSERT_GE(full.size(), 3u);
  ASSERT_EQ(full[0].score, full[1].score);  // A genuine tie.
  // Ties rank by ascending entity id (the fixed convention).
  EXPECT_LT(full[0].entity, full[1].entity);

  TypeSearch(tied, q, nq, TopKOptions{2, true}, &ws, &got);
  // After the hot table the top-2 gap is zero, so the prune rule must
  // keep scanning to the end.
  EXPECT_FALSE(ws.stats().stopped_early);
  EXPECT_EQ(ws.stats().tables_scored, ws.stats().tables_planned);
  ExpectSamePrefix(got, full, 2, "tied");
}

}  // namespace
}  // namespace webtab
