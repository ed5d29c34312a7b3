#include "inference/table_graph.h"

#include <gtest/gtest.h>

#include <bit>
#include <map>
#include <set>
#include <utility>

#include "inference/belief_propagation.h"
#include "inference/brute_force.h"
#include "synth/corpus_generator.h"
#include "test_world.h"

namespace webtab {
namespace {

using testing_util::Figure1World;
using testing_util::MakeFigure1Table;
using testing_util::MakeFigure1World;
using testing_util::SharedIndex;
using testing_util::SharedWorld;

class TableGraphTest : public ::testing::Test {
 protected:
  TableGraphTest()
      : w_(MakeFigure1World()),
        index_(&w_.catalog),
        closure_(&w_.catalog),
        features_(&closure_, index_.vocabulary()),
        table_(MakeFigure1Table()) {
    candidates_ = GenerateCandidates(table_, index_, &closure_,
                                     CandidateOptions());
    space_ = TableLabelSpace::Build(table_, candidates_);
  }

  Figure1World w_;
  LemmaIndex index_;
  ClosureCache closure_;
  FeatureComputer features_;
  Table table_;
  TableCandidates candidates_;
  TableLabelSpace space_;
};

TEST_F(TableGraphTest, StructureMatchesFigure10) {
  TableGraph graph = BuildTableGraph(table_, space_, &features_,
                                     Weights::Default());
  // 2 type vars + 4 entity vars + 1 relation var.
  EXPECT_EQ(graph.graph.num_variables(), 7);
  // φ3 per (col, row) = 4; φ5 per (pair, row) = 2; φ4 per pair = 1.
  int phi3 = 0, phi4 = 0, phi5 = 0;
  for (int f = 0; f < graph.graph.num_factors(); ++f) {
    switch (graph.graph.factor(f).group) {
      case kGroupPhi3: ++phi3; break;
      case kGroupPhi4: ++phi4; break;
      case kGroupPhi5: ++phi5; break;
      default: FAIL() << "unexpected group";
    }
  }
  EXPECT_EQ(phi3, 4);
  EXPECT_EQ(phi5, 2);
  EXPECT_EQ(phi4, 1);
}

TEST_F(TableGraphTest, NoRelationsOptionOmitsRelationMachinery) {
  TableGraphOptions options;
  options.use_relations = false;
  TableGraph graph = BuildTableGraph(table_, space_, &features_,
                                     Weights::Default(), options);
  EXPECT_TRUE(graph.relation_var.empty());
  for (int f = 0; f < graph.graph.num_factors(); ++f) {
    EXPECT_EQ(graph.graph.factor(f).group, kGroupPhi3);
  }
}

TEST_F(TableGraphTest, DecodeOfBpGetsFigure1Right) {
  TableGraph graph = BuildTableGraph(table_, space_, &features_,
                                     Weights::Default());
  BpResult bp = RunBeliefPropagation(graph.graph);
  TableAnnotation annotation = bp.assignment.empty()
                                   ? TableAnnotation::Empty(2, 2)
                                   : graph.DecodeAssignment(bp.assignment,
                                                            space_);
  // The core Figure 1 claim: despite 'Title' ambiguity and "A. Einstein",
  // the collective model labels books + person and resolves entities.
  EXPECT_EQ(annotation.TypeOf(0), w_.book);
  EXPECT_EQ(annotation.EntityOf(0, 0), w_.b95);
  EXPECT_EQ(annotation.EntityOf(1, 0), w_.b41);
  EXPECT_EQ(annotation.EntityOf(0, 1), w_.stannard);
  EXPECT_EQ(annotation.EntityOf(1, 1), w_.einstein);
  RelationCandidate rel = annotation.RelationOf(0, 1);
  EXPECT_EQ(rel.relation, w_.author);
  EXPECT_FALSE(rel.swapped);
}

TEST_F(TableGraphTest, EncodeDecodeRoundTrip) {
  TableGraph graph = BuildTableGraph(table_, space_, &features_,
                                     Weights::Default());
  TableAnnotation annotation = TableAnnotation::Empty(2, 2);
  annotation.column_types[0] = w_.book;
  annotation.cell_entities[1][1] = w_.einstein;
  annotation.relations[{0, 1}] = RelationCandidate{w_.author, false};
  std::vector<int> assignment = graph.EncodeAnnotation(annotation, space_);
  TableAnnotation back = graph.DecodeAssignment(assignment, space_);
  EXPECT_EQ(back.TypeOf(0), w_.book);
  EXPECT_EQ(back.EntityOf(1, 1), w_.einstein);
  EXPECT_EQ(back.RelationOf(0, 1), (RelationCandidate{w_.author, false}));
}

TEST_F(TableGraphTest, EncodeMissingLabelFallsBackToNa) {
  TableGraph graph = BuildTableGraph(table_, space_, &features_,
                                     Weights::Default());
  TableAnnotation annotation = TableAnnotation::Empty(2, 2);
  annotation.cell_entities[0][0] = 999999;  // Not in any domain.
  std::vector<int> assignment = graph.EncodeAnnotation(annotation, space_);
  TableAnnotation back = graph.DecodeAssignment(assignment, space_);
  EXPECT_EQ(back.EntityOf(0, 0), kNa);
}

TEST_F(TableGraphTest, GraphScoreMatchesManualSum) {
  // Score of an assignment through the graph must equal summing the
  // potentials by hand (φ1+φ2+φ3+φ4+φ5).
  Weights w = Weights::Default();
  TableGraph graph = BuildTableGraph(table_, space_, &features_, w);
  TableAnnotation annotation = TableAnnotation::Empty(2, 2);
  annotation.column_types[0] = w_.book;
  annotation.column_types[1] = w_.person;
  annotation.cell_entities[0][0] = w_.b95;
  annotation.cell_entities[1][0] = w_.b41;
  annotation.cell_entities[0][1] = w_.stannard;
  annotation.cell_entities[1][1] = w_.einstein;
  annotation.relations[{0, 1}] = RelationCandidate{w_.author, false};

  std::vector<int> assignment = graph.EncodeAnnotation(annotation, space_);
  double graph_score = graph.graph.ScoreAssignment(assignment);

  double manual = 0.0;
  for (int c = 0; c < 2; ++c) {
    manual += features_.Phi2Log(w, table_.header(c),
                                annotation.TypeOf(c));
    for (int r = 0; r < 2; ++r) {
      manual += features_.Phi1Log(w, table_.cell(r, c),
                                  annotation.EntityOf(r, c));
      manual += features_.Phi3Log(w, annotation.TypeOf(c),
                                  annotation.EntityOf(r, c));
    }
  }
  RelationCandidate rel = annotation.RelationOf(0, 1);
  manual += features_.Phi4Log(w, rel, w_.book, w_.person);
  for (int r = 0; r < 2; ++r) {
    manual += features_.Phi5Log(w, rel, annotation.EntityOf(r, 0),
                                annotation.EntityOf(r, 1));
  }
  EXPECT_NEAR(graph_score, manual, 1e-9);
}

TEST_F(TableGraphTest, BpMatchesBruteForceOnFigure1) {
  TableGraph graph = BuildTableGraph(table_, space_, &features_,
                                     Weights::Default());
  BpResult bp = RunBeliefPropagation(graph.graph);
  Result<BruteForceResult> exact = SolveBruteForce(graph.graph, 10000000);
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  EXPECT_NEAR(bp.score, exact->score, 1e-6);
}

/// Checks every φ3 factor of the structured graph against a per-pair
/// Phi3Log oracle on a fresh closure: bit for bit, for every (type,
/// entity) pair of the label space, na rows and columns included.
/// Returns the number of non-na pairs checked.
int64_t ExpectPhi3MatchesOracle(const CatalogView& catalog,
                                Vocabulary* vocab, const Table& table,
                                const TableLabelSpace& space,
                                const FeatureOptions& options) {
  const Weights w = Weights::Default();
  ClosureCache closure(&catalog);
  FeatureComputer features(&closure, vocab, options);
  ClosureCache oracle_closure(&catalog);
  FeatureComputer oracle(&oracle_closure, vocab, options);
  TableGraph tg = BuildTableGraph(table, space, &features, w);

  std::map<std::pair<int, int>, int> phi3_factor;
  for (int f = 0; f < tg.graph.num_factors(); ++f) {
    const FactorGraph::Factor& factor = tg.graph.factor(f);
    if (factor.group != kGroupPhi3) continue;
    phi3_factor[{factor.vars[0], factor.vars[1]}] = f;
  }
  std::vector<int> labels(tg.graph.num_variables(), 0);
  int64_t pairs = 0;
  for (int c = 0; c < table.cols(); ++c) {
    const int tv = tg.type_var[c];
    if (tv < 0) continue;
    const auto& types = space.TypeDomain(c);
    for (int r = 0; r < table.rows(); ++r) {
      const int ev = tg.entity_var[r][c];
      if (ev < 0) continue;
      auto it = phi3_factor.find({tv, ev});
      if (it == phi3_factor.end()) {
        ADD_FAILURE() << "no φ3 factor for cell " << r << "," << c;
        continue;
      }
      const auto& ents = space.EntityDomain(r, c);
      for (size_t lt = 0; lt < types.size(); ++lt) {
        for (size_t le = 0; le < ents.size(); ++le) {
          labels[tv] = static_cast<int>(lt);
          labels[ev] = static_cast<int>(le);
          const double got = tg.graph.FactorLogValue(it->second, labels);
          const double want = oracle.Phi3Log(w, types[lt], ents[le]);
          EXPECT_EQ(std::bit_cast<uint64_t>(got),
                    std::bit_cast<uint64_t>(want))
              << "type " << types[lt] << " entity " << ents[le] << ": "
              << got << " vs " << want;
          if (lt > 0 && le > 0) ++pairs;
        }
      }
      labels[tv] = 0;
      labels[ev] = 0;
    }
  }
  return pairs;
}

/// What the φ3 oracle comparison covers: candidate entities by number
/// of direct types, rows Phi3Column reused, and columns where two
/// candidates share their first direct type but not their whole set —
/// where rows keyed by anything coarser than the set would be wrong.
struct Phi3Coverage {
  int64_t no_types = 0;
  int64_t one_type = 0;
  int64_t many_types = 0;
  int64_t fills = 0;
  int64_t rows = 0;
  int64_t distinct_entities_sharing_a_row = 0;
  int64_t first_type_collisions = 0;
};

void AddPhi3Coverage(const CatalogView& catalog, Vocabulary* vocab,
                     const Table& table, const TableLabelSpace& space,
                     Phi3Coverage* cov) {
  const Weights w = Weights::Default();
  ClosureCache closure(&catalog);
  FeatureComputer features(&closure, vocab);
  for (int c = 0; c < table.cols(); ++c) {
    const auto& types = space.TypeDomain(c);
    if (types.size() <= 1) continue;
    Phi3Column column(&features, w, types);
    std::map<int32_t, std::set<EntityId>> entities_of_set;
    std::map<TypeId, std::set<int32_t>> sets_of_first_type;
    std::vector<double> tab;
    for (int r = 0; r < table.rows(); ++r) {
      const auto& ents = space.EntityDomain(r, c);
      if (ents.size() <= 1) continue;
      column.FillTable(ents, &tab);
      for (size_t le = 1; le < ents.size(); ++le) {
        ++cov->fills;
        const auto direct = catalog.EntityDirectTypes(ents[le]);
        if (direct.empty()) {
          ++cov->no_types;
        } else if (direct.size() == 1) {
          ++cov->one_type;
        } else {
          ++cov->many_types;
        }
        const int32_t set = closure.DirectTypeSetId(ents[le]);
        entities_of_set[set].insert(ents[le]);
        if (!direct.empty()) sets_of_first_type[direct[0]].insert(set);
      }
    }
    cov->rows += static_cast<int64_t>(column.num_rows());
    for (const auto& [set, entities] : entities_of_set) {
      if (entities.size() >= 2) ++cov->distinct_entities_sharing_a_row;
    }
    for (const auto& [first, sets] : sets_of_first_type) {
      if (sets.size() >= 2) ++cov->first_type_collisions;
    }
  }
}

std::vector<FeatureOptions> AllPhi3Options() {
  std::vector<FeatureOptions> out;
  for (CompatMode mode : {CompatMode::kRecipSqrtDist, CompatMode::kRecipDist,
                          CompatMode::kIdfOnly}) {
    for (bool missing_link : {true, false}) {
      FeatureOptions options;
      options.compat_mode = mode;
      options.use_missing_link = missing_link;
      out.push_back(options);
    }
  }
  return out;
}

TEST(Phi3HoistingTest, EdgeCasesMatchPerPairOracle) {
  // Figure 1's shape plus the two φ3 edge cases: an entity with no
  // direct types and a type with no entity under it (MinEntityDist
  // unreachable), both injected into the label space as gold labels.
  CatalogBuilder builder;
  const TypeId person = builder.AddType("person");
  WEBTAB_CHECK_OK(builder.AddTypeLemma(person, "author"));
  const TypeId book = builder.AddType("book");
  WEBTAB_CHECK_OK(builder.AddTypeLemma(book, "title"));
  const TypeId physicist = builder.AddType("physicist");
  WEBTAB_CHECK_OK(builder.AddSubtype(physicist, person));
  const TypeId unread = builder.AddType("unread book");
  WEBTAB_CHECK_OK(builder.AddSubtype(unread, book));
  const EntityId einstein = builder.AddEntity("Albert Einstein");
  WEBTAB_CHECK_OK(builder.AddEntityLemma(einstein, "Albert Einstein"));
  WEBTAB_CHECK_OK(builder.AddEntityType(einstein, physicist));
  const EntityId stannard = builder.AddEntity("Russell Stannard");
  WEBTAB_CHECK_OK(builder.AddEntityLemma(stannard, "Russell Stannard"));
  WEBTAB_CHECK_OK(builder.AddEntityType(stannard, person));
  const EntityId b94 = builder.AddEntity("Uncle Albert");
  WEBTAB_CHECK_OK(builder.AddEntityLemma(b94, "Uncle Albert"));
  WEBTAB_CHECK_OK(builder.AddEntityType(b94, book));
  const EntityId orphan = builder.AddEntity("Albert Orphan");
  WEBTAB_CHECK_OK(builder.AddEntityLemma(orphan, "Albert Orphan"));
  Result<Catalog> built = builder.Build();
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const Catalog& catalog = built.value();
  LemmaIndex index(&catalog);

  Table table(2, 2);
  table.set_header(0, "Title");
  table.set_header(1, "Author");
  table.set_cell(0, 0, "Uncle Albert");
  table.set_cell(0, 1, "Russell Stannard");
  table.set_cell(1, 0, "Albert");
  table.set_cell(1, 1, "Albert Einstein");
  ClosureCache closure(&catalog);
  TableCandidates candidates =
      GenerateCandidates(table, index, &closure, CandidateOptions());
  TableAnnotation gold = TableAnnotation::Empty(2, 2);
  gold.column_types[0] = unread;
  gold.column_types[1] = person;
  gold.cell_entities[0][0] = b94;
  gold.cell_entities[1][0] = orphan;
  gold.cell_entities[1][1] = einstein;
  TableLabelSpace space = TableLabelSpace::Build(table, candidates, &gold);
  ASSERT_GE(TableLabelSpace::IndexOfType(space.TypeDomain(0), unread), 1);
  ASSERT_GE(TableLabelSpace::IndexOfEntity(space.EntityDomain(1, 0), orphan),
            1);
  ASSERT_TRUE(catalog.EntityDirectTypes(orphan).empty());
  ASSERT_EQ(closure.MinEntityDist(unread), kUnreachable);

  for (const FeatureOptions& options : AllPhi3Options()) {
    EXPECT_GT(ExpectPhi3MatchesOracle(catalog, index.vocabulary(), table,
                                      space, options),
              0);
  }
  Phi3Coverage cov;
  AddPhi3Coverage(catalog, index.vocabulary(), table, space, &cov);
  EXPECT_GT(cov.no_types, 0);
  EXPECT_GT(cov.one_type, 0);
}

TEST(Phi3HoistingTest, CorpusLabelSpacesMatchPerPairOracle) {
  const World& world = SharedWorld();
  const LemmaIndex& index = SharedIndex();
  ClosureCache closure(&world.catalog);
  CorpusSpec spec;
  spec.seed = 91;
  spec.num_tables = 8;
  spec.min_rows = 3;
  spec.max_rows = 12;
  std::vector<TableLabelSpace> spaces;
  std::vector<Table> tables;
  for (const LabeledTable& lt : GenerateCorpus(world, spec)) {
    TableCandidates candidates = GenerateCandidates(
        lt.table, index, &closure, CandidateOptions());
    spaces.push_back(TableLabelSpace::Build(lt.table, candidates));
    tables.push_back(lt.table);
  }
  for (const FeatureOptions& options : AllPhi3Options()) {
    int64_t pairs = 0;
    for (size_t i = 0; i < tables.size(); ++i) {
      pairs += ExpectPhi3MatchesOracle(world.catalog, index.vocabulary(),
                                       tables[i], spaces[i], options);
    }
    EXPECT_GT(pairs, 100);
  }
  // Non-vacuity for rows shared per direct-type set: candidates with one
  // and with several direct types, rows copied to later candidates,
  // distinct entities sharing a row, and first-type collisions that a
  // coarser key would conflate.
  Phi3Coverage cov;
  for (size_t i = 0; i < tables.size(); ++i) {
    AddPhi3Coverage(world.catalog, index.vocabulary(), tables[i], spaces[i],
                    &cov);
  }
  EXPECT_GT(cov.one_type, 0);
  EXPECT_GT(cov.many_types, 0);
  EXPECT_LT(cov.rows, cov.fills);
  EXPECT_GT(cov.distinct_entities_sharing_a_row, 0);
  EXPECT_GT(cov.first_type_collisions, 0);
}

}  // namespace
}  // namespace webtab
