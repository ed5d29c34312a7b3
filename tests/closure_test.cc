#include "catalog/closure.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <iterator>

#include "catalog/catalog_builder.h"
#include "test_world.h"

namespace webtab {
namespace {

using testing_util::Figure1World;
using testing_util::MakeFigure1World;
using testing_util::SharedWorld;

class ClosureTest : public ::testing::Test {
 protected:
  ClosureTest() : w_(MakeFigure1World()), closure_(&w_.catalog) {}
  Figure1World w_;
  ClosureCache closure_;
};

TEST_F(ClosureTest, TypeAncestorsIncludeTransitive) {
  const auto& ancestors = closure_.TypeAncestors(w_.einstein);
  // physicist, person, root.
  EXPECT_EQ(ancestors.size(), 3u);
  EXPECT_TRUE(std::binary_search(ancestors.begin(), ancestors.end(),
                                 w_.physicist));
  EXPECT_TRUE(std::binary_search(ancestors.begin(), ancestors.end(),
                                 w_.person));
  EXPECT_TRUE(std::binary_search(ancestors.begin(), ancestors.end(),
                                 w_.catalog.root_type()));
}

TEST_F(ClosureTest, DistCountsEdges) {
  EXPECT_EQ(closure_.Dist(w_.einstein, w_.physicist), 1);
  EXPECT_EQ(closure_.Dist(w_.einstein, w_.person), 2);
  EXPECT_EQ(closure_.Dist(w_.einstein, w_.catalog.root_type()), 3);
  EXPECT_EQ(closure_.Dist(w_.einstein, w_.book), kUnreachable);
  EXPECT_EQ(closure_.Dist(w_.stannard, w_.person), 1);
}

TEST_F(ClosureTest, EntitiesOfCollectsDescendants) {
  const auto& people = closure_.EntitiesOf(w_.person);
  // einstein (via physicist) + stannard.
  EXPECT_EQ(people.size(), 2u);
  const auto& books = closure_.EntitiesOf(w_.book);
  EXPECT_EQ(books.size(), 3u);
  const auto& all = closure_.EntitiesOf(w_.catalog.root_type());
  EXPECT_EQ(all.size(), 5u);
}

TEST_F(ClosureTest, EntitiesOfSorted) {
  const auto& all = closure_.EntitiesOf(w_.catalog.root_type());
  EXPECT_TRUE(std::is_sorted(all.begin(), all.end()));
}

TEST_F(ClosureTest, SpecificityDecreasesUpTheDag) {
  double spec_physicist = closure_.TypeSpecificity(w_.physicist);
  double spec_person = closure_.TypeSpecificity(w_.person);
  double spec_root = closure_.TypeSpecificity(w_.catalog.root_type());
  EXPECT_GT(spec_physicist, spec_person);
  EXPECT_GT(spec_person, spec_root);
  EXPECT_DOUBLE_EQ(spec_root, 1.0);  // |E|/|E(root)| = 1.
}

TEST_F(ClosureTest, IsSubtypeOfReflexiveTransitive) {
  EXPECT_TRUE(closure_.IsSubtypeOf(w_.physicist, w_.physicist));
  EXPECT_TRUE(closure_.IsSubtypeOf(w_.physicist, w_.person));
  EXPECT_TRUE(closure_.IsSubtypeOf(w_.physicist, w_.catalog.root_type()));
  EXPECT_FALSE(closure_.IsSubtypeOf(w_.person, w_.physicist));
  EXPECT_FALSE(closure_.IsSubtypeOf(w_.book, w_.person));
}

TEST_F(ClosureTest, MinEntityDist) {
  // person has a direct entity (stannard) => 1.
  EXPECT_EQ(closure_.MinEntityDist(w_.person), 1);
  EXPECT_EQ(closure_.MinEntityDist(w_.physicist), 1);
}

TEST_F(ClosureTest, EntityHasType) {
  EXPECT_TRUE(closure_.EntityHasType(w_.einstein, w_.person));
  EXPECT_FALSE(closure_.EntityHasType(w_.einstein, w_.book));
}

TEST_F(ClosureTest, CachedQueriesStayConsistent) {
  // Repeat calls hit the cache; results must be identical.
  const auto& first = closure_.TypeAncestors(w_.b94);
  const auto& second = closure_.TypeAncestors(w_.b94);
  EXPECT_EQ(&first, &second);
  EXPECT_EQ(closure_.Dist(w_.b94, w_.book),
            closure_.Dist(w_.b94, w_.book));
}

// ---- Properties on the bigger generated world. ----

class ClosureWorldPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(ClosureWorldPropertyTest, DistConsistentWithAncestors) {
  const World& world = SharedWorld();
  ClosureCache closure(&world.catalog);
  EntityId e = GetParam() % world.catalog.num_entities();
  for (TypeId t : closure.TypeAncestors(e)) {
    int d = closure.Dist(e, t);
    EXPECT_GE(d, 1);
    EXPECT_LT(d, kUnreachable);
    // Every ancestor's extension contains the entity.
    const auto& ext = closure.EntitiesOf(t);
    EXPECT_TRUE(std::binary_search(ext.begin(), ext.end(), e));
  }
}

TEST_P(ClosureWorldPropertyTest, ParentExtensionContainsChildExtension) {
  const World& world = SharedWorld();
  ClosureCache closure(&world.catalog);
  TypeId t = GetParam() % world.catalog.num_types();
  const auto& child_ext = closure.EntitiesOf(t);
  for (TypeId parent : world.catalog.type(t).parents) {
    const auto& parent_ext = closure.EntitiesOf(parent);
    for (EntityId e : child_ext) {
      EXPECT_TRUE(
          std::binary_search(parent_ext.begin(), parent_ext.end(), e));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ClosureWorldPropertyTest,
                         ::testing::Range(0, 25));

TEST(ClosurePrecomputeTest, PrecomputedMatchesLazy) {
  const World& world = SharedWorld();
  ClosureCache lazy(&world.catalog);
  ClosureCache eager(&world.catalog);
  eager.PrecomputeTypeClosures(/*include_entity_extents=*/true);
  for (TypeId t = 0; t < world.catalog.num_types(); ++t) {
    EXPECT_EQ(eager.TypeAncestorsOfType(t), lazy.TypeAncestorsOfType(t));
    EXPECT_EQ(eager.MinEntityDist(t), lazy.MinEntityDist(t));
    EXPECT_EQ(eager.EntitiesOf(t), lazy.EntitiesOf(t));
    EXPECT_EQ(eager.TypeSpecificity(t), lazy.TypeSpecificity(t));
  }
}

TEST(ClosurePrecomputeTest, SeedFromClonesPrototypeAndStaysLazy) {
  const World& world = SharedWorld();
  ClosureCache prototype(&world.catalog);
  prototype.PrecomputeTypeClosures();
  // Warm an entity closure in the prototype too; it must carry over.
  const std::vector<TypeId>& proto_anc = prototype.TypeAncestors(0);

  ClosureCache worker(&world.catalog);
  worker.SeedFrom(prototype);
  EXPECT_EQ(worker.TypeAncestors(0), proto_anc);
  ClosureCache fresh(&world.catalog);
  for (TypeId t = 0; t < world.catalog.num_types(); ++t) {
    EXPECT_EQ(worker.TypeAncestorsOfType(t), fresh.TypeAncestorsOfType(t));
    EXPECT_EQ(worker.MinEntityDist(t), fresh.MinEntityDist(t));
  }
  // Entity closures beyond the seed still fill lazily on demand.
  for (EntityId e = 1; e < world.catalog.num_entities(); e += 97) {
    EXPECT_EQ(worker.TypeAncestors(e), fresh.TypeAncestors(e));
  }
}

/// TypeOverlapRatio against a fresh sorted intersection, for every
/// ordered type pair of `catalog`, and a repeat call (a memo hit) returns
/// the identical double. Returns the number of types with empty
/// extensions.
int CheckOverlapRatiosAgainstIntersection(const Catalog& catalog) {
  ClosureCache closure(&catalog);
  ClosureCache extents(&catalog);
  int empty_types = 0;
  for (TypeId a = 0; a < catalog.num_types(); ++a) {
    const std::vector<EntityId>& ea = extents.EntitiesOf(a);
    if (ea.empty()) ++empty_types;
    for (TypeId b = 0; b < catalog.num_types(); ++b) {
      const std::vector<EntityId>& eb = extents.EntitiesOf(b);
      std::vector<EntityId> common;
      std::set_intersection(ea.begin(), ea.end(), eb.begin(), eb.end(),
                            std::back_inserter(common));
      const double want =
          ea.empty() ? 0.0
                     : static_cast<double>(common.size()) /
                           static_cast<double>(ea.size());
      const double got = closure.TypeOverlapRatio(a, b);
      EXPECT_EQ(std::bit_cast<uint64_t>(got), std::bit_cast<uint64_t>(want))
          << a << " vs " << b;
      EXPECT_EQ(std::bit_cast<uint64_t>(closure.TypeOverlapRatio(a, b)),
                std::bit_cast<uint64_t>(got));
    }
  }
  return empty_types;
}

TEST(TypeOverlapRatioMemoTest, MatchesFreshIntersectionOnGeneratedWorld) {
  CheckOverlapRatiosAgainstIntersection(SharedWorld().catalog);
}

TEST(TypeOverlapRatioMemoTest, MatchesFreshIntersectionWithEmptyExtents) {
  // Figure 1's types plus two with empty extensions: a leaf and an
  // inner type whose only child is empty too.
  CatalogBuilder builder;
  const TypeId person = builder.AddType("person");
  const TypeId physicist = builder.AddType("physicist");
  WEBTAB_CHECK_OK(builder.AddSubtype(physicist, person));
  const TypeId book = builder.AddType("book");
  const TypeId lost = builder.AddType("lost works");
  const TypeId lost_drafts = builder.AddType("lost drafts");
  WEBTAB_CHECK_OK(builder.AddSubtype(lost_drafts, lost));
  WEBTAB_CHECK_OK(builder.AddSubtype(lost, book));
  const EntityId einstein = builder.AddEntity("Albert Einstein");
  WEBTAB_CHECK_OK(builder.AddEntityType(einstein, physicist));
  const EntityId stannard = builder.AddEntity("Russell Stannard");
  WEBTAB_CHECK_OK(builder.AddEntityType(stannard, person));
  for (const char* title : {"Uncle Albert", "Relativity"}) {
    const EntityId e = builder.AddEntity(title);
    WEBTAB_CHECK_OK(builder.AddEntityType(e, book));
  }
  // One entity sits in two types, so some ratios are strictly between
  // 0 and 1.
  WEBTAB_CHECK_OK(builder.AddEntityType(einstein, book));
  Result<Catalog> built = builder.Build();
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  EXPECT_EQ(CheckOverlapRatiosAgainstIntersection(built.value()), 2);
}

}  // namespace
}  // namespace webtab
