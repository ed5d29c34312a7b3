#include "catalog/relatedness.h"

#include <gtest/gtest.h>

#include "catalog/catalog_builder.h"
#include "common/logging.h"

namespace webtab {
namespace {

/// A small Nancy-Drew-shaped catalog (Appendix F): series_books is the
/// specific type; one book's ∈ link to it is missing, but its siblings
/// under year_books mostly are series_books.
struct MissingLinkWorld {
  Catalog catalog;
  TypeId novel, series_books, year_books;
  EntityId damaged;  // The book with the missing series link.
};

MissingLinkWorld MakeMissingLinkWorld() {
  MissingLinkWorld w;
  CatalogBuilder builder;
  w.novel = builder.AddType("novel");
  w.series_books = builder.AddType("series_books");
  w.year_books = builder.AddType("year_books");
  WEBTAB_CHECK_OK(builder.AddSubtype(w.series_books, w.novel));
  WEBTAB_CHECK_OK(builder.AddSubtype(w.year_books, w.novel));
  // Five books in the series; four also in year_books.
  for (int i = 0; i < 5; ++i) {
    EntityId e = builder.AddEntity("book" + std::to_string(i));
    WEBTAB_CHECK_OK(builder.AddEntityType(e, w.series_books));
    if (i > 0) WEBTAB_CHECK_OK(builder.AddEntityType(e, w.year_books));
  }
  // The damaged book: only year_books (series link "missing").
  w.damaged = builder.AddEntity("damaged-book");
  WEBTAB_CHECK_OK(builder.AddEntityType(w.damaged, w.year_books));
  Result<Catalog> result = builder.Build();
  WEBTAB_CHECK(result.ok());
  w.catalog = std::move(result.value());
  return w;
}

TEST(TypeOverlapRatioTest, ComputesFraction) {
  MissingLinkWorld w = MakeMissingLinkWorld();
  ClosureCache closure(&w.catalog);
  // E(year_books) = {book1..book4, damaged} = 5; 4 of them in series.
  EXPECT_DOUBLE_EQ(closure.TypeOverlapRatio(w.year_books, w.series_books),
                   0.8);
  // All series books are novels.
  EXPECT_DOUBLE_EQ(closure.TypeOverlapRatio(w.series_books, w.novel), 1.0);
}

TEST(MissingLinkScoreTest, FiresForPlausibleMissingLink) {
  MissingLinkWorld w = MakeMissingLinkWorld();
  ClosureCache closure(&w.catalog);
  // damaged ∉+ series_books, but 80% of its year_books siblings are.
  EXPECT_FALSE(closure.EntityHasType(w.damaged, w.series_books));
  double score = MissingLinkScore(&closure, w.damaged, w.series_books);
  // ratio 0.8, min entity dist to series_books = 1.
  EXPECT_DOUBLE_EQ(score, 0.8);
}

TEST(MissingLinkScoreTest, ZeroWhenSiblingsUnrelated) {
  MissingLinkWorld w = MakeMissingLinkWorld();
  ClosureCache closure(&w.catalog);
  // A fresh type with no entities cannot attract missing links.
  CatalogBuilder builder2;
  TypeId lonely = builder2.AddType("lonely");
  EntityId e = builder2.AddEntity("e");
  WEBTAB_CHECK_OK(builder2.AddEntityType(e, lonely));
  (void)e;
  // Against the original world: score for damaged vs an unrelated type
  // with zero overlap.
  TypeId unrelated = w.novel;  // novel fully contains year_books => >0.
  EXPECT_GT(MissingLinkScore(&closure, w.damaged, unrelated), 0.0);
}

TEST(MissingLinkScoreTest, ZeroForEntityWithoutDirectTypes) {
  CatalogBuilder builder;
  TypeId t = builder.AddType("t");
  EntityId orphan = builder.AddEntity("orphan");
  EntityId resident = builder.AddEntity("resident");
  WEBTAB_CHECK_OK(builder.AddEntityType(resident, t));
  Result<Catalog> result = builder.Build();
  ASSERT_TRUE(result.ok());
  ClosureCache closure(&result.value());
  EXPECT_DOUBLE_EQ(MissingLinkScore(&closure, orphan, t), 0.0);
}

TEST(TypeExtensionJaccardTest, Basics) {
  MissingLinkWorld w = MakeMissingLinkWorld();
  ClosureCache closure(&w.catalog);
  double self = TypeExtensionJaccard(&closure, w.series_books,
                                     w.series_books);
  EXPECT_DOUBLE_EQ(self, 1.0);
  double cross =
      TypeExtensionJaccard(&closure, w.series_books, w.year_books);
  // |E(series)| = 5, |E(year)| = 5, |∩| = 4 => |∪| = 6.
  EXPECT_NEAR(cross, 4.0 / 6.0, 1e-12);
}

}  // namespace
}  // namespace webtab
