#include "text/similarity.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "synth/datasets.h"
#include "synth/world_generator.h"
#include "text/tokenizer.h"

namespace webtab {
namespace {

TEST(JaccardTest, KnownValues) {
  EXPECT_DOUBLE_EQ(JaccardSimilarity("a b c", "b c d"), 0.5);
  EXPECT_DOUBLE_EQ(JaccardSimilarity("x", "x"), 1.0);
  EXPECT_DOUBLE_EQ(JaccardSimilarity("x", "y"), 0.0);
  EXPECT_DOUBLE_EQ(JaccardSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(JaccardSimilarity("x", ""), 0.0);
}

TEST(DiceTest, KnownValues) {
  EXPECT_DOUBLE_EQ(DiceSimilarity("a b c", "b c d"), 2.0 * 2 / 6);
  EXPECT_DOUBLE_EQ(DiceSimilarity("x", "x"), 1.0);
  EXPECT_DOUBLE_EQ(DiceSimilarity("", ""), 1.0);
}

TEST(EditSimilarityTest, KnownValues) {
  EXPECT_DOUBLE_EQ(EditSimilarity("abc", "abc"), 1.0);
  // "abc" vs "abd": one substitution over length 3.
  EXPECT_NEAR(EditSimilarity("abc", "abd"), 2.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(EditSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(EditSimilarity("abc", ""), 0.0);
}

TEST(EditSimilarityTest, NormalizesBeforeComparing) {
  EXPECT_DOUBLE_EQ(EditSimilarity("A. Einstein", "a einstein"), 1.0);
}

TEST(JaroWinklerTest, KnownBehaviour) {
  EXPECT_DOUBLE_EQ(JaroWinkler("einstein", "einstein"), 1.0);
  EXPECT_DOUBLE_EQ(JaroWinkler("abc", "xyz"), 0.0);
  // Typo preserves high similarity.
  EXPECT_GT(JaroWinkler("einstein", "einstien"), 0.9);
  // Shared prefix boosts (Winkler modification).
  EXPECT_GT(JaroWinkler("martha", "marhta"), JaroWinkler("artha", "arhta") - 1e-9);
}

TEST(TfIdfCosineWrapperTest, MatchesIdentity) {
  Vocabulary vocab;
  vocab.AddDocument({"albert", "einstein"});
  vocab.AddDocument({"russell", "stannard"});
  EXPECT_NEAR(TfIdfCosine("Albert Einstein", "albert einstein", &vocab),
              1.0, 1e-12);
  EXPECT_DOUBLE_EQ(
      TfIdfCosine("Albert Einstein", "Russell Stannard", &vocab), 0.0);
}

TEST(ExactNormalizedMatchTest, Basic) {
  EXPECT_TRUE(ExactNormalizedMatch("A. Einstein", "a einstein"));
  EXPECT_FALSE(ExactNormalizedMatch("Einstein", "A. Einstein"));
}

TEST(TokenContainmentTest, Basic) {
  EXPECT_DOUBLE_EQ(TokenContainment("uncle albert", "uncle albert and the"
                                    " quantum quest"),
                   1.0);
  EXPECT_DOUBLE_EQ(TokenContainment("a b", "b c"), 0.5);
  EXPECT_DOUBLE_EQ(TokenContainment("", "anything"), 0.0);
}

// ---- Jaro-Winkler screen (the soft-TFIDF prescreen). ----

/// The bound JaroWinklerBelowNineTenths compares with 9/10, in
/// JaroWinkler's own floating-point arithmetic with m = M and no
/// transpositions: B = J + 0.1·l·(1 − J), J = (M/|a| + M/|b| + 1)/3.
double ReferenceJaroWinklerBound(const JaroWinklerSignature& a,
                                 const JaroWinklerSignature& b) {
  int matches = 0;
  for (int c = 0; c < JaroWinklerSignature::kLanes; ++c) {
    matches += std::min(a.counts[c], b.counts[c]);
  }
  if (matches == 0) return 0.0;
  const int la = a.length;
  const int lb = b.length;
  const double m = matches;
  const double jaro = (m / la + m / lb + 1.0) / 3.0;
  int prefix = 0;
  for (int i = 0; i < std::min({la, lb, 4}); ++i) {
    if (a.prefix[i] != b.prefix[i]) break;
    ++prefix;
  }
  return jaro + prefix * 0.1 * (1.0 - jaro);
}

TEST(JaroWinklerScreenTest, SignatureLanesAndBypass) {
  const JaroWinklerSignature sig = MakeJaroWinklerSignature("ab1ba");
  EXPECT_TRUE(sig.screenable);
  EXPECT_EQ(sig.length, 5);
  EXPECT_EQ(sig.counts[1], 1);   // '1'
  EXPECT_EQ(sig.counts[10], 2);  // 'a'
  EXPECT_EQ(sig.counts[11], 2);  // 'b'
  EXPECT_EQ(std::string(sig.prefix.data(), 4), "ab1b");
  // A token longer than a lane holds, or one NormalizeText would
  // change, is never screened out.
  const std::string long_a(300, 'a');
  const std::string long_b = std::string(299, 'a') + "b";
  EXPECT_FALSE(MakeJaroWinklerSignature(long_a).screenable);
  EXPECT_FALSE(MakeJaroWinklerSignature("Abc").screenable);
  EXPECT_FALSE(MakeJaroWinklerSignature("a-b").screenable);
  EXPECT_GE(JaroWinkler(long_a, long_b), 0.9);
  EXPECT_FALSE(JaroWinklerBelowNineTenths(MakeJaroWinklerSignature(long_a),
                                          MakeJaroWinklerSignature(long_b)));
  EXPECT_FALSE(JaroWinklerBelowNineTenths(MakeJaroWinklerSignature(long_a),
                                          MakeJaroWinklerSignature("b")));
  // The longest screenable tokens are still screened exactly.
  const std::string max_a(255, 'a');
  const std::string max_b = std::string(254, 'a') + "b";
  ASSERT_TRUE(MakeJaroWinklerSignature(max_a).screenable);
  EXPECT_GE(JaroWinkler(max_a, max_b), 0.9);
  EXPECT_FALSE(JaroWinklerBelowNineTenths(MakeJaroWinklerSignature(max_a),
                                          MakeJaroWinklerSignature(max_b)));
  EXPECT_TRUE(JaroWinklerBelowNineTenths(MakeJaroWinklerSignature(max_a),
                                         MakeJaroWinklerSignature("aaaa")));
  // Disjoint characters: no match is possible.
  EXPECT_TRUE(JaroWinklerBelowNineTenths(MakeJaroWinklerSignature("abc"),
                                         MakeJaroWinklerSignature("xyz")));
}

TEST(JaroWinklerScreenTest, SoundOnEveryTokenPairOfWorldAndNoisyCells) {
  // Every distinct token of the world's entity and type lemmas, plus the
  // tokens of noisy Figure 5 cells and headers (typos, garnish,
  // synonyms). For every ordered pair of distinct tokens: the bound is
  // at least the exact Jaro-Winkler, the screen skips exactly the pairs
  // whose bound is below 9/10, and so never a pair that reaches 0.9.
  WorldSpec spec;  // The paper-default world perfbench serves.
  spec.seed = 42;
  const World world = GenerateWorld(spec);
  std::set<std::string> vocab;
  auto add = [&](std::string_view text) {
    for (std::string& t : Tokenize(text)) vocab.insert(std::move(t));
  };
  const CatalogView& cat = world.catalog;
  for (EntityId e = 0; e < cat.num_entities(); ++e) {
    for (int32_t i = 0; i < cat.NumEntityLemmas(e); ++i) {
      add(cat.EntityLemma(e, i));
    }
  }
  for (TypeId t = 0; t < cat.num_types(); ++t) {
    for (int32_t i = 0; i < cat.NumTypeLemmas(t); ++i) add(cat.TypeLemma(t, i));
  }
  const size_t catalog_tokens = vocab.size();
  const Datasets sets = MakeDatasets(world, 0.05, 1234);
  for (const LabeledTable& lt : sets.web_manual) {
    for (int c = 0; c < lt.table.cols(); ++c) {
      add(lt.table.header(c));
      for (int r = 0; r < lt.table.rows(); ++r) add(lt.table.cell(r, c));
    }
  }
  ASSERT_GT(vocab.size(), catalog_tokens + 50) << "no noisy cell tokens";

  const std::vector<std::string> tokens(vocab.begin(), vocab.end());
  std::vector<JaroWinklerSignature> sigs;
  for (const std::string& t : tokens) {
    sigs.push_back(MakeJaroWinklerSignature(t));
    ASSERT_TRUE(sigs.back().screenable) << t;
  }
  int64_t pairs = 0;
  int64_t skipped = 0;
  int64_t qualifying = 0;
  int64_t lifted_by_prefix = 0;  // JW ≥ 0.9 only thanks to the prefix.
  int64_t failures = 0;
  for (size_t i = 0; i < tokens.size(); ++i) {
    for (size_t j = 0; j < tokens.size(); ++j) {
      if (i == j) continue;
      const double jw = JaroWinkler(tokens[i], tokens[j]);
      const double bound = ReferenceJaroWinklerBound(sigs[i], sigs[j]);
      const bool skip = JaroWinklerBelowNineTenths(sigs[i], sigs[j]);
      ++pairs;
      if (skip) ++skipped;
      if (jw >= 0.9) {
        ++qualifying;
        JaroWinklerSignature no_prefix_a = sigs[i];
        JaroWinklerSignature no_prefix_b = sigs[j];
        no_prefix_a.prefix = {'<', '<', '<', '<'};
        no_prefix_b.prefix = {'>', '>', '>', '>'};
        if (ReferenceJaroWinklerBound(no_prefix_a, no_prefix_b) < 0.9) {
          ++lifted_by_prefix;
        }
      }
      // The screen decides B < 9/10 exactly; the double bound may round
      // to either side of 0.9 when B is exactly 9/10.
      const bool disagrees = skip ? bound >= 0.9 : bound < 0.9 - 1e-9;
      if ((bound < jw || disagrees || (skip && jw >= 0.9)) &&
          ++failures <= 5) {
        ADD_FAILURE() << tokens[i] << " vs " << tokens[j] << ": bound "
                      << bound << ", JaroWinkler " << jw << ", skipped "
                      << skip;
      }
    }
  }
  EXPECT_EQ(failures, 0);
  // Non-vacuity: many pairs, most screened out; many that reach the
  // soft-TFIDF threshold, where the screen must not skip, some of them
  // only through the Winkler prefix boost.
  EXPECT_GT(pairs, 100000);
  EXPECT_GT(skipped, pairs / 2);
  EXPECT_GT(qualifying, 300);
  EXPECT_GT(lifted_by_prefix, 0);
}

// ---- Property sweeps: range, symmetry, identity for all measures. ----

using SimilarityFn = double (*)(std::string_view, std::string_view);

class SimilarityPropertyTest
    : public ::testing::TestWithParam<
          std::tuple<SimilarityFn, const char*, const char*>> {};

TEST_P(SimilarityPropertyTest, RangeAndSymmetry) {
  auto [fn, a, b] = GetParam();
  double ab = fn(a, b);
  double ba = fn(b, a);
  EXPECT_GE(ab, 0.0);
  EXPECT_LE(ab, 1.0);
  EXPECT_NEAR(ab, ba, 1e-12);
}

TEST_P(SimilarityPropertyTest, IdentityScoresOne) {
  auto [fn, a, b] = GetParam();
  (void)b;
  if (std::string_view(a).empty()) GTEST_SKIP();
  EXPECT_NEAR(fn(a, a), 1.0, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    AllMeasures, SimilarityPropertyTest,
    ::testing::Combine(
        ::testing::Values(&JaccardSimilarity, &DiceSimilarity,
                          &EditSimilarity, &JaroWinkler),
        ::testing::Values("Albert Einstein", "The Clue of the Black Keys",
                          "Kelvag United", "x"),
        ::testing::Values("A. Einstein", "einstein", "Black Keys Clue",
                          "totally unrelated words")));

}  // namespace
}  // namespace webtab
