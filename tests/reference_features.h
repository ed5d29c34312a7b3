#ifndef WEBTAB_TESTS_REFERENCE_FEATURES_H_
#define WEBTAB_TESTS_REFERENCE_FEATURES_H_

#include <algorithm>
#include <array>
#include <string_view>

#include "catalog/catalog_view.h"
#include "model/weights.h"
#include "text/similarity.h"
#include "text/soft_tfidf.h"
#include "text/vocabulary.h"

namespace webtab {
namespace testing_util {

/// The direct-call f1/f2 similarity features (§4.2.1–4.2.2), retained as
/// the oracle for FeatureComputer's SimilarityScratch path: every
/// measure re-tokenizes both strings through the public similarity
/// functions, per lemma, and the max is streamed in lemma order.
/// FeatureComputer::F1/F2 must reproduce these arrays bit for bit. Also
/// used by bench/candidate_bench.cc as the "before" F1 timing.
///
/// Packed as [cosine, jaccard, dice, soft-tfidf, exact, bias];
/// `lemma_at(i)` yields the i-th lemma.
template <size_t N, typename LemmaAt>
std::array<double, N> ReferenceTextSimilarityFeatures(std::string_view text,
                                                      int32_t num_lemmas,
                                                      LemmaAt lemma_at,
                                                      Vocabulary* vocab) {
  static_assert(N >= 6);
  std::array<double, N> out{};
  for (int32_t i = 0; i < num_lemmas; ++i) {
    std::string_view lemma = lemma_at(i);
    out[0] = std::max(out[0], TfIdfCosine(text, lemma, vocab));
    out[1] = std::max(out[1], JaccardSimilarity(text, lemma));
    out[2] = std::max(out[2], DiceSimilarity(text, lemma));
    out[3] = std::max(out[3], SoftTfIdfSimilarity(text, lemma, vocab));
    if (ExactNormalizedMatch(text, lemma)) out[4] = 1.0;
  }
  out[5] = 1.0;  // Bias: fires on any non-na label.
  return out;
}

/// f1(r, c, E): cell text against the entity's lemmas. Zero when e is na.
inline std::array<double, kF1Size> ReferenceF1(const CatalogView& catalog,
                                               Vocabulary* vocab,
                                               std::string_view cell_text,
                                               EntityId e) {
  if (e == kNa) return {};
  return ReferenceTextSimilarityFeatures<kF1Size>(
      cell_text, catalog.NumEntityLemmas(e),
      [&](int32_t i) { return catalog.EntityLemma(e, i); }, vocab);
}

/// f2(c, T): header text against the type's lemmas. Zero when t is na;
/// an omitted header fires only the bias.
inline std::array<double, kF2Size> ReferenceF2(const CatalogView& catalog,
                                               Vocabulary* vocab,
                                               std::string_view header_text,
                                               TypeId t) {
  if (t == kNa) return {};
  if (header_text.empty()) {
    std::array<double, kF2Size> f{};
    f[5] = 1.0;
    return f;
  }
  return ReferenceTextSimilarityFeatures<kF2Size>(
      header_text, catalog.NumTypeLemmas(t),
      [&](int32_t i) { return catalog.TypeLemma(t, i); }, vocab);
}

}  // namespace testing_util
}  // namespace webtab

#endif  // WEBTAB_TESTS_REFERENCE_FEATURES_H_
