#ifndef WEBTAB_TEXT_SOFT_TFIDF_H_
#define WEBTAB_TEXT_SOFT_TFIDF_H_

#include <string>
#include <string_view>
#include <vector>

#include "text/vocabulary.h"

namespace webtab {

/// One token with its L2-normalized TF-IDF weight — the unit soft-TFIDF
/// scores over. Exposed so SimilarityScratch can build the weights once
/// per distinct string and reuse them across every pairing; both entry
/// points below share one implementation, so scores are bit-identical.
struct SoftWeightedToken {
  std::string text;
  double weight;
  /// The token's vocabulary id (interned while weighting).
  TokenId id;
};

/// Tokenizes `text` and computes L2-normalized TF-IDF weights, sorted by
/// token text (the scoring order soft-TFIDF is defined over here).
std::vector<SoftWeightedToken> SoftTfIdfWeights(std::string_view text,
                                                Vocabulary* vocab);

/// Scores two prepared weight vectors. Returns 1 when both are empty,
/// 0 when exactly one is.
double SoftTfIdfFromWeights(const std::vector<SoftWeightedToken>& a,
                            const std::vector<SoftWeightedToken>& b,
                            double threshold = 0.9);

/// Soft-TFIDF of Bilenko et al. [2]: TF-IDF cosine where tokens match
/// "softly" — two tokens count as equal when their Jaro-Winkler similarity
/// exceeds `threshold` (default 0.9), weighted by that similarity. Catches
/// near-miss spellings ("Einstien") that the hard cosine scores at 0.
double SoftTfIdfSimilarity(std::string_view a, std::string_view b,
                           Vocabulary* vocab, double threshold = 0.9);

}  // namespace webtab

#endif  // WEBTAB_TEXT_SOFT_TFIDF_H_
