#ifndef WEBTAB_TEXT_SIMILARITY_H_
#define WEBTAB_TEXT_SIMILARITY_H_

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "text/vocabulary.h"

namespace webtab {

/// All measures return values in [0,1], are symmetric, and give 1 on
/// identical normalized inputs. They operate on the shared tokenizer's
/// output, so "A. Einstein" vs "a einstein" compare equal.

/// Token-set Jaccard: |A∩B| / |A∪B|.
double JaccardSimilarity(std::string_view a, std::string_view b);

/// Token-set Dice: 2|A∩B| / (|A|+|B|).
double DiceSimilarity(std::string_view a, std::string_view b);

/// Character-level similarity 1 - Levenshtein(a,b)/max(|a|,|b|) computed on
/// normalized text.
double EditSimilarity(std::string_view a, std::string_view b);

/// Jaro-Winkler similarity on normalized text (prefix scale 0.1, max
/// prefix 4) — the classic short-string matcher used inside soft-TFIDF.
double JaroWinkler(std::string_view a, std::string_view b);

/// What JaroWinklerBelowNineTenths reads of one token: its length, its
/// first four characters and a count per character of [a-z0-9].
struct JaroWinklerSignature {
  /// One lane per character, '0'..'9' then 'a'..'z'; lanes 36..47 stay
  /// 0, padding the array to whole 16-byte vectors.
  static constexpr int kLanes = 48;
  alignas(16) std::array<uint8_t, kLanes> counts{};
  /// The first min(length, 4) characters, '\0'-padded.
  std::array<char, 4> prefix{};
  uint8_t length = 0;
  /// False when the token cannot be summarized exactly: it is longer
  /// than a lane holds (255), or it has a character outside [a-z0-9],
  /// which NormalizeText would change. Such a token is never screened.
  bool screenable = false;
};

/// Summarizes one token for JaroWinklerBelowNineTenths.
JaroWinklerSignature MakeJaroWinklerSignature(std::string_view token);

/// True when the signatures of two distinct tokens prove that
/// JaroWinkler(a, b) is below 0.9, soft-TFIDF's match threshold; false
/// when they do not, or when either signature is not screenable.
///
/// Jaro-Winkler pairs characters that are equal, each at most once, so
/// its match count is at most M = Σ_c min(count_a(c), count_b(c)); with
/// the transposition term at most 1, jaro ≤ J = (M/|a| + M/|b| + 1)/3.
/// The Winkler boost jaro + 0.1·l·(1 − jaro) grows with jaro, and the
/// common prefix l ≤ 4 is read exactly from the signatures, so
/// JaroWinkler(a, b) ≤ B = J + 0.1·l·(1 − J). In integers,
///   B < 9/10  ⟺  M·(|a| + |b|)·(10 − l) < (17 − 2l)·|a|·|b|,
/// which is what this evaluates. B is a fraction over 30·|a|·|b|, so a
/// B below 9/10 is below it by at least 1/(30·255²) > 5·10⁻⁷, far more
/// than JaroWinkler's floating-point rounding: the double it returns is
/// below 0.9 too.
bool JaroWinklerBelowNineTenths(const JaroWinklerSignature& a,
                                const JaroWinklerSignature& b);

/// TF-IDF cosine using vocabulary statistics (wrapper over TfIdfVector).
double TfIdfCosine(std::string_view a, std::string_view b, Vocabulary* vocab);

/// True when the normalized forms are identical.
bool ExactNormalizedMatch(std::string_view a, std::string_view b);

/// Token containment: fraction of a's tokens present in b.
double TokenContainment(std::string_view a, std::string_view b);

}  // namespace webtab

#endif  // WEBTAB_TEXT_SIMILARITY_H_
