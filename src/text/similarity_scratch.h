#ifndef WEBTAB_TEXT_SIMILARITY_SCRATCH_H_
#define WEBTAB_TEXT_SIMILARITY_SCRATCH_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "text/soft_tfidf.h"
#include "text/tfidf.h"
#include "text/vocabulary.h"

namespace webtab {

/// Reusable scratch for the f1/f2 text-similarity bundle (§4.2.1/4.2.2):
/// TF-IDF cosine, Jaccard, Dice, soft-TFIDF and exact normalized match.
/// Two things are memoized. Each distinct string is *prepared* once —
/// tokenized, TF-IDF weighted, normalized — and soft-TFIDF's
/// Jaro-Winkler is computed once per distinct (token, token) pair.
/// Web-table cells repeat heavily within a column and catalog lemmas
/// repeat across every row that considers the entity, so preparing by
/// distinct string removes the dominant redundancy of feature
/// materialization. Each (string, string) bundle is scored afresh from
/// the prepared forms. There is no per-pair memo: its memory grew with
/// the tables a worker served, and fresh tables rarely repeat a pair,
/// so it bought no latency. Values are bit-identical to the direct
/// similarity calls (the measures are computed by the same underlying
/// implementations on identically-constructed inputs).
///
/// Memory is bounded: when either memo exceeds its cap the scratch
/// drops both, invalidating every prepared id. Not thread-safe; one per
/// worker, like the Vocabulary it interns into.
class SimilarityScratch {
 public:
  struct Options {
    size_t max_prepared;
    size_t max_pairs;
    // Explicit constructor (not default member initializers) so the
    // struct is usable as a default argument below under GCC.
    Options() : max_prepared(size_t{1} << 18), max_pairs(size_t{1} << 20) {}
  };

  /// `vocab` must outlive the scratch; preparation interns query tokens
  /// exactly like the direct TfIdfCosine / SoftTfIdfSimilarity calls.
  explicit SimilarityScratch(Vocabulary* vocab,
                             Options options = Options());

  SimilarityScratch(const SimilarityScratch&) = delete;
  SimilarityScratch& operator=(const SimilarityScratch&) = delete;

  /// Clears all caches when over budget. Call between evaluations, not
  /// between Prepare and Measures (ids are stable only until the next
  /// compaction).
  void MaybeCompact();

  /// Interns `text`, preparing it on first sight. The id is stable
  /// until the next compaction.
  int32_t Prepare(std::string_view text);

  /// Measure order within the bundle (matching the f1/f2 layout).
  static constexpr int kCosine = 0;
  static constexpr int kJaccard = 1;
  static constexpr int kDice = 2;
  static constexpr int kSoftTfIdf = 3;
  static constexpr int kExact = 4;
  static constexpr int kNumMeasures = 5;

  /// The similarity bundle for the prepared pair (a, b).
  std::array<double, kNumMeasures> Measures(int32_t a, int32_t b);

  size_t num_prepared() const { return prepared_.size(); }
  size_t num_jw_pairs() const { return jw_memo_.size(); }

 private:
  struct PreparedText {
    std::string normalized;
    std::vector<std::string> unique_tokens;  // Sorted distinct tokens.
    TfIdfVector tfidf;
    std::vector<SoftWeightedToken> soft;
    /// Interned token ids parallel to `soft`, keying the Jaro-Winkler
    /// pair memo. Tokens intern by exact normalized text, so id equality
    /// is exactly the `wa.text == wb.text` fast path of
    /// SoftTfIdfFromWeights.
    std::vector<int32_t> soft_ids;
  };

  /// Heterogeneous string hashing so Prepare never copies on a hit.
  struct StringHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>()(s);
    }
  };

  /// Interns one soft token text, assigning a dense id on first sight.
  int32_t InternSoftToken(const std::string& token);

  /// Soft-TFIDF over prepared weights with the token-pair Jaro-Winkler
  /// memo: structurally the SoftTfIdfFromWeights loop, with each
  /// distinct (token, token) JW computed once between compactions
  /// instead of once per (string, string) pairing. Bit-identical to the
  /// direct call — JaroWinkler is deterministic, ids stand in for exact
  /// text equality, and the accumulation order is unchanged.
  double SoftTfIdfMemoized(const PreparedText& pa, const PreparedText& pb);

  Vocabulary* vocab_;
  Options options_;
  std::unordered_map<std::string, int32_t, StringHash, std::equal_to<>>
      id_of_text_;
  std::vector<PreparedText> prepared_;
  /// Distinct soft-token texts -> dense ids, and the (id, id) -> JW memo.
  /// Column batches repeat tokens far more than whole cell strings, so
  /// the memo collapses the quadratic JW inner loop across pairings.
  std::unordered_map<std::string, int32_t, StringHash, std::equal_to<>>
      soft_token_id_;
  std::unordered_map<uint64_t, double> jw_memo_;
};

}  // namespace webtab

#endif  // WEBTAB_TEXT_SIMILARITY_SCRATCH_H_
