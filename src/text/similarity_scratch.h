#ifndef WEBTAB_TEXT_SIMILARITY_SCRATCH_H_
#define WEBTAB_TEXT_SIMILARITY_SCRATCH_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "text/similarity.h"
#include "text/vocabulary.h"

namespace webtab {

/// Reusable scratch for the f1/f2 text-similarity bundle (§4.2.1/4.2.2):
/// TF-IDF cosine, Jaccard, Dice, soft-TFIDF and exact normalized match.
///
/// Each distinct string is *prepared* once — tokenized, TF-IDF weighted
/// both ways, normalized — and keyed by its text. Callers that address
/// strings by a dense index (catalog lemmas) keep the prepared id in a
/// slot, so a repeat costs an array read instead of a string hash. Each
/// distinct token gets one Jaro-Winkler signature.
///
/// Each (string, string) bundle is then scored from the prepared forms:
///   - Cosine, Jaccard and Dice come from one merge of the two TF-IDF
///     vectors' sorted token ids. A prepared vector holds exactly one
///     entry per distinct token (every idf is ≥ 1, so the norm of a
///     non-empty string is non-zero), and vocabulary ids are 1:1 with
///     token text, so the merge's count of equal ids is the token-set
///     intersection. The cosine sum keeps TfIdfVector::Cosine's order.
///   - Soft-TFIDF skips every token pair that JaroWinklerBelowNineTenths
///     proves below its 0.9 threshold. Such a pair has similarity < 0.9,
///     at most any qualifying best, so the best match, its weight and
///     the score are unchanged. On the first 600 tables of the Figure 5
///     annotate pool a table walks ~5,700 token pairs; ~1,390 have
///     equal tokens, 7.3 of the other ~4,310 pass the bound (2,570
///     would pass a length-only bound) and 6.7 reach 0.9. There is no
///     Jaro-Winkler memo: it probed a hash per pair to save a handful
///     of calls per table, and its memory grew with traffic.
///   - Exact match compares the normalized strings, and only when the
///     merge found equal token sets.
/// There is no per-pair memo either: fresh tables rarely repeat a pair.
/// Values are bit-identical to the direct similarity calls (asserted in
/// tests/candidate_equivalence_test.cc).
///
/// Memory is bounded: past `max_prepared` strings the scratch drops
/// every prepared string, token signature and slot, invalidating every
/// prepared id. Not thread-safe; one per worker, like the Vocabulary it
/// interns into.
class SimilarityScratch {
 public:
  struct Options {
    size_t max_prepared;
    // Explicit constructor (not a default member initializer) so the
    // struct is usable as a default argument below under GCC.
    Options() : max_prepared(size_t{1} << 18) {}
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

  /// Sizes the slot table to `n` slots, all empty.
  void ResizeSlots(size_t n);

  /// The prepared id held in `slot`, filled with Prepare(text_at()) when
  /// the slot is empty (first use, or first use since a compaction).
  /// `text_at` is called only then.
  template <typename TextAt>
  int32_t PrepareSlot(size_t slot, TextAt text_at) {
    if (slots_[slot] < 0) slots_[slot] = Prepare(text_at());
    return slots_[slot];
  }

  /// Measure order within the bundle (matching the f1/f2 layout).
  static constexpr int kCosine = 0;
  static constexpr int kJaccard = 1;
  static constexpr int kDice = 2;
  static constexpr int kSoftTfIdf = 3;
  static constexpr int kExact = 4;
  static constexpr int kNumMeasures = 5;

  /// The similarity bundle for the prepared pair (a, b).
  std::array<double, kNumMeasures> Measures(int32_t a, int32_t b) const;

  size_t num_prepared() const { return prepared_.size(); }

 private:
  /// One prepared string. Its distinct tokens are entries
  /// [begin, begin + size) of both tfidf_ (sorted by token id) and
  /// soft_ (sorted by token text).
  struct PreparedText {
    std::string normalized;
    uint32_t begin = 0;
    uint32_t size = 0;
  };

  /// One soft-TFIDF entry: the token's index in tokens_ (equal indexes
  /// mean equal text) and its weight.
  struct SoftEntry {
    int32_t token;
    double weight;
  };

  struct Token {
    TokenId vocab_id;
    JaroWinklerSignature signature;
  };

  /// Index of vocabulary token `id` in tokens_, signing it on first
  /// sight.
  int32_t TokenIndex(TokenId id);

  /// Soft-TFIDF over prepared entries: the SoftTfIdfFromWeights loop,
  /// with the pairs the signatures rule out skipped.
  double SoftTfIdf(const PreparedText& pa, const PreparedText& pb) const;

  Vocabulary* vocab_;
  Options options_;

  /// Heterogeneous string hashing so Prepare never copies on a hit.
  struct StringHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>()(s);
    }
  };
  std::unordered_map<std::string, int32_t, StringHash, std::equal_to<>>
      id_of_text_;
  std::vector<PreparedText> prepared_;
  std::vector<std::pair<TokenId, double>> tfidf_;
  std::vector<SoftEntry> soft_;
  std::vector<Token> tokens_;
  /// Vocabulary id -> index in tokens_, or -1.
  std::vector<int32_t> token_of_vocab_id_;
  /// Caller-addressed prepared ids, -1 when empty.
  std::vector<int32_t> slots_;
};

}  // namespace webtab

#endif  // WEBTAB_TEXT_SIMILARITY_SCRATCH_H_
