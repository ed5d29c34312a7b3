#include "text/similarity_scratch.h"

#include <algorithm>

#include "common/logging.h"
#include "text/soft_tfidf.h"
#include "text/tfidf.h"
#include "text/tokenizer.h"

namespace webtab {

namespace {

/// The soft-TFIDF match threshold — must equal the default of
/// SoftTfIdfFromWeights, which SoftTfIdf replicates, and the 9/10 that
/// JaroWinklerBelowNineTenths screens against.
constexpr double kSoftThreshold = 0.9;

}  // namespace

SimilarityScratch::SimilarityScratch(Vocabulary* vocab, Options options)
    : vocab_(vocab), options_(options) {}

void SimilarityScratch::MaybeCompact() {
  if (prepared_.size() <= options_.max_prepared) return;
  id_of_text_.clear();
  prepared_.clear();
  tfidf_.clear();
  soft_.clear();
  tokens_.clear();
  token_of_vocab_id_.clear();
  std::fill(slots_.begin(), slots_.end(), -1);
}

void SimilarityScratch::ResizeSlots(size_t n) { slots_.assign(n, -1); }

int32_t SimilarityScratch::TokenIndex(TokenId id) {
  if (static_cast<size_t>(id) >= token_of_vocab_id_.size()) {
    token_of_vocab_id_.resize(static_cast<size_t>(id) + 1, -1);
  }
  int32_t& index = token_of_vocab_id_[id];
  if (index < 0) {
    index = static_cast<int32_t>(tokens_.size());
    tokens_.push_back(
        Token{id, MakeJaroWinklerSignature(vocab_->TokenText(id))});
  }
  return index;
}

int32_t SimilarityScratch::Prepare(std::string_view text) {
  auto it = id_of_text_.find(text);
  if (it != id_of_text_.end()) return it->second;

  PreparedText p;
  // The TF-IDF vector is built first so query tokens intern in Tokenize
  // order — the same vocabulary evolution as the direct calls, where
  // TfIdfCosine runs before the other measures. The soft weights
  // re-intern the same tokens, which is a no-op.
  const TfIdfVector tfidf = TfIdfVector::Make(text, vocab_);
  const std::vector<SoftWeightedToken> soft = SoftTfIdfWeights(text, vocab_);
  WEBTAB_CHECK(tfidf.entries().size() == soft.size());
  p.normalized = NormalizeText(text);
  p.begin = static_cast<uint32_t>(tfidf_.size());
  p.size = static_cast<uint32_t>(soft.size());
  tfidf_.insert(tfidf_.end(), tfidf.entries().begin(), tfidf.entries().end());
  for (const SoftWeightedToken& wt : soft) {
    soft_.push_back(SoftEntry{TokenIndex(wt.id), wt.weight});
  }

  const int32_t id = static_cast<int32_t>(prepared_.size());
  prepared_.push_back(std::move(p));
  id_of_text_.emplace(std::string(text), id);
  return id;
}

std::array<double, SimilarityScratch::kNumMeasures>
SimilarityScratch::Measures(int32_t a, int32_t b) const {
  const PreparedText& pa = prepared_[a];
  const PreparedText& pb = prepared_[b];
  std::array<double, kNumMeasures> m{};

  // One merge: the cosine dot in TfIdfVector::Cosine's order, and the
  // count of shared tokens for Jaccard and Dice. The counts are
  // integers, so the ratios match the hash-set originals.
  const std::pair<TokenId, double>* ea = tfidf_.data() + pa.begin;
  const std::pair<TokenId, double>* eb = tfidf_.data() + pb.begin;
  const size_t na = pa.size;
  const size_t nb = pb.size;
  double dot = 0.0;
  size_t inter = 0;
  size_t i = 0;
  size_t j = 0;
  while (i < na && j < nb) {
    if (ea[i].first == eb[j].first) {
      dot += ea[i].second * eb[j].second;
      ++inter;
      ++i;
      ++j;
    } else if (ea[i].first < eb[j].first) {
      ++i;
    } else {
      ++j;
    }
  }
  m[kCosine] = std::clamp(dot, 0.0, 1.0);
  if (na == 0 && nb == 0) {
    m[kJaccard] = 1.0;
    m[kDice] = 1.0;
  } else if (na != 0 && nb != 0) {
    m[kJaccard] = static_cast<double>(inter) /
                  static_cast<double>(na + nb - inter);
    m[kDice] =
        2.0 * static_cast<double>(inter) / static_cast<double>(na + nb);
  }

  m[kSoftTfIdf] = SoftTfIdf(pa, pb);
  // Equal normalized strings have equal token sets.
  m[kExact] = inter == na && inter == nb && pa.normalized == pb.normalized
                  ? 1.0
                  : 0.0;
  return m;
}

double SimilarityScratch::SoftTfIdf(const PreparedText& pa,
                                    const PreparedText& pb) const {
  if (pa.size == 0 || pb.size == 0) {
    return pa.size == 0 && pb.size == 0 ? 1.0 : 0.0;
  }
  const SoftEntry* a = soft_.data() + pa.begin;
  const SoftEntry* b = soft_.data() + pb.begin;
  double score = 0.0;
  for (uint32_t i = 0; i < pa.size; ++i) {
    const Token& ta = tokens_[a[i].token];
    double best_sim = 0.0;
    double best_wb = 0.0;
    for (uint32_t j = 0; j < pb.size; ++j) {
      double sim;
      if (a[i].token == b[j].token) {
        sim = 1.0;
      } else {
        const Token& tb = tokens_[b[j].token];
        if (JaroWinklerBelowNineTenths(ta.signature, tb.signature)) {
          continue;  // sim < 0.9: never the qualifying best.
        }
        sim = JaroWinkler(vocab_->TokenText(ta.vocab_id),
                          vocab_->TokenText(tb.vocab_id));
      }
      if (sim > best_sim) {
        best_sim = sim;
        best_wb = b[j].weight;
      }
    }
    if (best_sim >= kSoftThreshold) score += best_sim * a[i].weight * best_wb;
  }
  return std::clamp(score, 0.0, 1.0);
}

}  // namespace webtab
