#include "text/similarity_scratch.h"

#include <algorithm>

#include "text/similarity.h"
#include "text/tokenizer.h"

namespace webtab {

namespace {

/// The soft-TFIDF match threshold — must equal the default of
/// SoftTfIdfFromWeights, which the memoized path replicates.
constexpr double kSoftThreshold = 0.9;

}  // namespace

SimilarityScratch::SimilarityScratch(Vocabulary* vocab, Options options)
    : vocab_(vocab), options_(options) {}

void SimilarityScratch::MaybeCompact() {
  if (prepared_.size() <= options_.max_prepared &&
      jw_memo_.size() <= options_.max_pairs) {
    return;
  }
  id_of_text_.clear();
  prepared_.clear();
  soft_token_id_.clear();
  jw_memo_.clear();
}

int32_t SimilarityScratch::Prepare(std::string_view text) {
  auto it = id_of_text_.find(text);
  if (it != id_of_text_.end()) return it->second;

  PreparedText p;
  // The TF-IDF vector is built first so query tokens intern in Tokenize
  // order — the same vocabulary evolution as the streaming path, where
  // TfIdfCosine ran before the other measures. Later builders re-intern
  // the same tokens, which is a no-op.
  p.tfidf = TfIdfVector::Make(text, vocab_);
  p.normalized = NormalizeText(text);
  p.unique_tokens = Tokenize(text);
  std::sort(p.unique_tokens.begin(), p.unique_tokens.end());
  p.unique_tokens.erase(
      std::unique(p.unique_tokens.begin(), p.unique_tokens.end()),
      p.unique_tokens.end());
  p.soft = SoftTfIdfWeights(text, vocab_);
  p.soft_ids.reserve(p.soft.size());
  for (const SoftWeightedToken& wt : p.soft) {
    p.soft_ids.push_back(InternSoftToken(wt.text));
  }

  const int32_t id = static_cast<int32_t>(prepared_.size());
  prepared_.push_back(std::move(p));
  id_of_text_.emplace(std::string(text), id);
  return id;
}

std::array<double, SimilarityScratch::kNumMeasures>
SimilarityScratch::Measures(int32_t a, int32_t b) {
  const PreparedText& pa = prepared_[a];
  const PreparedText& pb = prepared_[b];
  std::array<double, kNumMeasures> m{};
  m[kCosine] = pa.tfidf.Cosine(pb.tfidf);

  // Token-set measures from the sorted distinct tokens; the counts are
  // integers, so the resulting doubles match the hash-set originals.
  const size_t na = pa.unique_tokens.size();
  const size_t nb = pb.unique_tokens.size();
  if (na == 0 && nb == 0) {
    m[kJaccard] = 1.0;
    m[kDice] = 1.0;
  } else if (na != 0 && nb != 0) {
    size_t inter = 0;
    size_t i = 0;
    size_t j = 0;
    while (i < na && j < nb) {
      const int cmp = pa.unique_tokens[i].compare(pb.unique_tokens[j]);
      if (cmp == 0) {
        ++inter;
        ++i;
        ++j;
      } else if (cmp < 0) {
        ++i;
      } else {
        ++j;
      }
    }
    m[kJaccard] = static_cast<double>(inter) /
                  static_cast<double>(na + nb - inter);
    m[kDice] =
        2.0 * static_cast<double>(inter) / static_cast<double>(na + nb);
  }

  m[kSoftTfIdf] = SoftTfIdfMemoized(pa, pb);
  m[kExact] = pa.normalized == pb.normalized ? 1.0 : 0.0;
  return m;
}

int32_t SimilarityScratch::InternSoftToken(const std::string& token) {
  auto it = soft_token_id_.find(token);
  if (it != soft_token_id_.end()) return it->second;
  const int32_t id = static_cast<int32_t>(soft_token_id_.size());
  soft_token_id_.emplace(token, id);
  return id;
}

double SimilarityScratch::SoftTfIdfMemoized(const PreparedText& pa,
                                            const PreparedText& pb) {
  const std::vector<SoftWeightedToken>& a = pa.soft;
  const std::vector<SoftWeightedToken>& b = pb.soft;
  if (a.empty() || b.empty()) return a.empty() && b.empty() ? 1.0 : 0.0;
  double score = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const int32_t ida = pa.soft_ids[i];
    double best_sim = 0.0;
    double best_wb = 0.0;
    for (size_t j = 0; j < b.size(); ++j) {
      const int32_t idb = pb.soft_ids[j];
      double sim;
      if (ida == idb) {
        sim = 1.0;
      } else {
        // Ordered key: no reliance on JaroWinkler being exactly
        // symmetric at the bit level.
        const uint64_t key =
            (static_cast<uint64_t>(static_cast<uint32_t>(ida)) << 32) |
            static_cast<uint32_t>(idb);
        auto it = jw_memo_.find(key);
        if (it != jw_memo_.end()) {
          sim = it->second;
        } else {
          sim = JaroWinkler(a[i].text, b[j].text);
          jw_memo_.emplace(key, sim);
        }
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
