#include "text/soft_tfidf.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "text/similarity.h"
#include "text/tokenizer.h"

namespace webtab {

std::vector<SoftWeightedToken> SoftTfIdfWeights(std::string_view text,
                                                Vocabulary* vocab) {
  std::map<std::string, double> tf;
  for (const std::string& t : Tokenize(text)) tf[t] += 1.0;
  std::vector<SoftWeightedToken> out;
  double norm_sq = 0.0;
  for (auto& [tok, f] : tf) {
    const TokenId id = vocab->Intern(tok);
    double w = f * vocab->Idf(id);
    out.push_back({tok, w, id});
    norm_sq += w * w;
  }
  if (norm_sq > 0) {
    double inv = 1.0 / std::sqrt(norm_sq);
    for (auto& wt : out) wt.weight *= inv;
  }
  return out;
}

double SoftTfIdfFromWeights(const std::vector<SoftWeightedToken>& a,
                            const std::vector<SoftWeightedToken>& b,
                            double threshold) {
  if (a.empty() || b.empty()) return a.empty() && b.empty() ? 1.0 : 0.0;
  double score = 0.0;
  for (const auto& wa : a) {
    double best_sim = 0.0;
    double best_wb = 0.0;
    for (const auto& wb : b) {
      double sim = wa.text == wb.text ? 1.0 : JaroWinkler(wa.text, wb.text);
      if (sim > best_sim) {
        best_sim = sim;
        best_wb = wb.weight;
      }
    }
    if (best_sim >= threshold) score += best_sim * wa.weight * best_wb;
  }
  return std::clamp(score, 0.0, 1.0);
}

double SoftTfIdfSimilarity(std::string_view a, std::string_view b,
                           Vocabulary* vocab, double threshold) {
  return SoftTfIdfFromWeights(SoftTfIdfWeights(a, vocab),
                              SoftTfIdfWeights(b, vocab), threshold);
}

}  // namespace webtab
