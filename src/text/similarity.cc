#include "text/similarity.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "text/tfidf.h"
#include "text/tokenizer.h"

namespace webtab {

namespace {
std::unordered_set<std::string> TokenSet(std::string_view s) {
  std::unordered_set<std::string> out;
  for (auto& t : Tokenize(s)) out.insert(std::move(t));
  return out;
}

size_t IntersectionSize(const std::unordered_set<std::string>& a,
                        const std::unordered_set<std::string>& b) {
  const auto& small = a.size() <= b.size() ? a : b;
  const auto& large = a.size() <= b.size() ? b : a;
  size_t n = 0;
  for (const auto& t : small) n += large.count(t);
  return n;
}
}  // namespace

double JaccardSimilarity(std::string_view a, std::string_view b) {
  auto sa = TokenSet(a);
  auto sb = TokenSet(b);
  if (sa.empty() && sb.empty()) return 1.0;
  if (sa.empty() || sb.empty()) return 0.0;
  size_t inter = IntersectionSize(sa, sb);
  size_t uni = sa.size() + sb.size() - inter;
  return static_cast<double>(inter) / static_cast<double>(uni);
}

double DiceSimilarity(std::string_view a, std::string_view b) {
  auto sa = TokenSet(a);
  auto sb = TokenSet(b);
  if (sa.empty() && sb.empty()) return 1.0;
  if (sa.empty() || sb.empty()) return 0.0;
  size_t inter = IntersectionSize(sa, sb);
  return 2.0 * static_cast<double>(inter) /
         static_cast<double>(sa.size() + sb.size());
}

double EditSimilarity(std::string_view a, std::string_view b) {
  std::string na = NormalizeText(a);
  std::string nb = NormalizeText(b);
  if (na.empty() && nb.empty()) return 1.0;
  if (na.empty() || nb.empty()) return 0.0;
  // Two-row Levenshtein.
  std::vector<int> prev(nb.size() + 1);
  std::vector<int> cur(nb.size() + 1);
  for (size_t j = 0; j <= nb.size(); ++j) prev[j] = static_cast<int>(j);
  for (size_t i = 1; i <= na.size(); ++i) {
    cur[0] = static_cast<int>(i);
    for (size_t j = 1; j <= nb.size(); ++j) {
      int sub = prev[j - 1] + (na[i - 1] != nb[j - 1] ? 1 : 0);
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
    }
    std::swap(prev, cur);
  }
  double dist = prev[nb.size()];
  double max_len = static_cast<double>(std::max(na.size(), nb.size()));
  return 1.0 - dist / max_len;
}

double JaroWinkler(std::string_view a_raw, std::string_view b_raw) {
  std::string a = NormalizeText(a_raw);
  std::string b = NormalizeText(b_raw);
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  if (a == b) return 1.0;
  int la = static_cast<int>(a.size());
  int lb = static_cast<int>(b.size());
  int window = std::max(la, lb) / 2 - 1;
  if (window < 0) window = 0;
  std::vector<bool> matched_a(la, false);
  std::vector<bool> matched_b(lb, false);
  int matches = 0;
  for (int i = 0; i < la; ++i) {
    int lo = std::max(0, i - window);
    int hi = std::min(lb - 1, i + window);
    for (int j = lo; j <= hi; ++j) {
      if (!matched_b[j] && a[i] == b[j]) {
        matched_a[i] = true;
        matched_b[j] = true;
        ++matches;
        break;
      }
    }
  }
  if (matches == 0) return 0.0;
  // Count transpositions among matched characters.
  int transpositions = 0;
  int j = 0;
  for (int i = 0; i < la; ++i) {
    if (!matched_a[i]) continue;
    while (!matched_b[j]) ++j;
    if (a[i] != b[j]) ++transpositions;
    ++j;
  }
  double m = matches;
  double jaro = (m / la + m / lb + (m - transpositions / 2.0) / m) / 3.0;
  // Winkler prefix boost.
  int prefix = 0;
  for (int i = 0; i < std::min({la, lb, 4}); ++i) {
    if (a[i] == b[i]) {
      ++prefix;
    } else {
      break;
    }
  }
  return jaro + prefix * 0.1 * (1.0 - jaro);
}

JaroWinklerSignature MakeJaroWinklerSignature(std::string_view token) {
  JaroWinklerSignature sig;
  if (token.size() > 255) return sig;
  sig.length = static_cast<uint8_t>(token.size());
  for (size_t i = 0; i < token.size(); ++i) {
    const char c = token[i];
    int lane;
    if (c >= '0' && c <= '9') {
      lane = c - '0';
    } else if (c >= 'a' && c <= 'z') {
      lane = 10 + (c - 'a');
    } else {
      return JaroWinklerSignature{};
    }
    ++sig.counts[lane];
    if (i < sig.prefix.size()) sig.prefix[i] = c;
  }
  sig.screenable = true;
  return sig;
}

bool JaroWinklerBelowNineTenths(const JaroWinklerSignature& a,
                                const JaroWinklerSignature& b) {
  if (!a.screenable || !b.screenable) return false;
  const int la = a.length;
  const int lb = b.length;
  int prefix = 0;
  for (int i = 0; i < std::min({la, lb, 4}); ++i) {
    if (a.prefix[i] != b.prefix[i]) break;
    ++prefix;
  }
  const int per_match = (la + lb) * (10 - prefix);
  const int limit = (17 - 2 * prefix) * la * lb;
  // M ≤ min(|a|, |b|): lengths alone often settle it.
  if (std::min(la, lb) * per_match < limit) return true;
  int matches = 0;
  for (int c = 0; c < JaroWinklerSignature::kLanes; ++c) {
    matches += a.counts[c] < b.counts[c] ? a.counts[c] : b.counts[c];
  }
  return matches * per_match < limit;
}

double TfIdfCosine(std::string_view a, std::string_view b,
                   Vocabulary* vocab) {
  return TfIdfVector::Make(a, vocab).Cosine(TfIdfVector::Make(b, vocab));
}

bool ExactNormalizedMatch(std::string_view a, std::string_view b) {
  return NormalizeText(a) == NormalizeText(b);
}

double TokenContainment(std::string_view a, std::string_view b) {
  auto sa = TokenSet(a);
  if (sa.empty()) return 0.0;
  auto sb = TokenSet(b);
  size_t hits = 0;
  for (const auto& t : sa) hits += sb.count(t);
  return static_cast<double>(hits) / static_cast<double>(sa.size());
}

}  // namespace webtab
