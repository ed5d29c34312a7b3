#include "index/column_probe.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "exec/tid_list.h"
#include "text/tokenizer.h"

namespace webtab {

void ColumnProbeBatch::EnsureDenseAccumulator(const LemmaIndexView& index) {
  const CatalogView* cat = &index.catalog();
  if (cat == dense_catalog_) return;
  dense_catalog_ = cat;
  const int32_t n = cat->num_entities();
  entity_lemma_start_.assign(static_cast<size_t>(n) + 1, 0);
  for (int32_t e = 0; e < n; ++e) {
    // Ordinals past 16 bits collide under the kernel's packed-key
    // truncation; the dense slot merges those aliases identically.
    const int32_t nl = cat->NumEntityLemmas(e);
    entity_lemma_start_[e + 1] =
        entity_lemma_start_[e] + std::min(nl, 1 << 16);
  }
  const size_t total =
      static_cast<size_t>(entity_lemma_start_[static_cast<size_t>(n)]);
  acc_.assign(total, 0.0);
  stamp_.assign(total, 0);
  len_.assign(total, 0);
  epoch_ = 0;
  object_stamp_.assign(static_cast<size_t>(n), 0);
  object_best_.assign(static_cast<size_t>(n), 0);
  object_epoch_ = 0;
}

int ColumnProbeBatch::InternToken(const std::string& token,
                                  const LemmaIndexView& index) {
  auto [it, inserted] =
      token_local_.try_emplace(token, static_cast<int>(tokens_.size()));
  if (!inserted) return it->second;

  // First sighting in this column: one lookup + IDF + postings fetch.
  // No per-posting work happens here — postings map to dense slots by
  // arithmetic during scoring.
  ResolvedToken resolved = index.ResolveEntityToken(token);
  tokens_.push_back(LocalToken{resolved.idf, resolved.postings});
  return it->second;
}

void ColumnProbeBatch::ProbeColumn(const Table& table, int c,
                                   const LemmaIndexView& index, int max_hits,
                                   double min_score) {
  EnsureDenseAccumulator(index);
  num_distinct_ = 0;
  row_distinct_.clear();
  distinct_of_text_.clear();
  cell_tokens_.clear();
  cell_token_begin_.assign(1, 0);
  token_local_.clear();
  tokens_.clear();

  // Pass 1: dedupe cells, tokenize each distinct string once, resolve
  // each distinct token once.
  const int rows = table.rows();
  row_distinct_.reserve(rows);
  for (int r = 0; r < rows; ++r) {
    const std::string& text = table.cell(r, c);
    auto [it, inserted] =
        distinct_of_text_.try_emplace(std::string_view(text), num_distinct_);
    if (inserted) {
      ++num_distinct_;
      const size_t ntok = TokenizeInto(text, &tokenize_scratch_);
      for (size_t i = 0; i < ntok; ++i) {
        cell_tokens_.push_back(InternToken(tokenize_scratch_[i], index));
      }
      cell_token_begin_.push_back(cell_tokens_.size());
    }
    row_distinct_.push_back(it->second);
  }

  // Pass 2: score each distinct cell in one sweep.
  if (static_cast<int>(hits_.size()) < num_distinct_) {
    hits_.resize(num_distinct_);
  }
  for (int d = 0; d < num_distinct_; ++d) {
    ScoreDistinct(d, max_hits, min_score);
  }
}

void ColumnProbeBatch::ScoreDistinct(int d, int max_hits, double min_score) {
  std::vector<LemmaHit>& out = hits_[d];
  out.clear();
  const size_t begin = cell_token_begin_[d];
  const size_t end = cell_token_begin_[d + 1];
  const size_t ntokens = end - begin;
  if (ntokens == 0 || max_hits <= 0) return;

  // Query norm in token-occurrence order — the exact FP sum the
  // per-cell kernel accumulates interleaved with its postings walk.
  double query_norm_sq = 0.0;
  for (size_t i = begin; i < end; ++i) {
    const double idf = tokens_[cell_tokens_[i]].idf;
    query_norm_sq += idf * idf;
  }
  const double query_norm = std::sqrt(query_norm_sq);

  // One occurrence-order walk stamps and accumulates at once — the
  // kernel's exact add order per lemma.
  ++epoch_;
  touched_g_.clear();
  touched_id_.clear();
  touched_ord_.clear();
  for (size_t i = begin; i < end; ++i) {
    const LocalToken& tok = tokens_[cell_tokens_[i]];
    if (tok.postings.empty()) continue;
    const double idf2 = tok.idf * tok.idf;
    for (const LemmaPosting& p : tok.postings) {
      const int64_t g = entity_lemma_start_[p.id] + (p.lemma_ord & 0xFFFF);
      if (stamp_[g] != epoch_) {
        stamp_[g] = epoch_;
        acc_[g] = idf2;  // 0.0 + idf2 is exact.
        touched_g_.push_back(g);
        touched_id_.push_back(p.id);
        touched_ord_.push_back(p.lemma_ord & 0xFFFF);
      } else {
        acc_[g] += idf2;
      }
      len_[g] = p.lemma_len;  // Last-write-wins, as in the kernel.
    }
    postings_walked_ += static_cast<int64_t>(tok.postings.size());
  }
  if (touched_g_.empty()) return;
  ReduceTouched(d, max_hits, min_score, query_norm, ntokens);
}

// Reduction over the touched batch, in selection-vector chunks: score
// lane, then a branch-free keep of hits that can survive the min-score
// filter, then the canonical per-object best fold (max score, ties
// toward the lowest lemma ordinal). The keep is exact: the final filter
// erases every hit below min_score, and such hits sort after every
// surviving hit, so truncate-then-erase equals erase-then-truncate.
void ColumnProbeBatch::ReduceTouched(int d, int max_hits, double min_score,
                                     double query_norm, size_t ntokens) {
  std::vector<LemmaHit>& out = hits_[d];
  const size_t num_touched = touched_g_.size();
  ++object_epoch_;
  best_.clear();

  // The kernel's per-hit expression
  //   s = min(fl(num / fl(qn * ln)), 1),
  //   ln = fl(fl(sqrt(len) * qn) / sqrt(nt)),
  // depends on the lemma only through (num, len), and len takes few
  // distinct values per cell — so ln, the denominator fl(qn * ln), and
  // a prescreen threshold are cached per len under the cell's epoch
  // (pure reuse of identical subexpressions: every cached double is the
  // value the kernel would compute in place). The prescreen is a
  // conservative bound on the raw overlap sum: s >= num / (qn * ln) *
  // (1 - 2u)^2 under round-to-nearest (unit roundoff u), so
  //   T(len) = fl(fl(fl(min_score * qn) * ln) * (1 - 16u))
  //          <= min_score * qn * ln * (1 - 8u)
  // and num < T(len) proves s < min_score: the hit would be erased by
  // the final filter regardless (sub-threshold hits sort last), so the
  // element skips the divide and the fold without changing any output
  // bit.
  const double sqrt_ntokens = std::sqrt(static_cast<double>(ntokens));
  const bool screen = min_score > 0.0 && query_norm > 0.0;
  const double mq = min_score * query_norm;
  constexpr double kScreenSlack =
      1.0 - 16.0 * std::numeric_limits<double>::epsilon();
  if (len_cache_.empty()) {
    len_cache_.assign(kLenCacheSize, LenCache{});
  }

  exec::TidList sel;
  std::array<double, exec::kBatchSize> score_lane;
  for (size_t cb = 0; cb < num_touched; cb += exec::kBatchSize) {
    const uint32_t n = static_cast<uint32_t>(
        std::min<size_t>(exec::kBatchSize, num_touched - cb));
    for (uint32_t j = 0; j < n; ++j) {
      const int64_t g = touched_g_[cb + j];
      const double num = acc_[g];
      const int32_t len = len_[g];
      double score;
      if (len < kLenCacheSize) {
        LenCache& lc = len_cache_[len];
        if (lc.stamp != epoch_) {
          lc.stamp = epoch_;
          lc.ln = std::sqrt(static_cast<double>(len)) * query_norm /
                  sqrt_ntokens;
          lc.denom = query_norm * lc.ln;
          lc.screen = screen ? mq * lc.ln * kScreenSlack : -1.0;
        }
        if (num < lc.screen) {
          score_lane[j] = -1.0;  // Provably below min_score.
          continue;
        }
        score = lc.ln > 0 ? num / lc.denom : 0.0;
      } else {
        const double lemma_norm = std::sqrt(static_cast<double>(len)) *
                                  query_norm / sqrt_ntokens;
        score = lemma_norm > 0 ? num / (query_norm * lemma_norm) : 0.0;
      }
      score_lane[j] = std::min(score, 1.0);
    }
    uint32_t* keep = sel.mutable_data();
    uint32_t m = 0;
    for (uint32_t j = 0; j < n; ++j) {
      keep[m] = j;
      m += static_cast<uint32_t>(score_lane[j] >= min_score);
    }
    sel.SetSize(m);
    for (uint32_t jj = 0; jj < m; ++jj) {
      const uint32_t j = keep[jj];
      const double score = score_lane[j];
      const int32_t id = touched_id_[cb + j];
      const int32_t ord = touched_ord_[cb + j];
      if (object_stamp_[id] != object_epoch_) {
        object_stamp_[id] = object_epoch_;
        object_best_[id] = static_cast<int32_t>(best_.size());
        best_.push_back(LemmaHit{id, ord, score});
      } else {
        LemmaHit& cur = best_[object_best_[id]];
        if (cur.score < score ||
            (cur.score == score && ord < cur.lemma_ord)) {
          cur = LemmaHit{id, ord, score};
        }
      }
    }
  }

  // best_ holds one hit per object (unique ids), so (score desc, id asc)
  // is a total order and a partial top-max_hits copy is identical to the
  // kernel's full sort + truncate.
  out.resize(std::min<size_t>(best_.size(), static_cast<size_t>(max_hits)));
  std::partial_sort_copy(best_.begin(), best_.end(), out.begin(), out.end(),
                         [](const LemmaHit& a, const LemmaHit& b) {
                           if (a.score != b.score) return a.score > b.score;
                           return a.id < b.id;  // Deterministic tie-break.
                         });
  out.erase(std::remove_if(out.begin(), out.end(),
                           [&](const LemmaHit& h) {
                             return h.score < min_score;
                           }),
            out.end());
}

}  // namespace webtab
