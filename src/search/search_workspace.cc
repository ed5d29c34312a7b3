#include "search/search_workspace.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "obs/trace.h"
#include "text/tokenizer.h"

namespace webtab {
namespace search_internal {

namespace {

/// splitmix64 finalizer: integer keys (entity ids).
inline uint64_t HashInt(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// FNV-1a: byte keys (normalized text, cell strings).
inline uint64_t HashBytes(std::string_view s) {
  uint64_t h = 1469598103934665603ull;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

constexpr size_t kMinCapacity = 64;

inline size_t GrownCapacity(size_t current) {
  return current == 0 ? kMinCapacity : current * 2;
}

}  // namespace

// --- EntityAccumulator ----------------------------------------------------

void EntityAccumulator::Begin() {
  ++epoch_;
  touched_.clear();
}

void EntityAccumulator::Grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(GrownCapacity(old.size()), Slot{});
  const size_t mask = slots_.size() - 1;
  for (uint32_t& idx : touched_) {
    const Slot& s = old[idx];
    size_t i = HashInt(static_cast<uint64_t>(s.entity)) & mask;
    while (slots_[i].epoch == epoch_) i = (i + 1) & mask;
    slots_[i] = s;
    idx = static_cast<uint32_t>(i);
  }
}

double& EntityAccumulator::Add(EntityId e) {
  if (slots_.empty() || (touched_.size() + 1) * 4 > slots_.size() * 3) {
    Grow();
  }
  const size_t mask = slots_.size() - 1;
  size_t i = HashInt(static_cast<uint64_t>(e)) & mask;
  while (slots_[i].epoch == epoch_) {
    if (slots_[i].entity == e) return slots_[i].score;
    i = (i + 1) & mask;
  }
  Slot& slot = slots_[i];
  slot.epoch = epoch_;
  slot.entity = e;
  slot.score = 0.0;
  touched_.push_back(static_cast<uint32_t>(i));
  return slot.score;
}

void EntityAccumulator::ExtractRanked(
    int limit, std::vector<std::pair<EntityId, double>>* out) const {
  out->clear();
  for (uint32_t i : touched_) {
    out->emplace_back(slots_[i].entity, slots_[i].score);
  }
  std::sort(out->begin(), out->end(),
            [](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second > b.second;
              return a.first < b.first;
            });
  if (limit >= 0 && out->size() > static_cast<size_t>(limit)) {
    out->resize(limit);
  }
}

// --- EvidenceMap ----------------------------------------------------------

void EvidenceMap::Begin() {
  ++epoch_;
  touched_.clear();
  arena_.clear();
  max_score_ = 0.0;
}

void EvidenceMap::Grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(GrownCapacity(old.size()), Slot{});
  const size_t mask = slots_.size() - 1;
  for (uint32_t& idx : touched_) {
    const Slot& s = old[idx];
    size_t i = s.hash & mask;
    while (slots_[i].epoch == epoch_) i = (i + 1) & mask;
    slots_[i] = s;
    idx = static_cast<uint32_t>(i);
  }
}

EvidenceMap::Slot& EvidenceMap::FindOrInsert(uint64_t hash, EntityId entity,
                                             std::string_view text_key) {
  if (slots_.empty() || (touched_.size() + 1) * 4 > slots_.size() * 3) {
    Grow();
  }
  const size_t mask = slots_.size() - 1;
  size_t i = hash & mask;
  while (slots_[i].epoch == epoch_) {
    Slot& s = slots_[i];
    if (s.hash == hash && s.entity == entity &&
        (entity != kNa || KeyOf(s) == text_key)) {
      return s;
    }
    i = (i + 1) & mask;
  }
  Slot& slot = slots_[i];
  slot.epoch = epoch_;
  slot.hash = hash;
  slot.entity = entity;
  slot.key_off = static_cast<uint32_t>(arena_.size());
  slot.key_len = static_cast<uint32_t>(text_key.size());
  arena_.append(text_key);
  slot.disp_off = slot.disp_len = 0;
  slot.disp_table = 0;
  slot.score = 0.0;
  touched_.push_back(static_cast<uint32_t>(i));
  return slot;
}

void EvidenceMap::MaybeTakeDisplay(Slot* slot, int32_t table,
                                   std::string_view raw) {
  // The display string is the first non-empty raw form in ascending
  // table order — identical to the reference aggregator's "first
  // non-empty seen" under its ascending scan, but stable under any
  // processing order. Within one table the first occurrence wins
  // (strictly-lower replaces only).
  if (raw.empty()) return;
  if (slot->disp_len != 0 && table >= slot->disp_table) return;
  slot->disp_off = static_cast<uint32_t>(arena_.size());
  slot->disp_len = static_cast<uint32_t>(raw.size());
  slot->disp_table = table;
  arena_.append(raw);
}

void EvidenceMap::AddEntity(int32_t table, EntityId e,
                            std::string_view raw_text, double score) {
  Slot& slot = FindOrInsert(HashInt(static_cast<uint64_t>(e)), e, {});
  MaybeTakeDisplay(&slot, table, raw_text);
  slot.score += score;
  if (slot.score > max_score_) max_score_ = slot.score;
}

void EvidenceMap::AddText(int32_t table, std::string_view normalized,
                          std::string_view raw, double score) {
  if (normalized.empty()) return;
  Slot& slot = FindOrInsert(HashBytes(normalized), kNa, normalized);
  MaybeTakeDisplay(&slot, table, raw);
  slot.score += score;
  if (slot.score > max_score_) max_score_ = slot.score;
}

void EvidenceMap::EmitRanked(int k, std::vector<SearchResult>* out) {
  order_.assign(touched_.begin(), touched_.end());
  // The documented ranking convention, shared with PR 4's LemmaHit
  // ordering: score desc, then ascending id (kNa text answers first),
  // then display text asc. Distinct slots always differ on one of the
  // three (equal displays imply equal normalized keys imply one slot),
  // so the order is total and deterministic.
  auto cmp = [this](uint32_t ia, uint32_t ib) {
    const Slot& a = slots_[ia];
    const Slot& b = slots_[ib];
    if (a.score != b.score) return a.score > b.score;
    if (a.entity != b.entity) return a.entity < b.entity;
    return DisplayOf(a) < DisplayOf(b);
  };
  size_t n = order_.size();
  if (k > 0 && static_cast<size_t>(k) < n) {
    std::partial_sort(order_.begin(), order_.begin() + k, order_.end(),
                      cmp);
    n = static_cast<size_t>(k);
  } else {
    std::sort(order_.begin(), order_.end(), cmp);
  }
  // Resize `out` without destroying string capacity: surplus element
  // strings park in the spare pool, and new elements pull from it —
  // across repeated queries every buffer converges to its peak size
  // and emission stops allocating.
  while (out->size() > n) {
    spare_strings_.push_back(std::move(out->back().text));
    out->pop_back();
  }
  while (out->size() < n) {
    SearchResult r;
    if (!spare_strings_.empty()) {
      r.text = std::move(spare_strings_.back());
      spare_strings_.pop_back();
    }
    out->push_back(std::move(r));
  }
  for (size_t i = 0; i < n; ++i) {
    const Slot& s = slots_[order_[i]];
    SearchResult& r = (*out)[i];
    r.entity = s.entity;
    std::string_view display = DisplayOf(s);
    r.text.assign(display.data(), display.size());
    r.score = s.score;
  }
}

void EvidenceMap::CopyScores(std::vector<double>* scratch) const {
  scratch->clear();
  for (uint32_t i : touched_) scratch->push_back(slots_[i].score);
}

// --- TextMatchMemo --------------------------------------------------------

void TextMatchMemo::SetTarget(std::string_view normalized_target) {
  ++epoch_;
  used_ = 0;
  target_.assign(normalized_target);
  size_t n = TokenizeInto(target_, &target_tokens_);
  std::sort(target_tokens_.begin(), target_tokens_.begin() + n);
  auto end = std::unique(target_tokens_.begin(), target_tokens_.begin() + n);
  target_token_count_ =
      static_cast<size_t>(end - target_tokens_.begin());
}

void TextMatchMemo::Grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(GrownCapacity(old.size()), Slot{});
  const size_t mask = slots_.size() - 1;
  for (const Slot& s : old) {
    if (s.epoch != epoch_) continue;
    size_t i = s.hash & mask;
    while (slots_[i].epoch == epoch_) i = (i + 1) & mask;
    slots_[i] = s;
  }
}

bool TextMatchMemo::Matches(std::string_view cell) {
  if (slots_.empty() || (used_ + 1) * 4 > slots_.size() * 3) Grow();
  const uint64_t hash = HashBytes(cell);
  const size_t mask = slots_.size() - 1;
  size_t i = hash & mask;
  while (slots_[i].epoch == epoch_) {
    const Slot& s = slots_[i];
    if (s.hash == hash && s.len == cell.size() &&
        (s.ptr == cell.data() ||
         std::memcmp(s.ptr, cell.data(), cell.size()) == 0)) {
      return s.value;
    }
    i = (i + 1) & mask;
  }
  Slot& slot = slots_[i];
  slot.epoch = epoch_;
  slot.hash = hash;
  slot.ptr = cell.data();
  slot.len = static_cast<uint32_t>(cell.size());
  slot.value = Compute(cell);
  ++used_;
  return slot.value;
}

bool TextMatchMemo::Compute(std::string_view cell) {
  // Bit-identical to tests/reference_search.h's CellMatchesText(cell,
  // target_): exact normalized match, else token-set Jaccard >= 0.5 —
  // same normalization, same distinct-token counts, same double
  // division.
  NormalizeTextInto(cell, &norm_);
  if (norm_ == target_) return true;
  size_t n = TokenizeInto(norm_, &tokens_);
  std::sort(tokens_.begin(), tokens_.begin() + n);
  auto end = std::unique(tokens_.begin(), tokens_.begin() + n);
  const size_t na = static_cast<size_t>(end - tokens_.begin());
  const size_t nb = target_token_count_;
  if (na == 0 || nb == 0) {
    // Jaccard defines empty/empty as 1.0, but that case is exact-equal
    // and already returned above; one-sided empty is 0.0.
    return false;
  }
  size_t inter = 0, ia = 0, ib = 0;
  while (ia < na && ib < nb) {
    int c = tokens_[ia].compare(target_tokens_[ib]);
    if (c < 0) {
      ++ia;
    } else if (c > 0) {
      ++ib;
    } else {
      ++inter;
      ++ia;
      ++ib;
    }
  }
  const size_t uni = na + nb - inter;
  return static_cast<double>(inter) / static_cast<double>(uni) >= 0.5;
}

}  // namespace search_internal

// --- SearchWorkspace ------------------------------------------------------

void SearchWorkspace::BeginSelect(std::string_view normalized_e2) {
  evidence_.Begin();
  memo_.SetTarget(normalized_e2);
  query_stats = QueryStats{};
  decision_log.clear();
  decision_bounds_valid = false;
  stop_check_skip_ = 0;
  stop_check_backoff_ = 1;
}

void SearchWorkspace::AddText(int32_t table, std::string_view raw,
                              double score) {
  NormalizeTextInto(raw, &text_key_scratch_);
  evidence_.AddText(table, text_key_scratch_, raw, score);
}

void SearchWorkspace::GatherTableSupport(int32_t table) {
  // Gallops every token's cursor to `table` and collects its entries
  // there, grouped by column. The index lists a token's columns in
  // ascending order within a table, but DeepValidate checks only table
  // order, so a validated file may list them in any order: insert each
  // entry behind the last one with a column no greater than its own.
  support_scratch_.clear();
  for (SupportCursor& cursor : support_cursors_) {
    cursor.postings.SeekTable(table);
    if (cursor.postings.done() || cursor.postings.table() != table) {
      continue;
    }
    for (const CellTokenRef& r : cursor.postings.TakeRun()) {
      const SupportEntry entry{r.col, r.min_tokens, cursor.bit, r.cooc};
      size_t pos = support_scratch_.size();
      support_scratch_.push_back(entry);
      while (pos > 0 && support_scratch_[pos - 1].col > entry.col) {
        support_scratch_[pos] = support_scratch_[pos - 1];
        --pos;
      }
      support_scratch_[pos] = entry;
    }
  }
}

template <typename Ref>
bool SearchWorkspace::BuildSupport(const CorpusView& corpus,
                                   std::span<const Ref> tables) {
  obs::TraceSpan span("search.match_support");
  support_cols.clear();
  if (!corpus.HasMatchSupport()) return false;
  std::span<const std::string> tokens = memo_.TargetTokens();
  support_cursors_.clear();
  // A zero-token target normalizes to "", which only exact-matches
  // cells that also normalize to "" — exactly the columns the index
  // records under the empty-token sentinel row, all of them alive.
  if (tokens.empty()) {
    support_cursors_.push_back(
        {search_internal::PostingCursor<CellTokenRef>(
             corpus.CellTokenPostings(std::string_view())),
         0});
  }
  for (const std::string& token : tokens) {
    support_cursors_.push_back(
        {search_internal::PostingCursor<CellTokenRef>(
             corpus.CellTokenPostings(token)),
         CellTokenMask(token)});
  }
  // Necessary match condition. Jaccard >= 0.5 against nb distinct
  // target tokens means 3*inter >= na + nb for some cell with na
  // distinct tokens sharing inter of them; an exact normalized match
  // shares all nb. Two feasible shapes:
  //   - inter == 1: forces na <= 3 - nb, so only nb <= 2 and only
  //     against a single-token cell (min_tokens refutes it — a
  //     two-token person name can single-token-match a surname-only
  //     cell, never a different full name sharing a given name);
  //   - inter >= 2: the cell holds >= ceil(nb / 2) >= 2 target tokens
  //     *together*, so the column must list >= ceil(nb / 2) target
  //     tokens AND some pair of them must share a cell, which the
  //     mutual co-occurrence blooms check (false positives only).
  // Column granularity keeps pool-collision tokens in *other* columns
  // of a table from keeping its E2-side columns alive.
  const size_t nb = tokens.size();
  const size_t multi = std::max<size_t>(2, (nb + 1) / 2);
  int32_t previous = -1;
  for (const Ref& ref : tables) {
    const int32_t table = search_internal::PostingTable(ref);
    if (table == previous) continue;
    previous = table;
    GatherTableSupport(table);
    const size_t n = support_scratch_.size();
    for (size_t i = 0; i < n;) {
      size_t j = i;
      int32_t best = support_scratch_[i].min_tokens;
      while (j < n && support_scratch_[j].col == support_scratch_[i].col) {
        best = std::min(best, support_scratch_[j].min_tokens);
        ++j;
      }
      bool alive =
          nb == 0 || (nb <= 2 && static_cast<size_t>(best) + nb <= 3);
      // A multi-token match cell shares some inter >= max(2,
      // ceil(nb/2)) target tokens, all pairwise sharing that cell, with
      // distinct size na <= 3*inter - nb and na >= min_tokens of every
      // shared token. So the column must hold an `inter`-sized subset
      // of its target tokens that forms a mutual co-occurrence clique
      // under the blooms, every member's min cell size within the cap.
      // Enumerating subsets is cheap (group size <= nb); a pair-only
      // test is too weak — e.g. a 4-token target needs 3 tokens in one
      // cell, and columns holding (klee, i) together but l elsewhere
      // must die.
      const size_t g = j - i;
      if (!alive && g >= multi && g > 12) {
        alive = true;  // Absurdly long target: skip the 2^g scan, sound.
      }
      if (!alive && g >= multi && g <= 12) {
        for (size_t inter = multi; inter <= g && !alive; ++inter) {
          const int32_t cap = static_cast<int32_t>(3 * inter - nb);
          for (uint32_t bits = 0; bits < (1u << g) && !alive; ++bits) {
            if (static_cast<size_t>(std::popcount(bits)) != inter) continue;
            bool ok = true;
            for (size_t x = 0; x < g && ok; ++x) {
              if (!(bits >> x & 1u)) continue;
              if (support_scratch_[i + x].min_tokens > cap) {
                ok = false;
                break;
              }
              for (size_t y = x + 1; y < g && ok; ++y) {
                if (!(bits >> y & 1u)) continue;
                const uint64_t bx = support_scratch_[i + x].bit;
                const uint64_t by = support_scratch_[i + y].bit;
                ok = (support_scratch_[i + x].cooc & by) == by &&
                     (support_scratch_[i + y].cooc & bx) == bx;
              }
            }
            alive = ok;
          }
        }
      }
      if (alive) {
        support_cols.push_back(ColumnRef{table, support_scratch_[i].col});
      }
      i = j;
    }
  }
  return true;
}

bool SearchWorkspace::BuildMatchSupport(
    const CorpusView& corpus,
    std::span<const search_internal::PlannedTable> tables) {
  return BuildSupport(corpus, tables);
}

bool SearchWorkspace::BuildMatchSupport(const CorpusView& corpus,
                                        std::span<const RelationRef> tables) {
  return BuildSupport(corpus, tables);
}

bool SearchWorkspace::ShouldStop(int k, double remaining) {
  if (k <= 0 || remaining <= 0.0) return false;
  if (evidence_.size() <= static_cast<size_t>(k)) return false;
  // Cheap trigger: every adjacent gap is bounded by the top score, so a
  // remaining mass at least that large can never satisfy the gap test.
  if (remaining >= evidence_.max_score()) return false;
  // The full gap test is O(answers); on flat score distributions it
  // can fail on every table, so failed attempts back off exponentially
  // — stopping is an optimization, never a correctness requirement.
  if (stop_check_skip_ > 0) {
    --stop_check_skip_;
    return false;
  }
  evidence_.CopyScores(&score_scratch_);
  const size_t m = static_cast<size_t>(k) + 1;
  std::partial_sort(score_scratch_.begin(), score_scratch_.begin() + m,
                    score_scratch_.end(), std::greater<double>());
  for (size_t i = 0; i + 1 < m; ++i) {
    if (score_scratch_[i] - score_scratch_[i + 1] <= remaining) {
      stop_check_skip_ = stop_check_backoff_;
      stop_check_backoff_ = std::min<int64_t>(stop_check_backoff_ * 2, 256);
      return false;
    }
  }
  query_stats.stopped_early = true;
  return true;
}

void SearchWorkspace::EmitRanked(const TopKOptions& topk,
                                 std::vector<SearchResult>* out) {
  obs::TraceSpan span("search.emit");
  evidence_.EmitRanked(topk.k, out);
}

SearchWorkspace& ThreadLocalSearchWorkspace() {
  static thread_local SearchWorkspace workspace;
  return workspace;
}

}  // namespace webtab
