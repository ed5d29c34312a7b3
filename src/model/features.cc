#include "model/features.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>

#include "catalog/relatedness.h"
#include "common/logging.h"

namespace webtab {

namespace {

template <size_t N>
double Dot(const std::vector<double>& w, const std::array<double, N>& f) {
  WEBTAB_CHECK(w.size() == N);
  double s = 0.0;
  for (size_t i = 0; i < N; ++i) s += w[i] * f[i];
  return s;
}

/// Max over lemmas of each similarity measure, packed as
/// [cosine, jaccard, dice, soft-tfidf, exact, bias]. Scores prepared
/// strings instead of re-tokenizing both sides for every measure; the
/// direct similarity calls in tests/reference_features.h give identical
/// doubles (streaming max over the same per-lemma values in the same
/// order). `lemma_at(i)` yields the i-th lemma as a string_view so both
/// catalog backends (heap records and mmap'd string arenas) feed the
/// same code; it is read only when the lemma's slot is empty. The text
/// is prepared before its first lemma, as the direct calls intern it.
template <size_t N, typename LemmaAt>
std::array<double, N> BundleSimilarityFeatures(SimilarityScratch* scratch,
                                               std::string_view text,
                                               int32_t* query,
                                               int32_t first_slot,
                                               int32_t num_lemmas,
                                               LemmaAt lemma_at) {
  static_assert(N >= 6);
  std::array<double, N> out{};
  if (num_lemmas > 0 && *query < 0) *query = scratch->Prepare(text);
  for (int32_t i = 0; i < num_lemmas; ++i) {
    const int32_t lemma =
        scratch->PrepareSlot(first_slot + i, [&] { return lemma_at(i); });
    const auto m = scratch->Measures(*query, lemma);
    out[0] = std::max(out[0], m[SimilarityScratch::kCosine]);
    out[1] = std::max(out[1], m[SimilarityScratch::kJaccard]);
    out[2] = std::max(out[2], m[SimilarityScratch::kDice]);
    out[3] = std::max(out[3], m[SimilarityScratch::kSoftTfIdf]);
    if (m[SimilarityScratch::kExact] == 1.0) out[4] = 1.0;
  }
  out[5] = 1.0;  // Bias: fires on any non-na label.
  return out;
}

}  // namespace

FeatureComputer::FeatureComputer(ClosureCache* closure, Vocabulary* vocab,
                                 FeatureOptions options)
    : closure_(closure),
      options_(options),
      similarity_(vocab) {
  WEBTAB_CHECK(closure != nullptr);
  WEBTAB_CHECK(vocab != nullptr);
  const CatalogView& cat = catalog();
  const int32_t num_entities = cat.num_entities();
  const int32_t num_types = cat.num_types();
  lemma_start_.resize(static_cast<size_t>(num_entities) + num_types);
  int64_t slots = 0;
  for (int32_t e = 0; e < num_entities; ++e) {
    lemma_start_[e] = static_cast<int32_t>(slots);
    slots += cat.NumEntityLemmas(e);
  }
  for (int32_t t = 0; t < num_types; ++t) {
    lemma_start_[static_cast<size_t>(num_entities) + t] =
        static_cast<int32_t>(slots);
    slots += cat.NumTypeLemmas(t);
  }
  WEBTAB_CHECK(slots <= std::numeric_limits<int32_t>::max());
  similarity_.ResizeSlots(static_cast<size_t>(slots));
}

std::array<double, kF1Size> FeatureComputer::EntityFeatures(
    std::string_view text, int32_t* query, EntityId e) const {
  const CatalogView& cat = catalog();
  return BundleSimilarityFeatures<kF1Size>(
      &similarity_, text, query, lemma_start_[e], cat.NumEntityLemmas(e),
      [&](int32_t i) { return cat.EntityLemma(e, i); });
}

std::array<double, kF2Size> FeatureComputer::TypeFeatures(
    std::string_view text, int32_t* query, TypeId t) const {
  if (text.empty()) {
    // Headers may be omitted (§4.2.2): only the bias fires so that a type
    // label is still possible on headerless tables.
    std::array<double, kF2Size> f{};
    f[5] = 1.0;
    return f;
  }
  const CatalogView& cat = catalog();
  return BundleSimilarityFeatures<kF2Size>(
      &similarity_, text, query,
      lemma_start_[static_cast<size_t>(cat.num_entities()) + t],
      cat.NumTypeLemmas(t), [&](int32_t i) { return cat.TypeLemma(t, i); });
}

std::array<double, kF1Size> FeatureComputer::F1(std::string_view cell_text,
                                                EntityId e) const {
  if (e == kNa) return {};
  similarity_.MaybeCompact();
  int32_t query = -1;
  return EntityFeatures(cell_text, &query, e);
}

std::array<double, kF2Size> FeatureComputer::F2(std::string_view header_text,
                                                TypeId t) const {
  if (t == kNa) return {};
  similarity_.MaybeCompact();
  int32_t query = -1;
  return TypeFeatures(header_text, &query, t);
}

std::array<double, kF3Size> FeatureComputer::F3(TypeId t, EntityId e) {
  if (t == kNa || e == kNa) return {};
  const int dist = closure_->Dist(e, t);
  const double min_overlap =
      dist == kUnreachable && options_.use_missing_link
          ? MinDirectTypeOverlap(closure_, catalog().EntityDirectTypes(e), t)
          : 0.0;
  return F3(F3Terms(t), dist, min_overlap);
}

FeatureComputer::F3TypeTerms FeatureComputer::F3Terms(TypeId t) {
  F3TypeTerms terms;
  // Specificity |E|/|E(T)| on log scale, normalized to [0,1] by the
  // maximum possible specificity log |E|.
  const double total = static_cast<double>(catalog().num_entities());
  if (total > 1.0) {
    terms.specificity =
        std::log(closure_->TypeSpecificity(t)) / std::log(total + 1.0);
  }
  terms.min_entity_dist = closure_->MinEntityDist(t);
  return terms;
}

std::array<double, kF3Size> FeatureComputer::F3(const F3TypeTerms& terms,
                                                int dist,
                                                double min_overlap) const {
  std::array<double, kF3Size> f{};
  if (dist != kUnreachable) {
    switch (options_.compat_mode) {
      case CompatMode::kRecipSqrtDist:
        f[0] = 1.0 / std::sqrt(static_cast<double>(dist));
        break;
      case CompatMode::kRecipDist:
        f[0] = 1.0 / static_cast<double>(dist);
        break;
      case CompatMode::kIdfOnly:
        f[0] = 0.0;  // Distance signal disabled; IDF carries φ3.
        break;
    }
    f[1] = terms.specificity;
    f[3] = 1.0;  // Bias (compatible pair).
  } else if (options_.use_missing_link) {
    // §4.2.3 "Missing links": indirect evidence that E ∈+ T was omitted.
    f[2] = MissingLinkScore(min_overlap, terms.min_entity_dist);
    if (f[2] > 0.0) f[3] = 1.0;
  }
  return f;
}

std::array<double, kF4Size> FeatureComputer::F4(const RelationCandidate& b,
                                                TypeId t1, TypeId t2) {
  std::array<double, kF4Size> f{};
  if (b.is_na() || t1 == kNa || t2 == kNa) return f;
  TypeId subject_col_type = b.swapped ? t2 : t1;
  TypeId object_col_type = b.swapped ? t1 : t2;
  // Schema feature: 1 when the column types are sub-types of the declared
  // schema B(T1, T2) (exact-id equality is too brittle under a DAG).
  if (closure_->IsSubtypeOf(subject_col_type,
                            catalog().RelationSubjectType(b.relation)) &&
      closure_->IsSubtypeOf(object_col_type,
                            catalog().RelationObjectType(b.relation))) {
    f[0] = 1.0;
  }
  // Participation: fraction of entities under each column type occupying
  // the corresponding role in B (§4.2.4, second feature).
  f[1] = Participation(b.relation, subject_col_type, /*object_role=*/false);
  f[2] = Participation(b.relation, object_col_type, /*object_role=*/true);
  f[3] = 1.0;
  return f;
}

std::array<double, kF5Size> FeatureComputer::F5(const RelationCandidate& b,
                                                EntityId e1,
                                                EntityId e2) const {
  std::array<double, kF5Size> f{};
  if (b.is_na() || e1 == kNa || e2 == kNa) return f;
  EntityId subject = b.swapped ? e2 : e1;
  EntityId object = b.swapped ? e1 : e2;
  const CatalogView& cat = catalog();
  if (cat.HasTuple(b.relation, subject, object)) {
    f[0] = 1.0;
  } else {
    // Cardinality violation (§4.2.5, second feature): a functional
    // relation already maps this subject to a *different* object (or
    // inverse-functional maps this object to a different subject).
    RelationCardinality card = cat.RelationCardinalityOf(b.relation);
    bool functional = card == RelationCardinality::kManyToOne ||
                      card == RelationCardinality::kOneToOne;
    bool inv_functional = card == RelationCardinality::kOneToMany ||
                          card == RelationCardinality::kOneToOne;
    if (functional && !cat.ObjectsOf(b.relation, subject).empty()) {
      f[1] = 1.0;
    }
    if (inv_functional && !cat.SubjectsOf(b.relation, object).empty()) {
      f[1] = 1.0;
    }
  }
  f[2] = 1.0;
  return f;
}

double FeatureComputer::Participation(RelationId rel, TypeId t,
                                      bool object_role) {
  uint64_t key = (static_cast<uint64_t>(static_cast<uint32_t>(rel)) << 33) |
                 (static_cast<uint64_t>(static_cast<uint32_t>(t)) << 1) |
                 (object_role ? 1 : 0);
  auto it = participation_cache_.find(key);
  if (it != participation_cache_.end()) return it->second;

  const std::vector<EntityId>& extension = closure_->EntitiesOf(t);
  double value = 0.0;
  if (!extension.empty()) {
    // Count extension entities occupying the role. Tuples are sorted by
    // subject; for the object role we use the reverse index per entity.
    int64_t hits = 0;
    for (EntityId e : extension) {
      bool present = object_role ? !catalog().SubjectsOf(rel, e).empty()
                                 : !catalog().ObjectsOf(rel, e).empty();
      if (present) ++hits;
    }
    value = static_cast<double>(hits) / static_cast<double>(extension.size());
  }
  participation_cache_[key] = value;
  return value;
}

double FeatureComputer::Phi1Log(const Weights& w, std::string_view cell_text,
                                EntityId e) const {
  if (e == kNa) return 0.0;
  return Dot(w.w1, F1(cell_text, e));
}

double FeatureComputer::Phi2Log(const Weights& w,
                                std::string_view header_text,
                                TypeId t) const {
  if (t == kNa) return 0.0;
  return Dot(w.w2, F2(header_text, t));
}

void FeatureComputer::Phi1Logs(const Weights& w, std::string_view cell_text,
                               const std::vector<EntityId>& ents,
                               std::vector<double>* out) const {
  out->assign(ents.size(), 0.0);
  similarity_.MaybeCompact();
  int32_t query = -1;
  for (size_t l = 0; l < ents.size(); ++l) {
    if (ents[l] == kNa) continue;
    (*out)[l] = Dot(w.w1, EntityFeatures(cell_text, &query, ents[l]));
  }
}

void FeatureComputer::Phi2Logs(const Weights& w,
                               std::string_view header_text,
                               const std::vector<TypeId>& types,
                               std::vector<double>* out) const {
  out->assign(types.size(), 0.0);
  similarity_.MaybeCompact();
  int32_t query = -1;
  for (size_t l = 0; l < types.size(); ++l) {
    if (types[l] == kNa) continue;
    (*out)[l] = Dot(w.w2, TypeFeatures(header_text, &query, types[l]));
  }
}

double FeatureComputer::Phi3Log(const Weights& w, TypeId t, EntityId e) {
  if (t == kNa || e == kNa) return 0.0;
  return Dot(w.w3, F3(t, e));
}

double FeatureComputer::Phi4Log(const Weights& w, const RelationCandidate& b,
                                TypeId t1, TypeId t2) {
  if (b.is_na() || t1 == kNa || t2 == kNa) return 0.0;
  return Dot(w.w4, F4(b, t1, t2));
}

double FeatureComputer::Phi5Log(const Weights& w, const RelationCandidate& b,
                                EntityId e1, EntityId e2) const {
  if (b.is_na() || e1 == kNa || e2 == kNa) return 0.0;
  return Dot(w.w5, F5(b, e1, e2));
}

Phi3Column::Phi3Column(FeatureComputer* features, const Weights& w,
                       const std::vector<TypeId>& types)
    : features_(features),
      w_(w),
      types_(types),
      terms_(types.size()),
      dist_(types.size()),
      min_overlap_(types.size()) {
  for (size_t lt = 1; lt < types.size(); ++lt) {
    terms_[lt] = features->F3Terms(types[lt]);
    index_of_type_.emplace(types[lt], static_cast<int>(lt));
  }
}

const double* Phi3Column::OverlapRow(TypeId t_prime) {
  auto [it, inserted] =
      overlap_row_of_.try_emplace(t_prime, overlap_rows_.size());
  if (inserted) {
    ClosureCache* closure = features_->closure();
    overlap_rows_.push_back(0.0);  // na column.
    for (size_t lt = 1; lt < types_.size(); ++lt) {
      overlap_rows_.push_back(closure->TypeOverlapRatio(t_prime, types_[lt]));
    }
  }
  return overlap_rows_.data() + it->second;
}

const double* Phi3Column::Row(EntityId e) {
  ClosureCache* closure = features_->closure();
  auto [it, inserted] =
      row_of_set_.try_emplace(closure->DirectTypeSetId(e), rows_.size());
  if (!inserted) return rows_.data() + it->second;

  // dist(e, T) for every column type, from e's few ancestors rather
  // than one distance-map probe per type.
  std::fill(dist_.begin(), dist_.end(), kUnreachable);
  for (const auto& [t, d] : closure->AncestorDistances(e)) {
    auto found = index_of_type_.find(t);
    if (found != index_of_type_.end()) dist_[found->second] = d;
  }
  if (features_->options().use_missing_link) {
    // MinDirectTypeOverlap for every column type, over rows shared by
    // every candidate with the same direct type.
    const std::span<const TypeId> direct =
        features_->catalog().EntityDirectTypes(e);
    std::fill(min_overlap_.begin(), min_overlap_.end(),
              direct.empty() ? 0.0 : 1.0);
    for (TypeId t_prime : direct) {
      const double* row = OverlapRow(t_prime);
      for (size_t lt = 1; lt < types_.size(); ++lt) {
        min_overlap_[lt] = std::min(min_overlap_[lt], row[lt]);
      }
    }
  }
  rows_.push_back(0.0);  // na row.
  for (size_t lt = 1; lt < types_.size(); ++lt) {
    rows_.push_back(
        Dot(w_.w3, features_->F3(terms_[lt], dist_[lt], min_overlap_[lt])));
  }
  return rows_.data() + it->second;
}

void Phi3Column::FillTable(const std::vector<EntityId>& ents,
                           std::vector<double>* tab) {
  const size_t n = ents.size();
  tab->assign(types_.size() * n, 0.0);
  for (size_t le = 1; le < n; ++le) {
    const double* row = Row(ents[le]);
    for (size_t lt = 1; lt < types_.size(); ++lt) {
      (*tab)[lt * n + le] = row[lt];
    }
  }
}

}  // namespace webtab
