#ifndef WEBTAB_MODEL_FEATURES_H_
#define WEBTAB_MODEL_FEATURES_H_

#include <array>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "catalog/closure.h"
#include "model/weights.h"
#include "table/table.h"
#include "text/similarity_scratch.h"
#include "text/vocabulary.h"

namespace webtab {

/// Options shared by feature computation.
struct FeatureOptions {
  CompatMode compat_mode = CompatMode::kRecipSqrtDist;
  /// Disables the φ3 missing-link hint (ablation A3 in DESIGN.md).
  bool use_missing_link = true;
};

/// Computes the feature families f1..f5 of §4.2 and their weighted scores
/// (log-potentials log φ_k = w_k · f_k). Per the paper, *no feature fires
/// when any involved label is na*, so na always scores exactly 0; the
/// trailing bias in each family lets training calibrate real labels
/// against that fixed baseline.
///
/// Holds memoization caches; not thread-safe. Use one per worker.
class FeatureComputer {
 public:
  /// `closure` and `vocab` must outlive this object. The vocabulary is
  /// the lemma index's so IDF statistics match candidate generation.
  FeatureComputer(ClosureCache* closure, Vocabulary* vocab,
                  FeatureOptions options = FeatureOptions());

  FeatureComputer(const FeatureComputer&) = delete;
  FeatureComputer& operator=(const FeatureComputer&) = delete;

  const CatalogView& catalog() const { return closure_->catalog(); }
  ClosureCache* closure() { return closure_; }
  const FeatureOptions& options() const { return options_; }

  /// f1(r,c,E): similarities between cell text and the entity's lemmas
  /// (max over lemmas per measure, §4.2.1). Zero vector when e == kNa.
  std::array<double, kF1Size> F1(std::string_view cell_text,
                                 EntityId e) const;

  /// f2(c,T): similarities between header text and the type's lemmas.
  std::array<double, kF2Size> F2(std::string_view header_text,
                                 TypeId t) const;

  /// f3(T,E): type-entity compatibility (§4.2.3). When E ∈+ T, fires the
  /// distance feature per CompatMode and the IDF specificity; otherwise
  /// only the missing-link hint can fire.
  std::array<double, kF3Size> F3(TypeId t, EntityId e);

  /// f4(B,T1,T2): relation-schema compatibility (§4.2.4) for the relation
  /// candidate applied to column types (t1, t2) in pair order.
  std::array<double, kF4Size> F4(const RelationCandidate& b, TypeId t1,
                                 TypeId t2);

  /// f5(B,E1,E2): tuple evidence and cardinality violations (§4.2.5).
  std::array<double, kF5Size> F5(const RelationCandidate& b, EntityId e1,
                                 EntityId e2) const;

  // Weighted log-potentials.
  double Phi1Log(const Weights& w, std::string_view cell_text, EntityId e)
      const;
  double Phi2Log(const Weights& w, std::string_view header_text, TypeId t)
      const;

  /// Phi1Log(w, cell_text, ents[l]) into (*out)[l] for every label of a
  /// cell's domain (na scores 0), with the cell prepared once for the
  /// whole domain instead of once per entity. `out` is resized to
  /// ents.size(). Bit-identical to the per-entity calls.
  void Phi1Logs(const Weights& w, std::string_view cell_text,
                const std::vector<EntityId>& ents,
                std::vector<double>* out) const;

  /// Phi2Log(w, header_text, types[l]) for every label of a column's
  /// type domain, likewise.
  void Phi2Logs(const Weights& w, std::string_view header_text,
                const std::vector<TypeId>& types,
                std::vector<double>* out) const;
  double Phi3Log(const Weights& w, TypeId t, EntityId e);
  double Phi4Log(const Weights& w, const RelationCandidate& b, TypeId t1,
                 TypeId t2);
  double Phi5Log(const Weights& w, const RelationCandidate& b, EntityId e1,
                 EntityId e2) const;

  /// Fraction of E(t) that occupies the given role in relation `rel`
  /// (memoized). Public so the structured φ4 factor builder can reuse
  /// the same cached values the dense path reads through F4.
  double Participation(RelationId rel, TypeId t, bool object_role);

 private:
  friend class Phi3Column;

  /// The parts of f3(T, E) that depend on T alone (§4.2.3): the
  /// specificity feature and MinEntityDist(T), the missing-link
  /// denominator. T must not be na.
  struct F3TypeTerms {
    double specificity = 0.0;
    int min_entity_dist = kUnreachable;
  };
  F3TypeTerms F3Terms(TypeId t);

  /// f3(T, E) from its parts: `dist` = dist(E, T) and `min_overlap` =
  /// MinDirectTypeOverlap(E's direct types, T), read only when E ∉+ T
  /// and the missing-link hint is on. The one definition of f3's
  /// arithmetic: F3(t, e) and Phi3Column both come here.
  std::array<double, kF3Size> F3(const F3TypeTerms& terms, int dist,
                                 double min_overlap) const;

  /// f1 of entity e (not na) against a text whose prepared id is
  /// `*query`; prepares the text into `*query` when that is -1 and e
  /// has a lemma, so a lemma-less domain interns nothing. The one f1
  /// kernel: F1, Phi1Log and Phi1Logs all come here.
  std::array<double, kF1Size> EntityFeatures(std::string_view text,
                                             int32_t* query,
                                             EntityId e) const;
  /// f2 of type t (not na) against a header, likewise; an empty header
  /// fires only the bias.
  std::array<double, kF2Size> TypeFeatures(std::string_view text,
                                           int32_t* query, TypeId t) const;

  ClosureCache* closure_;
  FeatureOptions options_;

  // Cache: (rel, t, role) -> participation fraction.
  std::unordered_map<uint64_t, double> participation_cache_;

  /// Prepared strings behind F1/F2, bit-identical to the direct
  /// similarity calls (asserted in tests/candidate_equivalence_test.cc).
  /// A cell or header is prepared once per call (once per domain in
  /// Phi1Logs/Phi2Logs) and looked up by text; a catalog lemma is
  /// prepared once per compaction and found through its slot. There is
  /// no memo per (string, label) pair or per f1/f2 vector: its memory
  /// grew with the tables a worker served, and fresh tables rarely
  /// repeat a pair, so it bought no latency. The scratch compacts only
  /// at the start of a call, so prepared ids stay valid through it.
  /// Mutable: F1/F2 are logically const lookups (the computer is
  /// documented single-worker, not thread-safe).
  mutable SimilarityScratch similarity_;
  /// Similarity slots of the catalog's lemmas, CSR style: entity e's
  /// i-th lemma is slot lemma_start_[e] + i, and type t's is
  /// lemma_start_[num_entities + t] + i. Sized by the catalog.
  std::vector<int32_t> lemma_start_;
};

/// φ3 log-potentials of one column's type domain against its cells'
/// candidate entities, with the work that per-pair Phi3Log repeats
/// hoisted out: the T-only terms once per column, the type-overlap
/// ratios once per (column, direct type of some candidate), and each
/// entity's row over the column's types once per (column, direct-type
/// set). An entity's row depends on it only through its direct-type set
/// (ClosureCache::DirectTypeSetId), so every later candidate with the
/// same set copies the row. Values equal Phi3Log bit for bit (both go
/// through FeatureComputer's one f3 definition and the same dot
/// product). Lives for one column of one table build.
class Phi3Column {
 public:
  /// `features`, `w` and `types` (a type domain, [0] == na) must
  /// outlive the column.
  Phi3Column(FeatureComputer* features, const Weights& w,
             const std::vector<TypeId>& types);

  /// Resizes `tab` to types × ents (row-major by type) and fills it with
  /// Phi3Log(w, types[lt], ents[le]); the na row and column are 0.
  void FillTable(const std::vector<EntityId>& ents, std::vector<double>* tab);

  /// Rows computed so far: distinct direct-type sets among the
  /// candidates filled.
  size_t num_rows() const { return row_of_set_.size(); }

 private:
  /// TypeOverlapRatio(t_prime, types[lt]) for every lt, memoized per
  /// column. Valid until the next call.
  const double* OverlapRow(TypeId t_prime);

  /// Phi3Log(w, types[lt], e) for every lt ([0] = 0), computed on the
  /// first candidate with e's direct-type set. Valid until the next call.
  const double* Row(EntityId e);

  FeatureComputer* features_;
  const Weights& w_;
  const std::vector<TypeId>& types_;
  std::vector<FeatureComputer::F3TypeTerms> terms_;
  std::unordered_map<TypeId, int> index_of_type_;
  std::unordered_map<TypeId, size_t> overlap_row_of_;
  std::vector<double> overlap_rows_;
  /// DirectTypeSetId -> offset of its row in rows_.
  std::unordered_map<int32_t, size_t> row_of_set_;
  std::vector<double> rows_;
  // Per-row scratch over the column's types.
  std::vector<int> dist_;
  std::vector<double> min_overlap_;
};

}  // namespace webtab

#endif  // WEBTAB_MODEL_FEATURES_H_
