#ifndef WEBTAB_MODEL_LABEL_SPACE_H_
#define WEBTAB_MODEL_LABEL_SPACE_H_

#include <span>
#include <utility>
#include <vector>

#include "index/candidates.h"
#include "table/annotation.h"
#include "table/table.h"

namespace webtab {

/// Per-table variable domains for inference (§4.3): every domain's first
/// entry (index 0) is the na label; the rest come from candidate
/// generation. During training the gold labels are injected so the
/// learner can always reach the ground truth.
///
/// Domains are stored CSR style — one id array per label kind plus
/// start offsets per cell, column and column pair — and Rebuild reuses
/// that storage, so a worker that keeps one space across tables stops
/// allocating once it has seen its largest table.
class TableLabelSpace {
 public:
  /// Builds domains from candidates. If `gold` is non-null its labels are
  /// appended to the corresponding domains when missing.
  static TableLabelSpace Build(const Table& table,
                               const TableCandidates& candidates,
                               const TableAnnotation* gold = nullptr);

  /// Build in place, keeping this space's capacity.
  void Rebuild(const Table& table, const TableCandidates& candidates,
               const TableAnnotation* gold = nullptr);

  int rows() const { return rows_; }
  int cols() const { return cols_; }

  /// Entity domain of cell (r,c); [0] == kNa.
  std::span<const EntityId> EntityDomain(int r, int c) const {
    const size_t cell = static_cast<size_t>(r) * cols_ + c;
    return std::span<const EntityId>(entity_ids_)
        .subspan(entity_start_[cell],
                 entity_start_[cell + 1] - entity_start_[cell]);
  }

  /// Type domain of column c; [0] == kNa.
  std::span<const TypeId> TypeDomain(int c) const {
    return std::span<const TypeId>(type_ids_).subspan(
        type_start_[c], type_start_[c + 1] - type_start_[c]);
  }

  /// Ordered column pairs that carry a relation variable (non-trivial
  /// domain), ascending.
  const std::vector<std::pair<int, int>>& column_pairs() const {
    return pairs_;
  }

  /// Relation domain of pair (c1,c2); [0] == na. Empty for absent pairs.
  std::span<const RelationCandidate> RelationDomain(int c1, int c2) const;

  /// Index of a label within a domain; -1 when absent.
  static int IndexOfEntity(std::span<const EntityId> domain, EntityId e);
  static int IndexOfType(std::span<const TypeId> domain, TypeId t);
  static int IndexOfRelation(std::span<const RelationCandidate> domain,
                             const RelationCandidate& b);

  /// Summary statistics used by bench/candidate_stats.
  double MeanEntityDomainSize() const;
  double MeanTypeDomainSize() const;

 private:
  int rows_ = 0;
  int cols_ = 0;
  /// Cell (r, c)'s domain is entity_ids_[entity_start_[r * cols + c] ..
  /// entity_start_[r * cols + c + 1]); likewise per column and per pair.
  std::vector<size_t> entity_start_;
  std::vector<EntityId> entity_ids_;
  std::vector<size_t> type_start_;
  std::vector<TypeId> type_ids_;
  std::vector<std::pair<int, int>> pairs_;
  std::vector<size_t> relation_start_;
  std::vector<RelationCandidate> relation_ids_;
  /// Rebuild scratch: candidate and gold column pairs, merged.
  std::vector<std::pair<int, int>> pair_scratch_;
};

}  // namespace webtab

#endif  // WEBTAB_MODEL_LABEL_SPACE_H_
