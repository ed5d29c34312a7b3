#include "model/label_space.h"

#include <algorithm>

#include "common/logging.h"

namespace webtab {

TableLabelSpace TableLabelSpace::Build(const Table& table,
                                       const TableCandidates& candidates,
                                       const TableAnnotation* gold) {
  TableLabelSpace space;
  space.Rebuild(table, candidates, gold);
  return space;
}

void TableLabelSpace::Rebuild(const Table& table,
                              const TableCandidates& candidates,
                              const TableAnnotation* gold) {
  rows_ = table.rows();
  cols_ = table.cols();

  // Appends `label` to the domain being built (which starts at `begin`)
  // unless it is na or already present.
  auto append_gold = [](auto* ids, size_t begin, auto label) {
    if (std::find(ids->begin() + begin, ids->end(), label) == ids->end()) {
      ids->push_back(label);
    }
  };

  entity_start_.clear();
  entity_ids_.clear();
  for (int r = 0; r < rows_; ++r) {
    for (int c = 0; c < cols_; ++c) {
      const size_t begin = entity_ids_.size();
      entity_start_.push_back(begin);
      entity_ids_.push_back(kNa);
      for (const LemmaHit& hit : candidates.cells[r][c]) {
        entity_ids_.push_back(hit.id);
      }
      if (gold != nullptr && gold->EntityOf(r, c) != kNa) {
        append_gold(&entity_ids_, begin, gold->EntityOf(r, c));
      }
    }
  }
  entity_start_.push_back(entity_ids_.size());

  type_start_.clear();
  type_ids_.clear();
  for (int c = 0; c < cols_; ++c) {
    const size_t begin = type_ids_.size();
    type_start_.push_back(begin);
    type_ids_.push_back(kNa);
    for (TypeId t : candidates.column_types[c]) type_ids_.push_back(t);
    if (gold != nullptr && gold->TypeOf(c) != kNa) {
      append_gold(&type_ids_, begin, gold->TypeOf(c));
    }
  }
  type_start_.push_back(type_ids_.size());

  // Relation domains: from candidates, plus gold pairs during training,
  // over the ascending union of their column pairs.
  pair_scratch_.clear();
  for (const auto& [pair, rels] : candidates.relations) {
    pair_scratch_.push_back(pair);
  }
  if (gold != nullptr) {
    for (const auto& [pair, rel] : gold->relations) {
      if (!rel.is_na()) pair_scratch_.push_back(pair);
    }
    std::sort(pair_scratch_.begin(), pair_scratch_.end());
    pair_scratch_.erase(
        std::unique(pair_scratch_.begin(), pair_scratch_.end()),
        pair_scratch_.end());
  }
  pairs_.clear();
  relation_start_.clear();
  relation_ids_.clear();
  for (const std::pair<int, int>& pair : pair_scratch_) {
    const size_t begin = relation_ids_.size();
    relation_ids_.push_back(RelationCandidate{});  // na.
    auto cand = candidates.relations.find(pair);
    if (cand != candidates.relations.end()) {
      for (const RelationCandidate& b : cand->second) {
        relation_ids_.push_back(b);
      }
    }
    if (gold != nullptr) {
      auto g = gold->relations.find(pair);
      if (g != gold->relations.end() && !g->second.is_na()) {
        append_gold(&relation_ids_, begin, g->second);
      }
    }
    if (relation_ids_.size() - begin <= 1) {  // na-only: no variable.
      relation_ids_.resize(begin);
      continue;
    }
    pairs_.push_back(pair);
    relation_start_.push_back(begin);
  }
  relation_start_.push_back(relation_ids_.size());
}

std::span<const RelationCandidate> TableLabelSpace::RelationDomain(
    int c1, int c2) const {
  auto it = std::lower_bound(pairs_.begin(), pairs_.end(),
                             std::make_pair(c1, c2));
  if (it == pairs_.end() || *it != std::make_pair(c1, c2)) return {};
  const size_t i = static_cast<size_t>(it - pairs_.begin());
  return std::span<const RelationCandidate>(relation_ids_)
      .subspan(relation_start_[i], relation_start_[i + 1] - relation_start_[i]);
}

int TableLabelSpace::IndexOfEntity(std::span<const EntityId> domain,
                                   EntityId e) {
  auto it = std::find(domain.begin(), domain.end(), e);
  return it == domain.end() ? -1 : static_cast<int>(it - domain.begin());
}

int TableLabelSpace::IndexOfType(std::span<const TypeId> domain, TypeId t) {
  auto it = std::find(domain.begin(), domain.end(), t);
  return it == domain.end() ? -1 : static_cast<int>(it - domain.begin());
}

int TableLabelSpace::IndexOfRelation(
    std::span<const RelationCandidate> domain, const RelationCandidate& b) {
  auto it = std::find(domain.begin(), domain.end(), b);
  return it == domain.end() ? -1 : static_cast<int>(it - domain.begin());
}

double TableLabelSpace::MeanEntityDomainSize() const {
  const size_t cells = static_cast<size_t>(rows_) * cols_;
  if (cells == 0) return 0.0;
  double total = 0.0;
  for (size_t i = 0; i < cells; ++i) {
    // Exclude na.
    total += static_cast<double>(entity_start_[i + 1] - entity_start_[i]) - 1;
  }
  return total / static_cast<double>(cells);
}

double TableLabelSpace::MeanTypeDomainSize() const {
  if (cols_ == 0) return 0.0;
  double total = 0.0;
  for (int c = 0; c < cols_; ++c) {
    total += static_cast<double>(type_start_[c + 1] - type_start_[c]) - 1;
  }
  return total / static_cast<double>(cols_);
}

}  // namespace webtab
