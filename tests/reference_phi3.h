#ifndef WEBTAB_TESTS_REFERENCE_PHI3_H_
#define WEBTAB_TESTS_REFERENCE_PHI3_H_

#include <span>
#include <utility>
#include <vector>

#include "inference/factor_graph.h"
#include "model/features.h"

namespace webtab {
namespace testing_util {

/// The retired φ3 emission, kept as the oracle for the emitter that
/// builds factors straight from Phi3Column's shared rows.

/// Resizes `tab` to num_types × ents (row-major by type) and fills it
/// from `column`'s rows: tab[lt * n + le] = Phi3Log(w, types[lt],
/// ents[le]); the na row and column are 0.
inline void FillTable(Phi3Column* column, size_t num_types,
                      std::span<const EntityId> ents,
                      std::vector<double>* tab) {
  const size_t n = ents.size();
  tab->assign(num_types * n, 0.0);
  for (size_t le = 1; le < n; ++le) {
    const double* row = column->RowValues(column->RowSlot(ents[le]));
    for (size_t lt = 1; lt < num_types; ++lt) (*tab)[lt * n + le] = row[lt];
  }
}

/// A φ3 factor as the retired EmitPhi3 would add it.
struct ExpectedPhi3 {
  FactorGraph::FactorRep rep = FactorGraph::FactorRep::kDense;
  std::vector<double> table;
  std::vector<FactorGraph::SparseEntry> entries;
  std::vector<FactorGraph::SparseEntry> entries_t;
};

/// Scans the full table for non-zeros and applies the dense/sparse cost
/// rule: sparse only when 2·cells > 5·(L0 + L1) + 10·nnz. The transpose
/// is the entries swapped and re-sorted, as AddSparsePairFactor makes it.
inline ExpectedPhi3 ReferenceEmitPhi3(std::vector<double> tab,
                                      size_t num_types, size_t num_ents) {
  ExpectedPhi3 out;
  for (size_t lt = 1; lt < num_types; ++lt) {
    for (size_t le = 1; le < num_ents; ++le) {
      const double v = tab[lt * num_ents + le];
      if (v != 0.0) {
        out.entries.push_back({static_cast<int32_t>(lt),
                               static_cast<int32_t>(le), v});
      }
    }
  }
  const size_t cells = num_types * num_ents;
  const size_t sparse_cost =
      5 * (num_types + num_ents) + 10 * out.entries.size();
  if (2 * cells <= sparse_cost) {
    out.entries.clear();
    out.table = std::move(tab);
    return out;
  }
  out.rep = FactorGraph::FactorRep::kSparsePair;
  for (const FactorGraph::SparseEntry& e : out.entries) {
    out.entries_t.push_back({e.l1, e.l0, e.value});
  }
  std::sort(out.entries_t.begin(), out.entries_t.end(),
            [](const FactorGraph::SparseEntry& a,
               const FactorGraph::SparseEntry& b) {
              return a.l0 < b.l0 || (a.l0 == b.l0 && a.l1 < b.l1);
            });
  return out;
}

}  // namespace testing_util
}  // namespace webtab

#endif  // WEBTAB_TESTS_REFERENCE_PHI3_H_
