#include "inference/factor_graph.h"

#include <algorithm>
#include <tuple>
#include <utility>

#include "common/logging.h"

namespace webtab {

namespace {

/// Implicit (pre-override) value of a kImplicitTernary factor at
/// non-na labels (ls, lx, ly).
template <typename Spec>
double ImplicitValueAt(const Spec& spec, int dx, int dy, int ls, int lx,
                       int ly) {
  bool on = spec.gate_x[ls * dx + lx] != 0 && spec.gate_y[ls * dy + ly] != 0;
  double base = on ? spec.base_on[ls] : spec.base_off[ls];
  return base + spec.unary_x[ls * dx + lx] + spec.unary_y[ls * dy + ly];
}

/// CHECKs that sparse entries are in range of (d0, d1), sorted by
/// (l0, l1) and unique.
void CheckSparseEntries(std::span<const FactorGraph::SparseEntry> entries,
                        int d0, int d1) {
  for (size_t i = 0; i < entries.size(); ++i) {
    const FactorGraph::SparseEntry& e = entries[i];
    WEBTAB_CHECK(e.l0 >= 0 && e.l0 < d0 && e.l1 >= 0 && e.l1 < d1)
        << "sparse entry out of range";
    if (i > 0) {
      const FactorGraph::SparseEntry& p = entries[i - 1];
      WEBTAB_CHECK(p.l0 < e.l0 || (p.l0 == e.l0 && p.l1 < e.l1))
          << "sparse entries must be sorted and unique";
    }
  }
}

template <typename T>
int64_t Append(std::vector<T>* pool, std::span<const T> values) {
  const int64_t offset = static_cast<int64_t>(pool->size());
  pool->insert(pool->end(), values.begin(), values.end());
  return offset;
}

}  // namespace

void FactorGraph::Clear() {
  domains_.clear();
  node_off_.clear();
  node_values_.clear();
  factors_.clear();
  var_pool_.clear();
  value_pool_.clear();
  entry_pool_.clear();
  entry_t_pool_.clear();
  gate_pool_.clear();
  override_pool_.clear();
}

int FactorGraph::AddVariable(int domain_size) {
  WEBTAB_CHECK(domain_size >= 0);
  domains_.push_back(domain_size);
  node_off_.push_back(static_cast<int64_t>(node_values_.size()));
  node_values_.resize(node_values_.size() + domain_size, 0.0);
  return num_variables() - 1;
}

void FactorGraph::SetNodeLogPotential(
    int var, std::span<const double> log_potential) {
  WEBTAB_CHECK(var >= 0 && var < num_variables());
  WEBTAB_CHECK(static_cast<int>(log_potential.size()) == domains_[var]);
  std::copy(log_potential.begin(), log_potential.end(),
            node_values_.begin() + node_off_[var]);
}

void FactorGraph::AddToNodeLogPotential(int var, int label, double delta) {
  WEBTAB_CHECK(var >= 0 && var < num_variables());
  WEBTAB_CHECK(label >= 0 && label < domains_[var]);
  node_values_[node_off_[var] + label] += delta;
}

FactorGraph::FactorRecord& FactorGraph::BeginFactor(
    std::span<const int> vars, FactorRep rep, int group) {
  for (int v : vars) {
    WEBTAB_CHECK(v >= 0 && v < num_variables());
    WEBTAB_CHECK(domains_[v] >= 1) << "factor over empty-domain variable";
  }
  FactorRecord& f = factors_.emplace_back();
  f.rep = rep;
  f.group = group;
  f.arity = static_cast<int>(vars.size());
  f.vars = Append(&var_pool_, vars);
  return f;
}

int FactorGraph::AddFactor(std::span<const int> vars,
                           std::span<const double> table, int group) {
  int64_t expected = 1;
  for (int v : vars) {
    WEBTAB_CHECK(v >= 0 && v < num_variables());
    expected *= domains_[v];
  }
  WEBTAB_CHECK(static_cast<int64_t>(table.size()) == expected)
      << "factor table size mismatch";
  FactorRecord& f = BeginFactor(vars, FactorRep::kDense, group);
  f.values = Append(&value_pool_, table);
  f.num_values = static_cast<int64_t>(table.size());
  return num_factors() - 1;
}

int FactorGraph::AddSparsePairFactor(std::span<const int> vars,
                                     double default_log,
                                     std::span<const SparseEntry> entries,
                                     int group) {
  WEBTAB_CHECK(vars.size() == 2);
  FactorRecord& f = BeginFactor(vars, FactorRep::kSparsePair, group);
  const int d0 = domains_[vars[0]];
  const int d1 = domains_[vars[1]];
  CheckSparseEntries(entries, d0, d1);
  f.default_log = default_log;
  f.entries = Append(&entry_pool_, entries);
  f.num_entries = static_cast<int64_t>(entries.size());
  // Transpose: bucket the entries by l1. Walking them in (l0, l1) order
  // leaves each bucket ascending in l0, so the result is sorted by the
  // swapped pair.
  transpose_cursor_.assign(d1 + 1, 0);
  for (const SparseEntry& e : entries) ++transpose_cursor_[e.l1 + 1];
  for (int l1 = 0; l1 < d1; ++l1) {
    transpose_cursor_[l1 + 1] += transpose_cursor_[l1];
  }
  const int64_t base = static_cast<int64_t>(entry_t_pool_.size());
  entry_t_pool_.resize(entry_t_pool_.size() + entries.size());
  for (const SparseEntry& e : entries) {
    entry_t_pool_[base + transpose_cursor_[e.l1]++] = {e.l1, e.l0, e.value};
  }
  return num_factors() - 1;
}

int FactorGraph::AddImplicitTernaryFactor(std::span<const int> vars,
                                          const ImplicitTernarySpec& spec,
                                          int group) {
  WEBTAB_CHECK(vars.size() == 3);
  FactorRecord& f = BeginFactor(vars, FactorRep::kImplicitTernary, group);
  const int b = domains_[vars[0]];
  const int dx = domains_[vars[1]];
  const int dy = domains_[vars[2]];
  WEBTAB_CHECK(static_cast<int>(spec.base_on.size()) == b);
  WEBTAB_CHECK(static_cast<int>(spec.base_off.size()) == b);
  WEBTAB_CHECK(static_cast<int>(spec.unary_x.size()) == b * dx);
  WEBTAB_CHECK(static_cast<int>(spec.unary_y.size()) == b * dy);
  WEBTAB_CHECK(static_cast<int>(spec.gate_x.size()) == b * dx);
  WEBTAB_CHECK(static_cast<int>(spec.gate_y.size()) == b * dy);
  for (size_t i = 0; i < spec.overrides.size(); ++i) {
    const TernaryOverride& o = spec.overrides[i];
    WEBTAB_CHECK(o.ls >= 1 && o.ls < b && o.lx >= 1 && o.lx < dx &&
                 o.ly >= 1 && o.ly < dy)
        << "ternary override must be in the non-na block";
    if (i > 0) {
      const TernaryOverride& p = spec.overrides[i - 1];
      bool ordered = p.ls < o.ls || (p.ls == o.ls && p.lx < o.lx) ||
                     (p.ls == o.ls && p.lx == o.lx && p.ly < o.ly);
      WEBTAB_CHECK(ordered) << "ternary overrides must be sorted and unique";
    }
    // Exactness of the class-wise kernel requires overrides to dominate
    // the implicit value they shadow (understating a cell is safe only
    // when an explicit candidate covers it).
    WEBTAB_CHECK(o.value >=
                 ImplicitValueAt(spec, dx, dy, o.ls, o.lx, o.ly))
        << "ternary override below implicit value";
  }
  f.values = Append(&value_pool_, std::span<const double>(spec.base_on));
  Append(&value_pool_, std::span<const double>(spec.base_off));
  Append(&value_pool_, std::span<const double>(spec.unary_x));
  Append(&value_pool_, std::span<const double>(spec.unary_y));
  f.num_values = static_cast<int64_t>(value_pool_.size()) - f.values;
  f.gates = Append(&gate_pool_, std::span<const uint8_t>(spec.gate_x));
  Append(&gate_pool_, std::span<const uint8_t>(spec.gate_y));
  f.entries =
      Append(&override_pool_, std::span<const TernaryOverride>(spec.overrides));
  f.num_entries = static_cast<int64_t>(spec.overrides.size());
  return num_factors() - 1;
}

FactorGraph::Factor FactorGraph::factor(int f) const {
  const FactorRecord& r = factors_[f];
  Factor out;
  out.vars = std::span<const int>(var_pool_).subspan(r.vars, r.arity);
  out.rep = r.rep;
  out.group = r.group;
  switch (r.rep) {
    case FactorRep::kDense:
      out.table =
          std::span<const double>(value_pool_).subspan(r.values, r.num_values);
      break;
    case FactorRep::kSparsePair:
      out.default_log = r.default_log;
      out.entries = std::span<const SparseEntry>(entry_pool_)
                        .subspan(r.entries, r.num_entries);
      out.entries_t = std::span<const SparseEntry>(entry_t_pool_)
                          .subspan(r.entries, r.num_entries);
      break;
    case FactorRep::kImplicitTernary: {
      const int64_t b = domains_[out.vars[0]];
      const int64_t bx = b * domains_[out.vars[1]];
      const int64_t by = b * domains_[out.vars[2]];
      const std::span<const double> values =
          std::span<const double>(value_pool_).subspan(r.values, r.num_values);
      const std::span<const uint8_t> gates =
          std::span<const uint8_t>(gate_pool_).subspan(r.gates, bx + by);
      ImplicitTernaryView& sp = out.implicit;
      sp.base_on = values.subspan(0, b);
      sp.base_off = values.subspan(b, b);
      sp.unary_x = values.subspan(2 * b, bx);
      sp.unary_y = values.subspan(2 * b + bx, by);
      sp.gate_x = gates.subspan(0, bx);
      sp.gate_y = gates.subspan(bx, by);
      sp.overrides = std::span<const TernaryOverride>(override_pool_)
                         .subspan(r.entries, r.num_entries);
      break;
    }
  }
  return out;
}

int64_t FactorGraph::TableIndex(const Factor& factor,
                                const std::vector<int>& domain_sizes,
                                const std::vector<int>& labels) {
  int64_t idx = 0;
  for (size_t i = 0; i < factor.vars.size(); ++i) {
    idx = idx * domain_sizes[factor.vars[i]] + labels[factor.vars[i]];
  }
  return idx;
}

double FactorGraph::FactorLogValue(int f,
                                   const std::vector<int>& labels) const {
  const Factor factor = this->factor(f);
  switch (factor.rep) {
    case FactorRep::kDense:
      return factor.table[TableIndex(factor, domains_, labels)];
    case FactorRep::kSparsePair: {
      const int32_t l0 = labels[factor.vars[0]];
      const int32_t l1 = labels[factor.vars[1]];
      auto it = std::lower_bound(
          factor.entries.begin(), factor.entries.end(),
          std::make_pair(l0, l1),
          [](const SparseEntry& e, const std::pair<int32_t, int32_t>& key) {
            return e.l0 < key.first ||
                   (e.l0 == key.first && e.l1 < key.second);
          });
      if (it != factor.entries.end() && it->l0 == l0 && it->l1 == l1) {
        return it->value;
      }
      return factor.default_log;
    }
    case FactorRep::kImplicitTernary: {
      const int32_t ls = labels[factor.vars[0]];
      const int32_t lx = labels[factor.vars[1]];
      const int32_t ly = labels[factor.vars[2]];
      if (ls == 0 || lx == 0 || ly == 0) return 0.0;
      const auto& spec = factor.implicit;
      auto it = std::lower_bound(
          spec.overrides.begin(), spec.overrides.end(),
          std::make_tuple(ls, lx, ly),
          [](const TernaryOverride& o,
             const std::tuple<int32_t, int32_t, int32_t>& key) {
            if (o.ls != std::get<0>(key)) return o.ls < std::get<0>(key);
            if (o.lx != std::get<1>(key)) return o.lx < std::get<1>(key);
            return o.ly < std::get<2>(key);
          });
      if (it != spec.overrides.end() && it->ls == ls && it->lx == lx &&
          it->ly == ly) {
        return it->value;
      }
      return ImplicitValueAt(spec, domains_[factor.vars[1]],
                             domains_[factor.vars[2]], ls, lx, ly);
    }
  }
  return 0.0;
}

double FactorGraph::ScoreAssignment(const std::vector<int>& labels) const {
  WEBTAB_CHECK(static_cast<int>(labels.size()) == num_variables());
  double score = 0.0;
  for (int v = 0; v < num_variables(); ++v) {
    if (domains_[v] == 0) {
      WEBTAB_CHECK(labels[v] == -1)
          << "empty-domain variable must carry label -1";
      continue;
    }
    WEBTAB_CHECK(labels[v] >= 0 && labels[v] < domains_[v]);
    score += node_values_[node_off_[v] + labels[v]];
  }
  for (int f = 0; f < num_factors(); ++f) {
    score += FactorLogValue(f, labels);
  }
  return score;
}

int64_t FactorGraph::FactorMemoryBytes() const {
  return static_cast<int64_t>(value_pool_.size() * sizeof(double) +
                              (entry_pool_.size() + entry_t_pool_.size()) *
                                  sizeof(SparseEntry) +
                              gate_pool_.size() +
                              override_pool_.size() *
                                  sizeof(TernaryOverride));
}

}  // namespace webtab
