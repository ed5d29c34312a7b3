#include "inference/table_graph.h"

#include <algorithm>
#include <span>
#include <unordered_map>

#include "common/logging.h"
#include "obs/trace.h"

namespace webtab {

namespace {

/// Fills `tab` (types × ents, row-major by type) with φ3
/// log-potentials. The structured build reads them from the column's
/// Phi3Column, which hoists the repeated work out of per-pair Phi3Log;
/// kDense keeps the per-pair Phi3Log as the oracle the equivalence tests
/// compare against. Both are bit-identical.
void FillPhi3Table(const std::vector<TypeId>& types,
                   const std::vector<EntityId>& ents, Phi3Column* column,
                   FeatureComputer* features, const Weights& w,
                   FactorRepChoice rep, std::vector<double>* tab) {
  if (rep == FactorRepChoice::kStructured) {
    column->FillTable(ents, tab);
    return;
  }
  const size_t n = ents.size();
  tab->assign(types.size() * n, 0.0);
  for (size_t lt = 1; lt < types.size(); ++lt) {
    for (size_t le = 1; le < n; ++le) {
      (*tab)[lt * n + le] = features->Phi3Log(w, types[lt], ents[le]);
    }
  }
}

/// Emits one φ3 factor from its value table. Structured mode collects
/// the nonzero type-entity scores into a sparse pairwise factor (φ3 is 0
/// whenever a label is na or the pair is incompatible with no
/// missing-link hint), but only when the sparse kernel is the cheaper
/// one: the dense pairwise sweep costs ~cells ops while the sparse sweep
/// costs ~2.5·(L0+L1) + 5·nnz (measured constants), so small or dense
/// factors keep the plain table. Large type domains (the paper runs them
/// uncapped, in the hundreds) are where the sparse form pays off.
void EmitPhi3(std::vector<double> tab, size_t num_types, size_t num_ents,
              int type_var, int entity_var, FactorRepChoice rep,
              FactorGraph* graph) {
  if (rep == FactorRepChoice::kDense) {
    graph->AddFactor({type_var, entity_var}, std::move(tab), kGroupPhi3);
    return;
  }
  std::vector<FactorGraph::SparseEntry> entries;
  for (size_t lt = 1; lt < num_types; ++lt) {
    for (size_t le = 1; le < num_ents; ++le) {
      const double v = tab[lt * num_ents + le];
      if (v != 0.0) {
        entries.push_back({static_cast<int32_t>(lt),
                           static_cast<int32_t>(le), v});
      }
    }
  }
  const size_t cells = num_types * num_ents;
  const size_t sparse_cost = 5 * (num_types + num_ents) + 10 * entries.size();
  if (2 * cells <= sparse_cost) {
    graph->AddFactor({type_var, entity_var}, std::move(tab), kGroupPhi3);
    return;
  }
  graph->AddSparsePairFactor({type_var, entity_var}, 0.0,
                             std::move(entries), kGroupPhi3);
}

/// Emits one φ5 factor for a row of a column pair. The structured form
/// exploits §4.2.5's shape: every non-na triple scores the bias unless a
/// cardinality violation fires (decidable per (relation, side entity) —
/// the gates) or the tuple actually holds in the catalog (the sparse
/// overrides). Build cost drops from O(B·E1·E2) feature probes to
/// O(B·(E1+E2) + matched tuples).
void EmitPhi5(const std::vector<RelationCandidate>& rels,
              const std::vector<EntityId>& d1,
              const std::vector<EntityId>& d2, int rel_var, int v1, int v2,
              FeatureComputer* features, const Weights& w,
              FactorRepChoice rep, FactorGraph* graph) {
  // Class values, matching FeatureComputer::Phi5Log's dot-product
  // arithmetic exactly (feature components are 0/1).
  const double hit_value = w.w5[0] + w.w5[2];
  const double plain_value = w.w5[2];
  const double viol_value = w.w5[1] + w.w5[2];
  // The class-wise kernel requires overrides (tuple hits) to dominate
  // the implicit value they shadow; default and any sanely trained
  // weights satisfy this (tuple evidence positive, violations punished).
  const bool structured = rep == FactorRepChoice::kStructured &&
                          hit_value >= plain_value &&
                          hit_value >= viol_value;
  if (!structured) {
    std::vector<double> tab(rels.size() * d1.size() * d2.size(), 0.0);
    for (size_t lb = 1; lb < rels.size(); ++lb) {
      for (size_t l1 = 1; l1 < d1.size(); ++l1) {
        for (size_t l2 = 1; l2 < d2.size(); ++l2) {
          tab[(lb * d1.size() + l1) * d2.size() + l2] =
              features->Phi5Log(w, rels[lb], d1[l1], d2[l2]);
        }
      }
    }
    graph->AddFactor({rel_var, v1, v2}, std::move(tab), kGroupPhi5);
    return;
  }

  const CatalogView& catalog = features->catalog();
  const size_t B = rels.size();
  FactorGraph::ImplicitTernarySpec spec;
  spec.base_on.assign(B, 0.0);
  spec.base_off.assign(B, 0.0);
  spec.unary_x.assign(B * d1.size(), 0.0);
  spec.unary_y.assign(B * d2.size(), 0.0);
  spec.gate_x.assign(B * d1.size(), 1);
  spec.gate_y.assign(B * d2.size(), 1);

  // Label index of each candidate entity on the right side, for mapping
  // catalog tuples to overrides.
  std::unordered_map<EntityId, int32_t> l2_of;
  l2_of.reserve(d2.size());
  for (size_t l2 = 1; l2 < d2.size(); ++l2) {
    l2_of.emplace(d2[l2], static_cast<int32_t>(l2));
  }

  for (size_t lb = 1; lb < B; ++lb) {
    const RelationCandidate& b = rels[lb];
    // gate == 1 means "this side raises no cardinality violation".
    spec.base_on[lb] = plain_value;
    spec.base_off[lb] = viol_value;
    const RelationCardinality card = catalog.RelationCardinalityOf(b.relation);
    const bool functional = card == RelationCardinality::kManyToOne ||
                            card == RelationCardinality::kOneToOne;
    const bool inv_functional = card == RelationCardinality::kOneToMany ||
                                card == RelationCardinality::kOneToOne;
    // Side x (= e1) plays subject unless swapped; side y (= e2) the
    // converse (§4.2.5's subject/object mapping).
    for (size_t l1 = 1; l1 < d1.size(); ++l1) {
      const EntityId e1 = d1[l1];
      bool viol;
      if (!b.swapped) {
        viol = functional && !catalog.ObjectsOf(b.relation, e1).empty();
      } else {
        viol = inv_functional && !catalog.SubjectsOf(b.relation, e1).empty();
      }
      if (viol) spec.gate_x[lb * d1.size() + l1] = 0;
      // Tuple hits with e1 on this side become overrides.
      const std::span<const EntityId> partners =
          b.swapped ? catalog.SubjectsOf(b.relation, e1)
                    : catalog.ObjectsOf(b.relation, e1);
      for (EntityId partner : partners) {
        auto it = l2_of.find(partner);
        if (it != l2_of.end()) {
          spec.overrides.push_back({static_cast<int32_t>(lb),
                                    static_cast<int32_t>(l1), it->second,
                                    hit_value});
        }
      }
    }
    for (size_t l2 = 1; l2 < d2.size(); ++l2) {
      const EntityId e2 = d2[l2];
      bool viol;
      if (!b.swapped) {
        viol = inv_functional && !catalog.SubjectsOf(b.relation, e2).empty();
      } else {
        viol = functional && !catalog.ObjectsOf(b.relation, e2).empty();
      }
      if (viol) spec.gate_y[lb * d2.size() + l2] = 0;
    }
  }
  std::sort(spec.overrides.begin(), spec.overrides.end(),
            [](const FactorGraph::TernaryOverride& a,
               const FactorGraph::TernaryOverride& b) {
              if (a.ls != b.ls) return a.ls < b.ls;
              if (a.lx != b.lx) return a.lx < b.lx;
              return a.ly < b.ly;
            });
  spec.overrides.erase(
      std::unique(spec.overrides.begin(), spec.overrides.end(),
                  [](const FactorGraph::TernaryOverride& a,
                     const FactorGraph::TernaryOverride& b) {
                    return a.ls == b.ls && a.lx == b.lx && a.ly == b.ly;
                  }),
      spec.overrides.end());
  graph->AddImplicitTernaryFactor({rel_var, v1, v2}, std::move(spec),
                                  kGroupPhi5);
}

/// Emits one φ4 factor for a column pair. §4.2.4's features decompose
/// per relation candidate into participation unaries (one per side) and
/// an AND of per-side subtype gates carrying the schema-match weight —
/// exactly the implicit ternary form, with no overrides (so any weights
/// are representable).
void EmitPhi4(const std::vector<RelationCandidate>& rels,
              const std::vector<TypeId>& types1,
              const std::vector<TypeId>& types2, int rel_var, int tv1,
              int tv2, FeatureComputer* features, const Weights& w,
              FactorRepChoice rep, FactorGraph* graph) {
  if (rep == FactorRepChoice::kDense) {
    std::vector<double> tab(rels.size() * types1.size() * types2.size(),
                            0.0);
    for (size_t lb = 1; lb < rels.size(); ++lb) {
      for (size_t l1 = 1; l1 < types1.size(); ++l1) {
        for (size_t l2 = 1; l2 < types2.size(); ++l2) {
          tab[(lb * types1.size() + l1) * types2.size() + l2] =
              features->Phi4Log(w, rels[lb], types1[l1], types2[l2]);
        }
      }
    }
    graph->AddFactor({rel_var, tv1, tv2}, std::move(tab), kGroupPhi4);
    return;
  }

  const CatalogView& catalog = features->catalog();
  ClosureCache* closure = features->closure();
  const size_t B = rels.size();
  FactorGraph::ImplicitTernarySpec spec;
  spec.base_on.assign(B, 0.0);
  spec.base_off.assign(B, 0.0);
  spec.unary_x.assign(B * types1.size(), 0.0);
  spec.unary_y.assign(B * types2.size(), 0.0);
  spec.gate_x.assign(B * types1.size(), 0);
  spec.gate_y.assign(B * types2.size(), 0);
  for (size_t lb = 1; lb < B; ++lb) {
    const RelationCandidate& b = rels[lb];
    const TypeId rel_subject = catalog.RelationSubjectType(b.relation);
    const TypeId rel_object = catalog.RelationObjectType(b.relation);
    spec.base_on[lb] = w.w4[0] + w.w4[3];
    spec.base_off[lb] = w.w4[3];
    // Column 1 plays subject unless swapped (then object), mirroring
    // FeatureComputer::F4's role assignment; the participation weight
    // follows the role.
    const TypeId x_role_type = b.swapped ? rel_object : rel_subject;
    const TypeId y_role_type = b.swapped ? rel_subject : rel_object;
    const double wx = b.swapped ? w.w4[2] : w.w4[1];
    const double wy = b.swapped ? w.w4[1] : w.w4[2];
    for (size_t l1 = 1; l1 < types1.size(); ++l1) {
      spec.gate_x[lb * types1.size() + l1] =
          closure->IsSubtypeOf(types1[l1], x_role_type) ? 1 : 0;
      spec.unary_x[lb * types1.size() + l1] =
          wx * features->Participation(b.relation, types1[l1],
                                       /*object_role=*/b.swapped);
    }
    for (size_t l2 = 1; l2 < types2.size(); ++l2) {
      spec.gate_y[lb * types2.size() + l2] =
          closure->IsSubtypeOf(types2[l2], y_role_type) ? 1 : 0;
      spec.unary_y[lb * types2.size() + l2] =
          wy * features->Participation(b.relation, types2[l2],
                                       /*object_role=*/!b.swapped);
    }
  }
  graph->AddImplicitTernaryFactor({rel_var, tv1, tv2}, std::move(spec),
                                  kGroupPhi4);
}

}  // namespace

TableGraph BuildTableGraph(const Table& table, const TableLabelSpace& space,
                           FeatureComputer* features, const Weights& w,
                           const TableGraphOptions& options) {
  TableGraph tg;
  tg.entity_var.assign(table.rows(), std::vector<int>(table.cols(), -1));
  tg.type_var.assign(table.cols(), -1);

  // --- Variables + node potentials: φ2 per column, φ1 per cell, each
  // header or cell text prepared once for its whole domain. ---
  obs::TraceSpan phi2_span("annotate.phi2");
  for (int c = 0; c < table.cols(); ++c) {
    const auto& domain = space.TypeDomain(c);
    if (domain.size() <= 1) continue;
    int v = tg.graph.AddVariable(static_cast<int>(domain.size()));
    tg.type_var[c] = v;
    std::vector<double> pot;
    features->Phi2Logs(w, table.header(c), domain, &pot);
    tg.graph.SetNodeLogPotential(v, std::move(pot));
  }
  phi2_span.End();
  obs::TraceSpan phi1_span("annotate.phi1");
  for (int r = 0; r < table.rows(); ++r) {
    for (int c = 0; c < table.cols(); ++c) {
      const auto& domain = space.EntityDomain(r, c);
      if (domain.size() <= 1) continue;
      int v = tg.graph.AddVariable(static_cast<int>(domain.size()));
      tg.entity_var[r][c] = v;
      std::vector<double> pot;
      features->Phi1Logs(w, table.cell(r, c), domain, &pot);
      tg.graph.SetNodeLogPotential(v, std::move(pot));
    }
  }
  phi1_span.End();

  // --- φ3 factors: (type_c, entity_rc). ---
  obs::TraceSpan phi3_span("annotate.phi3");
  int64_t phi3_pairs = 0;
  for (int c = 0; c < table.cols(); ++c) {
    if (tg.type_var[c] < 0) continue;
    const auto& types = space.TypeDomain(c);
    Phi3Column column(features, w, types);
    for (int r = 0; r < table.rows(); ++r) {
      if (tg.entity_var[r][c] < 0) continue;
      const auto& ents = space.EntityDomain(r, c);
      std::vector<double> tab;
      FillPhi3Table(types, ents, &column, features, w, options.factor_rep,
                    &tab);
      phi3_pairs += static_cast<int64_t>((types.size() - 1) *
                                         (ents.size() - 1));
      EmitPhi3(std::move(tab), types.size(), ents.size(), tg.type_var[c],
               tg.entity_var[r][c], options.factor_rep, &tg.graph);
    }
  }
  obs::TraceAddCounter("phi3_pairs", phi3_pairs);
  phi3_span.End();

  if (!options.use_relations) return tg;

  // --- Relation variables + φ5 + φ4. ---
  obs::TraceSpan relations_span("annotate.relations");
  for (const std::pair<int, int>& pair : space.column_pairs()) {
    const auto& domain = space.RelationDomain(pair.first, pair.second);
    if (domain.size() <= 1) continue;
    int v = tg.graph.AddVariable(static_cast<int>(domain.size()));
    tg.relation_var[pair] = v;
  }

  for (const auto& [pair, rel_var] : tg.relation_var) {
    auto [c1, c2] = pair;
    const auto& rels = space.RelationDomain(c1, c2);

    // φ5(b, e_{r,c1}, e_{r,c2}) per row.
    for (int r = 0; r < table.rows(); ++r) {
      int v1 = tg.entity_var[r][c1];
      int v2 = tg.entity_var[r][c2];
      if (v1 < 0 || v2 < 0) continue;
      EmitPhi5(rels, space.EntityDomain(r, c1), space.EntityDomain(r, c2),
               rel_var, v1, v2, features, w, options.factor_rep, &tg.graph);
    }

    // φ4(b, t_{c1}, t_{c2}).
    int tv1 = tg.type_var[c1];
    int tv2 = tg.type_var[c2];
    if (tv1 >= 0 && tv2 >= 0) {
      EmitPhi4(rels, space.TypeDomain(c1), space.TypeDomain(c2), rel_var,
               tv1, tv2, features, w, options.factor_rep, &tg.graph);
    }
  }
  return tg;
}

TableAnnotation TableGraph::DecodeAssignment(
    const std::vector<int>& assignment, const TableLabelSpace& space) const {
  int rows = static_cast<int>(entity_var.size());
  int cols = static_cast<int>(type_var.size());
  TableAnnotation out = TableAnnotation::Empty(rows, cols);
  for (int c = 0; c < cols; ++c) {
    if (type_var[c] >= 0) {
      out.column_types[c] = space.TypeDomain(c)[assignment[type_var[c]]];
    }
  }
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      if (entity_var[r][c] >= 0) {
        out.cell_entities[r][c] =
            space.EntityDomain(r, c)[assignment[entity_var[r][c]]];
      }
    }
  }
  for (const auto& [pair, v] : relation_var) {
    RelationCandidate rel =
        space.RelationDomain(pair.first, pair.second)[assignment[v]];
    if (!rel.is_na()) out.relations[pair] = rel;
  }
  return out;
}

std::vector<int> TableGraph::EncodeAnnotation(
    const TableAnnotation& annotation, const TableLabelSpace& space) const {
  std::vector<int> assignment(graph.num_variables(), 0);
  int rows = static_cast<int>(entity_var.size());
  int cols = static_cast<int>(type_var.size());
  for (int c = 0; c < cols; ++c) {
    if (type_var[c] < 0) continue;
    int idx = TableLabelSpace::IndexOfType(space.TypeDomain(c),
                                           annotation.TypeOf(c));
    assignment[type_var[c]] = idx >= 0 ? idx : 0;
  }
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      if (entity_var[r][c] < 0) continue;
      int idx = TableLabelSpace::IndexOfEntity(space.EntityDomain(r, c),
                                               annotation.EntityOf(r, c));
      assignment[entity_var[r][c]] = idx >= 0 ? idx : 0;
    }
  }
  for (const auto& [pair, v] : relation_var) {
    int idx = TableLabelSpace::IndexOfRelation(
        space.RelationDomain(pair.first, pair.second),
        annotation.RelationOf(pair.first, pair.second));
    assignment[v] = idx >= 0 ? idx : 0;
  }
  return assignment;
}

}  // namespace webtab
