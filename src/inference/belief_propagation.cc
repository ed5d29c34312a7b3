#include "inference/belief_propagation.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace webtab {

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

/// Subtracts the max so the largest element becomes 0. Safe on empty
/// messages (degenerate zero-size domains leave nothing to normalize).
void NormalizeInPlace(double* msg, int n) {
  if (n == 0) return;
  double mx = msg[0];
  for (int i = 1; i < n; ++i) mx = std::max(mx, msg[i]);
  for (int i = 0; i < n; ++i) msg[i] -= mx;
}

double MaxOf(const double* v, int n) {
  double mx = kNegInf;
  for (int i = 0; i < n; ++i) mx = std::max(mx, v[i]);
  return mx;
}

/// Dense max-marginalization for arity 1-3 factors: direct exclusion
/// sums, one pass over the table.
void DenseKernel(const FactorGraph::Factor& factor, const int* dims,
                 const double* const* in, double* const* out) {
  const double* table = factor.table.data();
  switch (factor.vars.size()) {
    case 1: {
      for (int l0 = 0; l0 < dims[0]; ++l0) {
        out[0][l0] = table[l0];
      }
      return;
    }
    case 2: {
      int64_t idx = 0;
      for (int l0 = 0; l0 < dims[0]; ++l0) {
        const double in0 = in[0][l0];
        for (int l1 = 0; l1 < dims[1]; ++l1, ++idx) {
          const double t = table[idx];
          out[0][l0] = std::max(out[0][l0], t + in[1][l1]);
          out[1][l1] = std::max(out[1][l1], t + in0);
        }
      }
      return;
    }
    case 3: {
      int64_t idx = 0;
      for (int l0 = 0; l0 < dims[0]; ++l0) {
        const double in0 = in[0][l0];
        for (int l1 = 0; l1 < dims[1]; ++l1) {
          const double in1 = in[1][l1];
          for (int l2 = 0; l2 < dims[2]; ++l2, ++idx) {
            const double t = table[idx];
            out[0][l0] = std::max(out[0][l0], (t + in1) + in[2][l2]);
            out[1][l1] = std::max(out[1][l1], (t + in0) + in[2][l2]);
            out[2][l2] = std::max(out[2][l2], (t + in0) + in1);
          }
        }
      }
      return;
    }
    default:
      break;
  }
  // Generic arity: odometer enumeration with total-minus-own exclusion.
  const size_t arity = factor.vars.size();
  std::vector<int> label(arity, 0);
  const int64_t table_size = static_cast<int64_t>(factor.table.size());
  for (int64_t idx = 0; idx < table_size; ++idx) {
    int64_t rem = idx;
    for (size_t i = arity; i-- > 0;) {
      label[i] = static_cast<int>(rem % dims[i]);
      rem /= dims[i];
    }
    double total_in = 0.0;
    for (size_t i = 0; i < arity; ++i) total_in += in[i][label[i]];
    const double base = table[idx];
    for (size_t i = 0; i < arity; ++i) {
      double excl = base + total_in - in[i][label[i]];
      out[i][label[i]] = std::max(out[i][label[i]], excl);
    }
  }
}

/// One direction of the sparse pairwise kernel: the max over the other
/// variable of (value + in_other), per self label. `all` must be
/// grouped by self label (major axis) — the factor's `entries` for
/// direction 0, its precomputed transpose `entries_t` for direction 1.
///
/// Every self label starts at the default candidate (default + global
/// best of the other side, one vectorizable fill); only labels that
/// carry entries are revisited, via one sweep over the entry groups.
/// Such a row marks its cells and, when the global argmax happens to be
/// overridden, rescans the other side once — so entries below the
/// default never overstate the marginal. Expected cost
/// O(d_self + d_other + nnz); the rescan degenerates only at densities
/// where emission already prefers the dense table.
void SparsePairDirection(std::span<const FactorGraph::SparseEntry> all,
                         double def, int d_self, int d_other,
                         const double* in_other, double* out,
                         std::vector<uint8_t>* marks_scratch) {
  double best_other = kNegInf;
  int32_t best_other_idx = 0;
  for (int32_t k = 0; k < d_other; ++k) {
    if (in_other[k] > best_other) {
      best_other = in_other[k];
      best_other_idx = k;
    }
  }
  const double default_cand = def + best_other;
  for (int l = 0; l < d_self; ++l) out[l] = default_cand;
  if (all.empty()) return;

  marks_scratch->assign(d_other, 0);
  uint8_t* marks = marks_scratch->data();
  const auto* entries = all.data();
  const int nnz = static_cast<int>(all.size());
  int pos = 0;
  while (pos < nnz) {
    const int32_t l = entries[pos].l0;
    const int begin = pos;
    while (pos < nnz && entries[pos].l0 == l) ++pos;
    double m = kNegInf;
    for (int k = begin; k < pos; ++k) {
      marks[entries[k].l1] = 1;
      m = std::max(m, entries[k].value + in_other[entries[k].l1]);
    }
    // Default-valued candidate: the global best unless this row
    // overrides it, then the best unmarked label.
    if (!marks[best_other_idx]) {
      m = std::max(m, default_cand);
    } else {
      double best_free = kNegInf;
      for (int k = 0; k < d_other; ++k) {
        if (!marks[k] && in_other[k] > best_free) best_free = in_other[k];
      }
      m = std::max(m, def + best_free);
    }
    for (int k = begin; k < pos; ++k) marks[entries[k].l1] = 0;
    out[l] = m;
  }
}

/// Implicit ternary max-marginalization via per-slab class maxima; see
/// factor_graph.h for the representation. O(B*(Dx+Dy) + nnz) total.
void ImplicitTernaryKernel(const FactorGraph::Factor& factor,
                           const int* dims, const double* const* in,
                           double* const* out,
                           std::vector<double>* ax_on_s,
                           std::vector<double>* ax_off_s,
                           std::vector<double>* by_on_s,
                           std::vector<double>* by_off_s,
                           std::vector<double>* term_on_s,
                           std::vector<double>* term_off_s) {
  const auto& sp = factor.implicit;
  const int B = dims[0], Dx = dims[1], Dy = dims[2];
  const double* ins = in[0];
  const double* inx = in[1];
  const double* iny = in[2];

  const double best_s_all = MaxOf(ins, B);
  const double best_x_all = MaxOf(inx, Dx);
  const double best_y_all = MaxOf(iny, Dy);

  ax_on_s->assign(B, kNegInf);
  ax_off_s->assign(B, kNegInf);
  by_on_s->assign(B, kNegInf);
  by_off_s->assign(B, kNegInf);
  double* ax_on = ax_on_s->data();
  double* ax_off = ax_off_s->data();
  double* by_on = by_on_s->data();
  double* by_off = by_off_s->data();
  for (int ls = 1; ls < B; ++ls) {
    const double* ux = &sp.unary_x[static_cast<size_t>(ls) * Dx];
    const uint8_t* gx = &sp.gate_x[static_cast<size_t>(ls) * Dx];
    double on = kNegInf, off = kNegInf;
    for (int lx = 1; lx < Dx; ++lx) {
      const double c = ux[lx] + inx[lx];
      if (gx[lx]) {
        on = std::max(on, c);
      } else {
        off = std::max(off, c);
      }
    }
    ax_on[ls] = on;
    ax_off[ls] = off;
    const double* uy = &sp.unary_y[static_cast<size_t>(ls) * Dy];
    const uint8_t* gy = &sp.gate_y[static_cast<size_t>(ls) * Dy];
    on = kNegInf;
    off = kNegInf;
    for (int ly = 1; ly < Dy; ++ly) {
      const double c = uy[ly] + iny[ly];
      if (gy[ly]) {
        on = std::max(on, c);
      } else {
        off = std::max(off, c);
      }
    }
    by_on[ls] = on;
    by_off[ls] = off;
  }

  // Direction s. Slab 0 (na) sees value 0 everywhere; other slabs
  // combine the na strip (any x/y na) with the four gate classes.
  out[0][0] = best_x_all + best_y_all;
  const double na_strip_s =
      std::max(inx[0] + best_y_all, best_x_all + iny[0]);
  // Candidate sums are grouped as ((base + x-side) + y-side) to mirror
  // the dense kernel's (table + in1) + in2 evaluation order: factors with
  // zero unaries (φ5 shape) then produce bitwise-identical messages to
  // their dense equivalents.
  for (int ls = 1; ls < B; ++ls) {
    double m = na_strip_s;
    m = std::max(m, (sp.base_on[ls] + ax_on[ls]) + by_on[ls]);
    m = std::max(m, (sp.base_off[ls] + ax_on[ls]) + by_off[ls]);
    m = std::max(m, (sp.base_off[ls] + ax_off[ls]) + by_on[ls]);
    m = std::max(m, (sp.base_off[ls] + ax_off[ls]) + by_off[ls]);
    out[0][ls] = m;
  }

  // Direction x: fold in_s and the bases into per-slab terms, then scan
  // (slab, x) pairs against the y-side class maxima.
  term_on_s->assign(B, kNegInf);
  term_off_s->assign(B, kNegInf);
  double* s_on = term_on_s->data();    // base_on[ls] + in_s[ls]
  double* s_off = term_off_s->data();  // base_off[ls] + in_s[ls]
  for (int ls = 1; ls < B; ++ls) {
    s_on[ls] = sp.base_on[ls] + ins[ls];
    s_off[ls] = sp.base_off[ls] + ins[ls];
  }
  out[1][0] = best_s_all + best_y_all;
  const double na_strip_x =
      std::max(ins[0] + best_y_all, best_s_all + iny[0]);
  for (int lx = 1; lx < Dx; ++lx) {
    double m = na_strip_x;
    for (int ls = 1; ls < B; ++ls) {
      const double ux = sp.unary_x[static_cast<size_t>(ls) * Dx + lx];
      if (sp.gate_x[static_cast<size_t>(ls) * Dx + lx]) {
        m = std::max(m, (s_on[ls] + ux) + by_on[ls]);
        m = std::max(m, (s_off[ls] + ux) + by_off[ls]);
      } else {
        m = std::max(m, (s_off[ls] + ux) + std::max(by_on[ls], by_off[ls]));
      }
    }
    out[1][lx] = m;
  }

  // Direction y, symmetric with the x-side class maxima.
  out[2][0] = best_s_all + best_x_all;
  const double na_strip_y =
      std::max(ins[0] + best_x_all, best_s_all + inx[0]);
  for (int ly = 1; ly < Dy; ++ly) {
    double m = na_strip_y;
    for (int ls = 1; ls < B; ++ls) {
      const double uy = sp.unary_y[static_cast<size_t>(ls) * Dy + ly];
      if (sp.gate_y[static_cast<size_t>(ls) * Dy + ly]) {
        m = std::max(m, (s_on[ls] + uy) + ax_on[ls]);
        m = std::max(m, (s_off[ls] + uy) + ax_off[ls]);
      } else {
        m = std::max(m, (s_off[ls] + uy) + std::max(ax_on[ls], ax_off[ls]));
      }
    }
    out[2][ly] = m;
  }

  // Overrides dominate the implicit values they shadow, so a plain sweep
  // (without excising them from the class maxima) stays exact.
  for (const auto& o : sp.overrides) {
    out[0][o.ls] =
        std::max(out[0][o.ls], (o.value + inx[o.lx]) + iny[o.ly]);
    out[1][o.lx] =
        std::max(out[1][o.lx], (o.value + ins[o.ls]) + iny[o.ly]);
    out[2][o.ly] =
        std::max(out[2][o.ly], (o.value + ins[o.ls]) + inx[o.lx]);
  }
}

}  // namespace

void BpWorkspace::Prepare(const FactorGraph& graph) {
  const int num_vars = graph.num_variables();
  const int num_factors = graph.num_factors();

  var_off_.assign(num_vars + 1, 0);
  for (int v = 0; v < num_vars; ++v) {
    var_off_[v + 1] = var_off_[v] + graph.domain_size(v);
  }
  belief_.assign(var_off_[num_vars], 0.0);
  for (int v = 0; v < num_vars; ++v) {
    const std::span<const double> pot = graph.node_log_potential(v);
    std::copy(pot.begin(), pot.end(), belief_.begin() + var_off_[v]);
  }

  factors_.clear();
  for (int f = 0; f < num_factors; ++f) factors_.push_back(graph.factor(f));
  adj_start_.assign(num_factors + 1, 0);
  for (int f = 0; f < num_factors; ++f) {
    adj_start_[f + 1] =
        adj_start_[f] + static_cast<int64_t>(factors_[f].vars.size());
  }
  const int64_t num_adj = adj_start_[num_factors];
  msg_off_.assign(num_adj + 1, 0);
  for (int f = 0; f < num_factors; ++f) {
    const std::span<const int> vars = factors_[f].vars;
    for (size_t i = 0; i < vars.size(); ++i) {
      const int64_t slot = adj_start_[f] + static_cast<int64_t>(i);
      msg_off_[slot + 1] = msg_off_[slot] + graph.domain_size(vars[i]);
    }
  }
  msg_.assign(msg_off_[num_adj], 0.0);

  order_.resize(num_factors);
  std::iota(order_.begin(), order_.end(), 0);
  std::stable_sort(order_.begin(), order_.end(), [&](int a, int b) {
    return factors_[a].group < factors_[b].group;
  });

  version_.assign(num_vars, 1);
  last_seen_.assign(num_adj, 0);
  last_zero_.assign(num_factors, 0);

  int max_dom = 1;
  for (int v = 0; v < num_vars; ++v) {
    max_dom = std::max(max_dom, graph.domain_size(v));
  }
  max_dom_ = max_dom;
  size_t max_arity = 1;
  for (int f = 0; f < num_factors; ++f) {
    max_arity = std::max(max_arity, factors_[f].vars.size());
  }
  WEBTAB_CHECK(max_arity <= 8) << "factor arity above 8 unsupported";
  in_scratch_.resize(max_arity * static_cast<size_t>(max_dom));
  new_scratch_.resize(max_arity * static_cast<size_t>(max_dom));
  // marks_ and the slab/term scratch are sized on demand inside the
  // kernels (resize/assign reuse capacity and do not allocate in steady
  // state).
}

BpResult RunBeliefPropagation(const FactorGraph& graph,
                              const BpOptions& options,
                              BpWorkspace* workspace) {
  BpWorkspace local;
  BpWorkspace& ws = workspace != nullptr ? *workspace : local;
  ws.Prepare(graph);

  const int num_vars = graph.num_variables();
  const int max_dom = ws.max_dom_;

  BpResult result;
  for (int iter = 1; iter <= options.max_iterations; ++iter) {
    double residual = 0.0;
    for (int f : ws.order_) {
      const FactorGraph::Factor& factor = ws.factors_[f];
      const int arity = static_cast<int>(factor.vars.size());
      const int64_t adj0 = ws.adj_start_[f];

      // Residual-based scheduling: if this factor's last sweep changed
      // nothing and no neighbor's belief moved since, its messages are
      // already at their fixed point for the current inputs.
      if (options.residual_scheduling && ws.last_zero_[f]) {
        bool unchanged = true;
        for (int i = 0; i < arity; ++i) {
          if (ws.last_seen_[adj0 + i] != ws.version_[factor.vars[i]]) {
            unchanged = false;
            break;
          }
        }
        if (unchanged) {
          ++result.factor_skips;
          continue;
        }
      }
      ++result.factor_updates;

      // Gather var->factor messages (belief minus own contribution).
      int dims[8];
      const double* in[8];
      double* out[8];
      for (int i = 0; i < arity; ++i) {
        const int v = factor.vars[i];
        const int d = graph.domain_size(v);
        dims[i] = d;
        double* in_i = ws.in_scratch_.data() +
                       static_cast<size_t>(i) * max_dom;
        const double* bel = ws.belief_.data() + ws.var_off_[v];
        const double* to_var = ws.msg_.data() + ws.msg_off_[adj0 + i];
        for (int l = 0; l < d; ++l) in_i[l] = bel[l] - to_var[l];
        NormalizeInPlace(in_i, d);
        in[i] = in_i;
        double* out_i = ws.new_scratch_.data() +
                        static_cast<size_t>(i) * max_dom;
        std::fill(out_i, out_i + d, kNegInf);
        out[i] = out_i;
      }

      switch (factor.rep) {
        case FactorGraph::FactorRep::kDense:
          DenseKernel(factor, dims, in, out);
          break;
        case FactorGraph::FactorRep::kSparsePair:
          SparsePairDirection(factor.entries, factor.default_log, dims[0],
                              dims[1], in[1], out[0], &ws.marks_);
          SparsePairDirection(factor.entries_t, factor.default_log,
                              dims[1], dims[0], in[0], out[1], &ws.marks_);
          break;
        case FactorGraph::FactorRep::kImplicitTernary:
          ImplicitTernaryKernel(factor, dims, in, out, &ws.slab_a_on_,
                                &ws.slab_a_off_, &ws.slab_b_on_,
                                &ws.slab_b_off_, &ws.term_on_,
                                &ws.term_off_);
          break;
      }

      // Apply damping, normalize, track residual, update beliefs.
      bool factor_changed = false;
      for (int i = 0; i < arity; ++i) {
        const int v = factor.vars[i];
        const int d = dims[i];
        double* msg = out[i];
        NormalizeInPlace(msg, d);
        double* to_var = ws.msg_.data() + ws.msg_off_[adj0 + i];
        if (options.damping > 0.0) {
          for (int l = 0; l < d; ++l) {
            msg[l] = options.damping * to_var[l] +
                     (1.0 - options.damping) * msg[l];
          }
          NormalizeInPlace(msg, d);
        }
        double* bel = ws.belief_.data() + ws.var_off_[v];
        bool changed = false;
        for (int l = 0; l < d; ++l) {
          const double delta = msg[l] - to_var[l];
          if (delta != 0.0) changed = true;
          residual = std::max(residual, std::fabs(delta));
          bel[l] += delta;
          to_var[l] = msg[l];
        }
        if (changed) {
          ++ws.version_[v];
          factor_changed = true;
        }
        ws.last_seen_[adj0 + i] = ws.version_[v];
      }
      ws.last_zero_[f] = factor_changed ? 0 : 1;
    }
    result.iterations = iter;
    result.max_residual = residual;
    if (options.capture_convergence) result.residual_trail.push_back(residual);
    if (residual < options.tolerance) {
      result.converged = true;
      break;
    }
  }

  // Decode: argmax belief per variable; ties break toward the lowest
  // label index (na first) for determinism. Empty domains decode to -1.
  result.assignment.resize(num_vars);
  if (options.capture_convergence) {
    result.decode_margins.assign(num_vars, 0.0);
  }
  for (int v = 0; v < num_vars; ++v) {
    const int d = graph.domain_size(v);
    if (d == 0) {
      result.assignment[v] = -1;
      continue;
    }
    const double* bel = ws.belief_.data() + ws.var_off_[v];
    int best = 0;
    for (int l = 1; l < d; ++l) {
      if (bel[l] > bel[best]) best = l;
    }
    result.assignment[v] = best;
    if (options.capture_convergence && d > 1) {
      // Decode margin: distance from the winner to the runner-up.
      double second = kNegInf;
      for (int l = 0; l < d; ++l) {
        if (l != best) second = std::max(second, bel[l]);
      }
      result.decode_margins[v] = bel[best] - second;
    }
  }
  result.score = graph.ScoreAssignment(result.assignment);

  // Sweep/update accounting: cheap (once per BP run, not per sweep) and
  // the substrate for verifying residual scheduling keeps paying off as
  // corpora grow. Trace counters land in the per-request breakdown.
  static obs::Counter* bp_runs =
      obs::MetricsRegistry::Get().GetCounter("bp.runs");
  static obs::Counter* bp_sweeps =
      obs::MetricsRegistry::Get().GetCounter("bp.sweeps");
  static obs::Counter* bp_factor_updates =
      obs::MetricsRegistry::Get().GetCounter("bp.factor_updates");
  static obs::Counter* bp_factor_skips =
      obs::MetricsRegistry::Get().GetCounter("bp.factor_skips");
  bp_runs->Add(1);
  bp_sweeps->Add(result.iterations);
  bp_factor_updates->Add(result.factor_updates);
  bp_factor_skips->Add(result.factor_skips);
  obs::TraceAddCounter("bp_sweeps", result.iterations);
  obs::TraceAddCounter("bp_factor_updates", result.factor_updates);
  return result;
}

}  // namespace webtab
