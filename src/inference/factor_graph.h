#ifndef WEBTAB_INFERENCE_FACTOR_GRAPH_H_
#define WEBTAB_INFERENCE_FACTOR_GRAPH_H_

#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

namespace webtab {

/// A discrete factor graph in log domain (Appendix B). Variables carry
/// node log-potentials; factors couple 2-3 variables. Factor "groups" let
/// callers impose the paper's message schedule (φ3 then φ5 then φ4,
/// Appendix D).
///
/// # Factor representations
///
/// The paper's factors have exploitable structure: every potential family
/// scores exactly 0 when any participating label is na (index 0), and the
/// non-na block is either sparse (φ3: most type-entity pairs score 0) or
/// near-separable (φ4/φ5: a per-relation base plus per-(relation, side)
/// unary terms, an AND-gated class bonus, and a short list of overrides
/// for catalog tuple hits). Three representations capture this:
///
///  * kDense — row-major log table, arbitrary arity ≤ 3. Fallback for
///    unstructured factors and for structured factors whose density makes
///    enumeration cheaper. Max-marginalization: O(Π domain sizes).
///
///  * kSparsePair — arity 2; value(l0,l1) = `default_log` everywhere
///    except an explicit (sorted, unique) entry list. Entries may be
///    smaller than the default; the BP kernel excises overridden cells
///    exactly. Max-marginalization: expected O(L0 + L1 + nnz) per
///    direction (worst case adds an O(L1) rescan per row whose entries
///    cover the global argmax). Storage: O(nnz) instead of O(L0·L1).
///
///  * kImplicitTernary — arity 3 over (s, x, y) with domains (B, Dx, Dy);
///        value = 0                      when any label is 0 (na),
///        value = base_on[ls]  + unary_x[ls,lx] + unary_y[ls,ly]
///                               when gate_x[ls,lx] && gate_y[ls,ly],
///        value = base_off[ls] + unary_x[ls,lx] + unary_y[ls,ly]
///                               otherwise,
///    replaced by explicit overrides (each override value must be ≥ the
///    implicit value it shadows, so class-wise maxima never overstate).
///    This is exactly the shape of φ4 (schema AND-match over subtype
///    gates, participation unaries) and φ5 (violation classes from
///    per-side functional-cardinality gates, tuple hits as overrides).
///    Max-marginalization: O(B·(Dx+Dy) + nnz) per direction instead of
///    O(B·Dx·Dy). Storage: O(B·(Dx+Dy) + nnz).
///
/// ScoreAssignment and SolveBruteForce evaluate all representations
/// through FactorLogValue, so structured and dense builds of the same
/// model are interchangeable (see tests/factor_rep_equivalence_test.cc).
///
/// # Storage
///
/// A graph owns a handful of pools — factor variable ids, doubles (node
/// potentials, dense tables and the implicit bases/unaries), sparse
/// entries and their transposes, gates, ternary overrides — and each
/// variable or factor is a record of offsets into them. Adding a factor
/// appends to the pools; nothing is allocated per factor. Clear() empties
/// the graph and keeps every pool's capacity, so a worker that rebuilds
/// one graph per table (the annotator's workspace) stops allocating once
/// the pools reach its largest table. `factor(f)` returns a view of spans
/// into the pools, valid until the graph next changes.
class FactorGraph {
 public:
  enum class FactorRep : uint8_t {
    kDense = 0,
    kSparsePair = 1,
    kImplicitTernary = 2,
  };

  /// One explicit cell of a kSparsePair factor. Sorted by (l0, l1).
  struct SparseEntry {
    int32_t l0 = 0;
    int32_t l1 = 0;
    double value = 0.0;  // Absolute log-potential replacing default_log.
  };

  /// One explicit cell of a kImplicitTernary factor. Sorted by
  /// (ls, lx, ly); all labels ≥ 1 and value ≥ the implicit value there.
  struct TernaryOverride {
    int32_t ls = 0;
    int32_t lx = 0;
    int32_t ly = 0;
    double value = 0.0;
  };

  /// The implicit part of a kImplicitTernary factor, as a caller builds
  /// it; see class comment for semantics. Slot 0 of each unary/gate row
  /// corresponds to na and is never read.
  struct ImplicitTernarySpec {
    std::vector<double> base_on;    // [B]
    std::vector<double> base_off;   // [B]
    std::vector<double> unary_x;    // [B*Dx], row-major by slab.
    std::vector<double> unary_y;    // [B*Dy]
    std::vector<uint8_t> gate_x;    // [B*Dx]
    std::vector<uint8_t> gate_y;    // [B*Dy]
    std::vector<TernaryOverride> overrides;  // Sorted, unique.
  };

  /// An ImplicitTernarySpec as stored: spans into the graph's pools.
  struct ImplicitTernaryView {
    std::span<const double> base_on, base_off, unary_x, unary_y;
    std::span<const uint8_t> gate_x, gate_y;
    std::span<const TernaryOverride> overrides;
  };

  /// A view of one factor (spans into the pools; see class comment).
  struct Factor {
    std::span<const int> vars;  // Variable ids, in table axis order.
    FactorRep rep = FactorRep::kDense;
    int group = 0;              // Schedule group (ascending order).

    // kDense: row-major log-potential table.
    std::span<const double> table;

    // kSparsePair. `entries_t` is the transposed copy (l0/l1 swapped,
    // sorted by the swapped pair), so both BP directions stream
    // contiguous row-grouped entries.
    double default_log = 0.0;
    std::span<const SparseEntry> entries;
    std::span<const SparseEntry> entries_t;

    // kImplicitTernary.
    ImplicitTernaryView implicit;
  };

  /// Empties the graph, keeping every pool's capacity.
  void Clear();

  /// Adds a variable with `domain_size` labels (all-zero node potential).
  /// A domain size of 0 is permitted for degenerate graphs; such
  /// variables admit no assignment and may not participate in factors.
  int AddVariable(int domain_size);

  void SetNodeLogPotential(int var, std::span<const double> log_potential);
  void SetNodeLogPotential(int var,
                           std::initializer_list<double> log_potential) {
    SetNodeLogPotential(var, std::span<const double>(log_potential));
  }
  void AddToNodeLogPotential(int var, int label, double delta);

  /// Adds a dense factor over `vars` with a row-major log table whose
  /// size must be the product of the variables' domain sizes; axis order
  /// == vars order.
  int AddFactor(std::span<const int> vars, std::span<const double> table,
                int group = 0);
  int AddFactor(const std::vector<int>& vars,
                const std::vector<double>& table, int group = 0) {
    return AddFactor(std::span<const int>(vars),
                     std::span<const double>(table), group);
  }

  /// Adds a pairwise sparse factor: `default_log` everywhere except
  /// `entries`, which must be sorted by (l0, l1), unique, and in range.
  /// The transpose is built here by one counting pass over l1
  /// (O(nnz + L1), no sort).
  int AddSparsePairFactor(std::span<const int> vars, double default_log,
                          std::span<const SparseEntry> entries,
                          int group = 0);
  int AddSparsePairFactor(const std::vector<int>& vars, double default_log,
                          std::span<const SparseEntry> entries,
                          int group = 0) {
    return AddSparsePairFactor(std::span<const int>(vars), default_log,
                               entries, group);
  }

  /// Adds an implicit ternary factor (see class comment). Checks that
  /// spec dimensions match the domains, overrides are sorted / unique /
  /// non-na, and each override dominates the implicit value it replaces.
  int AddImplicitTernaryFactor(std::span<const int> vars,
                               const ImplicitTernarySpec& spec,
                               int group = 0);
  int AddImplicitTernaryFactor(const std::vector<int>& vars,
                               const ImplicitTernarySpec& spec,
                               int group = 0) {
    return AddImplicitTernaryFactor(std::span<const int>(vars), spec,
                                    group);
  }

  int num_variables() const { return static_cast<int>(domains_.size()); }
  int num_factors() const { return static_cast<int>(factors_.size()); }
  int domain_size(int var) const { return domains_[var]; }
  std::span<const double> node_log_potential(int var) const {
    return std::span<const double>(node_values_)
        .subspan(node_off_[var], domains_[var]);
  }
  Factor factor(int f) const;

  /// Log-potential of factor `f` at the given labels of its variables
  /// (any representation).
  double FactorLogValue(int f, const std::vector<int>& labels) const;

  /// Total log-score of a complete assignment (label index per variable).
  /// Variables with empty domains must carry label -1.
  double ScoreAssignment(const std::vector<int>& labels) const;

  /// Bytes the factors' tables, entries, gates and overrides occupy in
  /// the pools, for memory accounting in benchmarks.
  int64_t FactorMemoryBytes() const;

  /// Flat index into a dense factor table for the given labels of its
  /// vars.
  static int64_t TableIndex(const Factor& factor,
                            const std::vector<int>& domain_sizes,
                            const std::vector<int>& labels);

 private:
  /// One factor: its representation and offsets into the pools. For
  /// kImplicitTernary, `values` holds [base_on | base_off | unary_x |
  /// unary_y], `gates` holds [gate_x | gate_y], and `entries` indexes
  /// override_pool_.
  struct FactorRecord {
    FactorRep rep = FactorRep::kDense;
    int group = 0;
    int arity = 0;
    int64_t vars = 0;
    int64_t values = 0;
    int64_t num_values = 0;
    int64_t entries = 0;
    int64_t num_entries = 0;
    int64_t gates = 0;
    double default_log = 0.0;
  };

  /// Appends `vars` to the var pool after checking each is a variable
  /// with a non-empty domain; returns the record to fill.
  FactorRecord& BeginFactor(std::span<const int> vars, FactorRep rep,
                            int group);

  std::vector<int> domains_;
  std::vector<int64_t> node_off_;
  std::vector<double> node_values_;
  std::vector<FactorRecord> factors_;
  std::vector<int> var_pool_;
  std::vector<double> value_pool_;
  std::vector<SparseEntry> entry_pool_;
  std::vector<SparseEntry> entry_t_pool_;
  std::vector<uint8_t> gate_pool_;
  std::vector<TernaryOverride> override_pool_;
  /// AddSparsePairFactor's per-l1 cursors into the transpose.
  std::vector<int64_t> transpose_cursor_;
};

}  // namespace webtab

#endif  // WEBTAB_INFERENCE_FACTOR_GRAPH_H_
