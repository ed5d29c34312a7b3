#ifndef WEBTAB_SEARCH_POSTING_CURSOR_H_
#define WEBTAB_SEARCH_POSTING_CURSOR_H_

#include <algorithm>
#include <cstdint>
#include <span>

#include "search/corpus_view.h"

namespace webtab {
namespace search_internal {

/// The table index a posting element refers to.
inline int32_t PostingTable(const ColumnRef& r) { return r.table; }
inline int32_t PostingTable(const RelationRef& r) { return r.table; }
inline int32_t PostingTable(const CellRef& r) { return r.table; }
inline int32_t PostingTable(const CellTokenRef& r) { return r.table; }
inline int32_t PostingTable(int32_t table) { return table; }

/// Forward-only cursor over one posting list, grouped by table. Requires
/// the list sorted by non-decreasing table index — guaranteed by the
/// CorpusIndex build (tables are indexed in order) and validated for
/// snapshot files by SnapshotCorpusView::DeepValidate (OpenValidated).
///
/// SeekTable gallops (exponential probe + binary search within the
/// bracket), so a full two-list intersection costs
/// O(min Σ log(gap)) instead of materializing per-table maps — the
/// classic leapfrog used for the T1×T2 column co-occurrence join.
template <typename Ref>
class PostingCursor {
 public:
  explicit PostingCursor(std::span<const Ref> postings)
      : postings_(postings) {}

  bool done() const { return pos_ >= postings_.size(); }
  int32_t table() const { return PostingTable(postings_[pos_]); }

  /// Advances to the first posting with table >= target. No-op when
  /// already there; past-the-end when no such posting exists.
  void SeekTable(int32_t target) {
    if (done() || PostingTable(postings_[pos_]) >= target) return;
    // Gallop: double the step from the current position until the probe
    // reaches target, then binary-search the bracketed range.
    size_t lo = pos_, step = 1;
    while (lo + step < postings_.size() &&
           PostingTable(postings_[lo + step]) < target) {
      lo += step;
      step <<= 1;
    }
    size_t hi = std::min(lo + step + 1, postings_.size());
    auto it = std::lower_bound(
        postings_.begin() + lo, postings_.begin() + hi, target,
        [](const Ref& r, int32_t t) { return PostingTable(r) < t; });
    pos_ = static_cast<size_t>(it - postings_.begin());
  }

  /// Returns the run of postings sharing the current table and advances
  /// past it. Runs are short (bounded by a table's columns / annotated
  /// pairs), so the scan is linear.
  std::span<const Ref> TakeRun() {
    const size_t begin = pos_;
    const int32_t t = table();
    while (pos_ < postings_.size() &&
           PostingTable(postings_[pos_]) == t) {
      ++pos_;
    }
    return postings_.subspan(begin, pos_ - begin);
  }

 private:
  std::span<const Ref> postings_;
  size_t pos_ = 0;
};

/// Leapfrog intersection by table over two sorted posting lists. Calls
/// `fn(table, run_a, run_b)` for every table present in both, in
/// ascending table order (the order every engine scores in, so full-rank
/// results stay byte-identical to the pre-cursor implementation).
template <typename RefA, typename RefB, typename Fn>
void IntersectByTable(std::span<const RefA> a, std::span<const RefB> b,
                      Fn&& fn) {
  PostingCursor<RefA> ca(a);
  PostingCursor<RefB> cb(b);
  while (!ca.done() && !cb.done()) {
    const int32_t ta = ca.table();
    const int32_t tb = cb.table();
    if (ta < tb) {
      ca.SeekTable(tb);
    } else if (tb < ta) {
      cb.SeekTable(ta);
    } else {
      fn(ta, ca.TakeRun(), cb.TakeRun());
    }
  }
}

}  // namespace search_internal
}  // namespace webtab

#endif  // WEBTAB_SEARCH_POSTING_CURSOR_H_
