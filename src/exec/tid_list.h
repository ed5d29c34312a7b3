#ifndef WEBTAB_EXEC_TID_LIST_H_
#define WEBTAB_EXEC_TID_LIST_H_

#include <array>
#include <cstdint>

#include "common/logging.h"

namespace webtab {
namespace exec {

/// Batches hold at most this many lanes. 1024 keeps every lane array
/// comfortably inside L1/L2 while amortizing per-batch fixed costs.
inline constexpr uint32_t kBatchSize = 1024;

/// Sparse selection vector over one batch: the ascending list of lane
/// indices ("tids") still active. Fixed capacity kBatchSize, inline
/// storage — a TidList never allocates.
///
/// Producers compact with the store-always / advance-conditionally
/// idiom: write every candidate lane at the cursor through
/// mutable_data(), advance the cursor by the predicate's 0/1 value,
/// then SetSize. A pass costs one predictable loop however the
/// predicate's outcomes are distributed, and preserves ascending order,
/// which downstream scan loops (and so double summation order) rely on.
class TidList {
 public:
  uint32_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  uint32_t operator[](uint32_t i) const { return tids_[i]; }

  /// Raw write access for producers that compact parallel value lanes
  /// alongside the tid lane (store-always into both, then SetSize).
  uint32_t* mutable_data() { return tids_.data(); }
  void SetSize(uint32_t n) {
    WEBTAB_CHECK(n <= kBatchSize) << "batch overflow: " << n;
    size_ = n;
  }

 private:
  uint32_t size_ = 0;
  std::array<uint32_t, kBatchSize> tids_;
};

}  // namespace exec
}  // namespace webtab

#endif  // WEBTAB_EXEC_TID_LIST_H_
