#ifndef WEBTAB_EXEC_BIT_VECTOR_H_
#define WEBTAB_EXEC_BIT_VECTOR_H_

#include <cstdint>
#include <cstring>
#include <vector>

namespace webtab {
namespace exec {

/// Word-at-a-time bit vector holding one verdict bit per lane:
/// producers write each bit without branching (Assign), consumers Test
/// it.
///
/// Storage grows monotonically and is reused; Resize only allocates
/// past the high-water mark, so steady-state use performs no
/// allocations.
class BitVector {
 public:
  /// Sets the logical size to `num_bits` with all bits clear.
  void Resize(uint32_t num_bits) {
    const size_t words = (static_cast<size_t>(num_bits) + 63) / 64;
    // memset needs a non-null pointer even for zero bytes, and a vector
    // that never grew has data() == nullptr.
    if (words == 0) return;
    if (words_.size() < words) words_.resize(words, 0);
    std::memset(words_.data(), 0, words * sizeof(uint64_t));
  }

  bool Test(uint32_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }

  /// Branch-free conditional set: ORs `cond` into bit i, so on a bit
  /// still clear since Resize it writes bit i = cond.
  void Assign(uint32_t i, bool cond) {
    words_[i >> 6] |= static_cast<uint64_t>(cond) << (i & 63);
  }

 private:
  std::vector<uint64_t> words_;
};

}  // namespace exec
}  // namespace webtab

#endif  // WEBTAB_EXEC_BIT_VECTOR_H_
