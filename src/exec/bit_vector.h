#ifndef WEBTAB_EXEC_BIT_VECTOR_H_
#define WEBTAB_EXEC_BIT_VECTOR_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <vector>

namespace webtab {
namespace exec {

/// Word-at-a-time bit vector — the dense half of the selection-vector
/// pair (TidList is the sparse half). Predicates write one bit per lane
/// without branching (Assign), and consumers walk set bits with a
/// count-trailing-zeros loop, so filtering cost scales with words plus
/// matches, not with lanes.
///
/// Storage grows monotonically and is reused across batches; Resize
/// only allocates past the high-water mark, so steady-state batch
/// filtering performs no allocations.
class BitVector {
 public:
  BitVector() = default;
  explicit BitVector(uint32_t num_bits) { Resize(num_bits); }

  /// Sets the logical size to `num_bits` with all bits clear. Tail bits
  /// of the last word stay zero — every whole-word operation below
  /// relies on that invariant.
  void Resize(uint32_t num_bits) {
    num_bits_ = num_bits;
    const size_t words = NumWords();
    // memset needs a non-null pointer even for zero bytes, and a vector
    // that never grew has data() == nullptr.
    if (words == 0) return;
    if (words_.size() < words) words_.resize(words, 0);
    std::memset(words_.data(), 0, words * sizeof(uint64_t));
  }

  uint32_t num_bits() const { return num_bits_; }
  size_t NumWords() const { return (num_bits_ + 63) / 64; }

  bool Test(uint32_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }
  void Set(uint32_t i) { words_[i >> 6] |= uint64_t{1} << (i & 63); }
  void Clear(uint32_t i) { words_[i >> 6] &= ~(uint64_t{1} << (i & 63)); }

  /// Branch-free conditional set: writes bit i = cond without a branch
  /// (the predicate-lane idiom — evaluate the condition as 0/1, OR it
  /// into place).
  void Assign(uint32_t i, bool cond) {
    words_[i >> 6] |= static_cast<uint64_t>(cond) << (i & 63);
  }

  void SetAll() {
    const size_t words = NumWords();
    if (words == 0) return;
    std::memset(words_.data(), 0xff, words * sizeof(uint64_t));
    // Keep tail bits zero (the whole-word invariant).
    const uint32_t tail = num_bits_ & 63;
    if (tail != 0) words_[words - 1] = (uint64_t{1} << tail) - 1;
  }

  uint32_t CountOnes() const {
    uint32_t n = 0;
    const size_t words = NumWords();
    for (size_t w = 0; w < words; ++w) {
      n += static_cast<uint32_t>(std::popcount(words_[w]));
    }
    return n;
  }

  void And(const BitVector& other) {
    const size_t words = NumWords();
    for (size_t w = 0; w < words; ++w) words_[w] &= other.words_[w];
  }
  void Or(const BitVector& other) {
    const size_t words = NumWords();
    for (size_t w = 0; w < words; ++w) words_[w] |= other.words_[w];
  }

  /// Visits set bits in ascending order: one ctz per match plus one
  /// load per word. Ascending order is load-bearing — the search
  /// kernel's scan order (and so double summation order) follows it.
  template <typename Fn>
  void ForEachSetBit(Fn&& fn) const {
    const size_t words = NumWords();
    for (size_t w = 0; w < words; ++w) {
      uint64_t word = words_[w];
      while (word != 0) {
        const int bit = std::countr_zero(word);
        fn(static_cast<uint32_t>(w * 64 + bit));
        word &= word - 1;
      }
    }
  }

  const uint64_t* words() const { return words_.data(); }

 private:
  uint32_t num_bits_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace exec
}  // namespace webtab

#endif  // WEBTAB_EXEC_BIT_VECTOR_H_
