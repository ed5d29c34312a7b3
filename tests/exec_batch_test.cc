// Tests for the vectorized batch execution layer (src/exec): BitVector
// verdict-lane semantics — branch-free Assign, and Resize clearing stale
// bits on reuse. The engines that run on it are checked against the
// reference engines in search_equivalence_test.
#include <gtest/gtest.h>

#include "exec/bit_vector.h"

namespace webtab {
namespace {

using exec::BitVector;

TEST(BitVectorTest, AssignIsBranchFreeConditionalSet) {
  BitVector bits;
  bits.Resize(130);
  for (uint32_t i = 0; i < 130; ++i) bits.Assign(i, i % 3 == 0);
  for (uint32_t i = 0; i < 130; ++i) {
    EXPECT_EQ(bits.Test(i), i % 3 == 0) << i;
  }
  // Resize reuses storage but must clear stale bits.
  bits.Resize(130);
  for (uint32_t i = 0; i < 130; ++i) EXPECT_FALSE(bits.Test(i)) << i;
}

}  // namespace
}  // namespace webtab
