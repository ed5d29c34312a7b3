#ifndef WEBTAB_EXEC_SCORE_BATCH_H_
#define WEBTAB_EXEC_SCORE_BATCH_H_

#include <array>
#include <string_view>

#include "catalog/ids.h"
#include "exec/tid_list.h"

namespace webtab {
namespace exec {

/// One fixed-capacity columnar batch of row-chunk scoring work. A
/// scorer gathers up to kBatchSize rows of one column into the
/// `entity` / `text` lanes, then compacts the rows that score into
/// `active`, with each survivor's row score at the same position of
/// `score` (score[j] belongs to lane active[j]).
///
/// All storage is inline and fixed, so a ScoreBatch never allocates:
/// the zero-steady-state-allocation contract of the kernels it backs.
/// Lanes a scorer does not fill carry stale values and are never read.
struct ScoreBatch {
  std::array<EntityId, kBatchSize> entity;
  std::array<double, kBatchSize> score;
  /// Gathered cell text (views into the corpus mapping, valid for the
  /// duration of the query like every other engine string_view).
  std::array<std::string_view, kBatchSize> text;
  /// Surviving lanes, ascending.
  TidList active;
};

}  // namespace exec
}  // namespace webtab

#endif  // WEBTAB_EXEC_SCORE_BATCH_H_
