// Output checks for one scheduled batch.
//
// Every schedule the benchmark sees — each search result in paper-batch,
// each service activation in the replays — goes through check_batch: the
// schedule must cover every row of the batch with a machine of the batch
// (or, where admission control is on, an explicit rejection), and its
// makespan and flowtime may not fall below the certified floors of
// core/bounds.h. The same pass can measure the schedule against
// LJFR-SJFR on the same rows (the paper's Table 4 comparison).
#pragma once

#include <string>

#include "core/schedule.h"
#include "etc/etc_matrix.h"

namespace perfbench {

struct BatchQuality {
  /// Empty when the schedule passed every check; otherwise what failed.
  std::string error;
  int accepted = 0;  // rows placed on a machine
  int rejected = 0;  // rows rejected by admission control
  /// Objectives of the accepted rows (ready times included).
  double makespan = 0.0;
  double flowtime = 0.0;
  /// Certified floors on the accepted rows (core/bounds.h).
  double makespan_bound = 0.0;
  double flowtime_bound = 0.0;
  /// LJFR-SJFR objectives on the accepted rows (0 when not requested).
  double reference_makespan = 0.0;
  double reference_flowtime = 0.0;

  [[nodiscard]] bool ok() const noexcept { return error.empty(); }
};

/// Checks `schedule` against `etc`. `allow_rejected` admits
/// Schedule::kRejected genes; `with_reference` also runs LJFR-SJFR.
[[nodiscard]] BatchQuality check_batch(const gridsched::EtcMatrix& etc,
                                       const gridsched::Schedule& schedule,
                                       bool allow_rejected,
                                       bool with_reference);

}  // namespace perfbench
