#include "batch_check.h"

#include <vector>

#include "core/bounds.h"
#include "core/evaluator.h"
#include "heuristics/constructive.h"

namespace perfbench {

using gridsched::EtcMatrix;
using gridsched::Schedule;

namespace {

/// Rows of `etc` whose gene is a machine, as a standalone batch with the
/// same machines and ready times.
EtcMatrix accepted_rows(const EtcMatrix& etc, const Schedule& schedule,
                        int accepted, Schedule& sub_schedule) {
  const int machines = etc.num_machines();
  EtcMatrix sub(accepted, machines);
  sub_schedule = Schedule(accepted);
  int row = 0;
  for (int j = 0; j < etc.num_jobs(); ++j) {
    if (schedule[j] == Schedule::kRejected) continue;
    for (int m = 0; m < machines; ++m) sub.set(row, m, etc(j, m));
    sub_schedule[row] = schedule[j];
    ++row;
  }
  for (int m = 0; m < machines; ++m) sub.set_ready_time(m, etc.ready_time(m));
  return sub;
}

}  // namespace

BatchQuality check_batch(const EtcMatrix& etc, const Schedule& schedule,
                         bool allow_rejected, bool with_reference) {
  BatchQuality quality;
  if (schedule.num_jobs() != etc.num_jobs()) {
    quality.error = "schedule covers " + std::to_string(schedule.num_jobs()) +
                    " rows of a " + std::to_string(etc.num_jobs()) +
                    "-row batch";
    return quality;
  }
  for (int j = 0; j < etc.num_jobs(); ++j) {
    const int gene = schedule[j];
    if (gene >= 0 && gene < etc.num_machines()) {
      ++quality.accepted;
    } else if (allow_rejected && gene == Schedule::kRejected) {
      ++quality.rejected;
    } else {
      quality.error = "row " + std::to_string(j) + " has gene " +
                      std::to_string(gene) + " outside the batch's " +
                      std::to_string(etc.num_machines()) + " machines";
      return quality;
    }
  }
  if (quality.accepted == 0) return quality;

  Schedule sub_schedule;
  const EtcMatrix sub =
      quality.rejected == 0
          ? EtcMatrix()
          : accepted_rows(etc, schedule, quality.accepted, sub_schedule);
  const EtcMatrix& batch = quality.rejected == 0 ? etc : sub;
  const Schedule& placed = quality.rejected == 0 ? schedule : sub_schedule;

  gridsched::ScheduleEvaluator evaluator(batch);
  evaluator.reset(placed);
  quality.makespan = evaluator.makespan();
  quality.flowtime = evaluator.flowtime();
  quality.makespan_bound = gridsched::makespan_lower_bound(batch);
  quality.flowtime_bound = gridsched::flowtime_lower_bound(batch);
  // The floors are sums of the same ETC entries in another order, so
  // allow for rounding, nothing more.
  constexpr double kSlack = 1e-9;
  if (quality.makespan < quality.makespan_bound * (1.0 - kSlack)) {
    quality.error = "makespan below its certified bound";
  } else if (quality.flowtime < quality.flowtime_bound * (1.0 - kSlack)) {
    quality.error = "flowtime below its certified bound";
  }
  if (with_reference) {
    evaluator.reset(gridsched::ljfr_sjfr(batch));
    quality.reference_makespan = evaluator.makespan();
    quality.reference_flowtime = evaluator.flowtime();
  }
  return quality;
}

}  // namespace perfbench
