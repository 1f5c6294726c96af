#include "sim/batch_scheduler.h"

#include <numeric>

namespace gridsched {

BatchContext BatchContext::identity(const EtcMatrix& etc,
                                    std::uint64_t activation) {
  BatchContext ctx;
  ctx.job_ids.resize(static_cast<std::size_t>(etc.num_jobs()));
  std::iota(ctx.job_ids.begin(), ctx.job_ids.end(), 0);
  ctx.machine_ids.resize(static_cast<std::size_t>(etc.num_machines()));
  std::iota(ctx.machine_ids.begin(), ctx.machine_ids.end(), 0);
  ctx.activation = activation;
  return ctx;
}

HeuristicBatchScheduler::HeuristicBatchScheduler(HeuristicKind kind,
                                                 std::uint64_t seed)
    : kind_(kind), rng_(seed) {}

std::string_view HeuristicBatchScheduler::name() const noexcept {
  return heuristic_name(kind_);
}

Schedule HeuristicBatchScheduler::schedule_batch(const EtcMatrix& etc) {
  return construct_schedule(kind_, etc, rng_);
}

}  // namespace gridsched
