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

}  // namespace gridsched
