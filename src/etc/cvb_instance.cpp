#include "etc/cvb_instance.h"

#include <cmath>
#include <stdexcept>

#include "common/rng.h"

namespace gridsched {

std::string CvbInstanceSpec::name() const {
  std::string label = "cvb_";
  label += consistency_code(consistency);
  label += '_' + std::to_string(std::lround(v_task * 100));
  label += '_' + std::to_string(std::lround(v_machine * 100));
  return label;
}

EtcMatrix generate_cvb_instance(const CvbInstanceSpec& spec) {
  if (spec.num_jobs <= 0 || spec.num_machines <= 0) {
    throw std::invalid_argument("generate_cvb_instance: bad shape");
  }
  if (spec.task_mean <= 0 || spec.v_task <= 0 || spec.v_machine <= 0) {
    throw std::invalid_argument(
        "generate_cvb_instance: mean and CVs must be positive");
  }
  Rng rng(spec.seed);

  const double alpha_task = 1.0 / (spec.v_task * spec.v_task);
  const double beta_task = spec.task_mean / alpha_task;
  const double alpha_mach = 1.0 / (spec.v_machine * spec.v_machine);

  EtcMatrix etc(spec.num_jobs, spec.num_machines);
  for (JobId j = 0; j < spec.num_jobs; ++j) {
    const double q = rng.gamma(alpha_task, beta_task);
    const double beta_mach = q / alpha_mach;
    for (MachineId m = 0; m < spec.num_machines; ++m) {
      etc.set(j, m, rng.gamma(alpha_mach, beta_mach));
    }
  }

  impose_consistency(etc, spec.consistency);
  return etc;
}

}  // namespace gridsched
