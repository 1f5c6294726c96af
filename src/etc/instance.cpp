#include "etc/instance.h"

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace gridsched {
namespace {

std::string heterogeneity_code(Heterogeneity h) {
  return h == Heterogeneity::kHigh ? "hi" : "lo";
}

/// Stable 64-bit hash of the class identity, used to derive per-class seeds
/// so that "the canonical u_c_hihi.0" is the same matrix in every binary.
std::uint64_t class_seed(const InstanceSpec& spec, int k) {
  std::uint64_t h = 0x6a09e667f3bcc908ULL;
  auto mix = [&h](std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    h = splitmix64(h);
  };
  mix(static_cast<std::uint64_t>(spec.num_jobs));
  mix(static_cast<std::uint64_t>(spec.num_machines));
  mix(static_cast<std::uint64_t>(consistency_code(spec.consistency)));
  mix(spec.job_heterogeneity == Heterogeneity::kHigh ? 2u : 1u);
  mix(spec.machine_heterogeneity == Heterogeneity::kHigh ? 2u : 1u);
  mix(static_cast<std::uint64_t>(k));
  return h;
}

}  // namespace

char consistency_code(Consistency c) noexcept {
  switch (c) {
    case Consistency::kConsistent: return 'c';
    case Consistency::kInconsistent: return 'i';
    case Consistency::kSemiConsistent: return 's';
  }
  return '?';
}

void impose_consistency(EtcMatrix& etc, Consistency consistency) {
  if (consistency == Consistency::kConsistent) {
    std::vector<double> row(static_cast<std::size_t>(etc.num_machines()));
    for (JobId j = 0; j < etc.num_jobs(); ++j) {
      for (MachineId m = 0; m < etc.num_machines(); ++m) {
        row[static_cast<std::size_t>(m)] = etc(j, m);
      }
      std::sort(row.begin(), row.end());
      for (MachineId m = 0; m < etc.num_machines(); ++m) {
        etc.set(j, m, row[static_cast<std::size_t>(m)]);
      }
    }
  } else if (consistency == Consistency::kSemiConsistent) {
    // Even-indexed columns form the consistent sub-matrix.
    std::vector<double> evens;
    for (JobId j = 0; j < etc.num_jobs(); ++j) {
      evens.clear();
      for (MachineId m = 0; m < etc.num_machines(); m += 2) {
        evens.push_back(etc(j, m));
      }
      std::sort(evens.begin(), evens.end());
      std::size_t idx = 0;
      for (MachineId m = 0; m < etc.num_machines(); m += 2) {
        etc.set(j, m, evens[idx++]);
      }
    }
  }
}

std::string InstanceSpec::name(int k) const {
  std::string label = "u_";
  label += consistency_code(consistency);
  label += '_';
  label += heterogeneity_code(job_heterogeneity);
  label += heterogeneity_code(machine_heterogeneity);
  label += '.';
  label += std::to_string(k);
  return label;
}

std::optional<InstanceSpec> parse_instance_name(const std::string& label) {
  // Expected shape: u_<c|i|s>_<hi|lo><hi|lo>.<k>
  if (label.size() < 10 || label.rfind("u_", 0) != 0 || label[3] != '_') {
    return std::nullopt;
  }
  InstanceSpec spec;
  switch (label[2]) {
    case 'c': spec.consistency = Consistency::kConsistent; break;
    case 'i': spec.consistency = Consistency::kInconsistent; break;
    case 's': spec.consistency = Consistency::kSemiConsistent; break;
    default: return std::nullopt;
  }
  const std::string jobs_code = label.substr(4, 2);
  const std::string machines_code = label.substr(6, 2);
  auto parse_het = [](const std::string& code) -> std::optional<Heterogeneity> {
    if (code == "hi") return Heterogeneity::kHigh;
    if (code == "lo") return Heterogeneity::kLow;
    return std::nullopt;
  };
  const auto job_het = parse_het(jobs_code);
  const auto machine_het = parse_het(machines_code);
  if (!job_het || !machine_het || label[8] != '.') return std::nullopt;
  for (std::size_t i = 9; i < label.size(); ++i) {
    if (label[i] < '0' || label[i] > '9') return std::nullopt;
  }
  spec.job_heterogeneity = *job_het;
  spec.machine_heterogeneity = *machine_het;
  return spec;
}

std::array<InstanceSpec, 12> braun_benchmark_suite() {
  std::array<InstanceSpec, 12> suite;
  int idx = 0;
  for (Consistency c : {Consistency::kConsistent, Consistency::kInconsistent,
                        Consistency::kSemiConsistent}) {
    for (auto [job_h, mach_h] :
         {std::pair{Heterogeneity::kHigh, Heterogeneity::kHigh},
          std::pair{Heterogeneity::kHigh, Heterogeneity::kLow},
          std::pair{Heterogeneity::kLow, Heterogeneity::kHigh},
          std::pair{Heterogeneity::kLow, Heterogeneity::kLow}}) {
      suite[static_cast<std::size_t>(idx)] = InstanceSpec{
          .consistency = c, .job_heterogeneity = job_h,
          .machine_heterogeneity = mach_h};
      ++idx;
    }
  }
  // Reorder within each consistency block to the paper's hihi, hilo, lohi,
  // lolo sequence (already the pair order above) -- nothing further to do.
  return suite;
}

EtcMatrix generate_instance(const InstanceSpec& spec) {
  return generate_instance(spec, 0);
}

EtcMatrix generate_instance(const InstanceSpec& spec, int k) {
  if (spec.num_jobs <= 0 || spec.num_machines <= 0) {
    throw std::invalid_argument("generate_instance: bad shape");
  }
  const std::uint64_t seed =
      spec.seed != 0 ? spec.seed + static_cast<std::uint64_t>(k)
                     : class_seed(spec, k);
  Rng rng(seed);

  const double phi_job = job_range_bound(spec.job_heterogeneity);
  const double phi_mach = machine_range_bound(spec.machine_heterogeneity);

  EtcMatrix etc(spec.num_jobs, spec.num_machines);
  // Range-based method: baseline vector B(i) ~ U(1, phi_job); each row is
  // B(i) scaled by independent machine factors U(1, phi_mach).
  for (JobId j = 0; j < spec.num_jobs; ++j) {
    const double baseline = rng.uniform(1.0, phi_job);
    for (MachineId m = 0; m < spec.num_machines; ++m) {
      etc.set(j, m, baseline * rng.uniform(1.0, phi_mach));
    }
  }

  impose_consistency(etc, spec.consistency);
  return etc;
}

}  // namespace gridsched
