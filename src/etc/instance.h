// Braun-et-al.-style benchmark instance specification and generator.
//
// The paper evaluates on the 12-class benchmark of Braun et al. (JPDC 2001):
// `u_x_yyzz.k` where x in {c,i,s} is the consistency class, yy/zz in
// {hi,lo} are job and machine heterogeneity, all 512 jobs x 16 machines,
// entries drawn with the range-based method under a uniform distribution.
//
// The original data files are not redistributable, so this module implements
// the same generative process (DESIGN.md section 3): a canonical instance of
// each class is obtained with a fixed per-class seed, playing the role of
// the `.0` file of that class.
#pragma once

#include <array>
#include <optional>
#include <string>

#include "common/rng.h"
#include "etc/etc_matrix.h"

namespace gridsched {

/// ETC consistency class (Braun et al. section on matrix structure).
enum class Consistency {
  kConsistent,      // machine that is faster for one job is faster for all
  kInconsistent,    // no structure
  kSemiConsistent,  // a consistent sub-matrix (even-indexed columns)
};

/// Heterogeneity level of the job or machine dimension.
enum class Heterogeneity { kLow, kHigh };

/// Upper bounds of the uniform ranges in the range-based method.
/// Braun et al.: job baseline ~ U(1, phi_b), column multiplier ~ U(1, phi_r).
[[nodiscard]] constexpr double job_range_bound(Heterogeneity h) noexcept {
  return h == Heterogeneity::kHigh ? 3000.0 : 100.0;
}
[[nodiscard]] constexpr double machine_range_bound(Heterogeneity h) noexcept {
  return h == Heterogeneity::kHigh ? 1000.0 : 10.0;
}

/// One-letter class code used in instance labels: 'c', 'i' or 's'.
[[nodiscard]] char consistency_code(Consistency c) noexcept;

/// Imposes a consistency class on a freshly drawn matrix, in place:
/// consistent sorts every row ascending, semi-consistent sorts each row's
/// even-indexed columns, inconsistent leaves the draws as they are. The
/// post-pass both the range-based and the CVB generator apply.
void impose_consistency(EtcMatrix& etc, Consistency consistency);

/// Full description of one benchmark instance.
struct InstanceSpec {
  int num_jobs = 512;
  int num_machines = 16;
  Consistency consistency = Consistency::kConsistent;
  Heterogeneity job_heterogeneity = Heterogeneity::kHigh;
  Heterogeneity machine_heterogeneity = Heterogeneity::kHigh;
  std::uint64_t seed = 0;  // 0 means "derive from the class name"

  /// Braun-style label, e.g. "u_c_hihi.0". The trailing index is always 0
  /// for canonical instances; `k` tags re-sampled replicas.
  [[nodiscard]] std::string name(int k = 0) const;
};

/// Parses a Braun-style label ("u_c_hihi.0", "u_s_lohi.3") into a spec with
/// the default 512x16 shape. Returns nullopt if the label is malformed.
[[nodiscard]] std::optional<InstanceSpec> parse_instance_name(
    const std::string& label);

/// The 12 canonical benchmark classes in the paper's table order:
/// consistent, inconsistent, semi-consistent x {hihi, hilo, lohi, lolo}.
[[nodiscard]] std::array<InstanceSpec, 12> braun_benchmark_suite();

/// Generates the ETC matrix for a spec. Deterministic: the same spec always
/// yields the same matrix. Ready times are zero (batch of fresh machines),
/// matching the benchmark; dynamic scenarios set them afterwards.
[[nodiscard]] EtcMatrix generate_instance(const InstanceSpec& spec);

/// Same, with an explicit replica index k (k = 0 is the canonical instance).
[[nodiscard]] EtcMatrix generate_instance(const InstanceSpec& spec, int k);

}  // namespace gridsched
