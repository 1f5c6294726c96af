#include "etc/cvb_instance.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/stats.h"

namespace gridsched {
namespace {

TEST(CvbInstance, ShapeAndPositivity) {
  CvbInstanceSpec spec;
  spec.num_jobs = 64;
  spec.num_machines = 8;
  const EtcMatrix etc = generate_cvb_instance(spec);
  EXPECT_EQ(etc.num_jobs(), 64);
  EXPECT_EQ(etc.num_machines(), 8);
  for (double v : etc.raw()) ASSERT_GT(v, 0.0);
}

TEST(CvbInstance, DeterministicInSpec) {
  CvbInstanceSpec spec;
  spec.num_jobs = 32;
  spec.num_machines = 4;
  const EtcMatrix a = generate_cvb_instance(spec);
  const EtcMatrix b = generate_cvb_instance(spec);
  for (std::size_t i = 0; i < a.raw().size(); ++i) {
    ASSERT_EQ(a.raw()[i], b.raw()[i]);
  }
  spec.seed = 2;
  const EtcMatrix c = generate_cvb_instance(spec);
  EXPECT_NE(a(0, 0), c(0, 0));
}

TEST(CvbInstance, GrandMeanTracksTaskMean) {
  CvbInstanceSpec spec;
  spec.num_jobs = 2'000;
  spec.num_machines = 16;
  spec.consistency = Consistency::kInconsistent;
  spec.task_mean = 1'000.0;
  const EtcMatrix etc = generate_cvb_instance(spec);
  const double grand_mean =
      etc.total() / static_cast<double>(etc.num_jobs() * etc.num_machines());
  EXPECT_NEAR(grand_mean, 1'000.0, 60.0);  // CV 0.9 over 32k samples
}

TEST(CvbInstance, TaskCvControlsRowSpread) {
  auto row_mean_cv = [](const EtcMatrix& etc) {
    RunningStats stats;
    for (JobId j = 0; j < etc.num_jobs(); ++j) stats.add(etc.mean_row(j));
    return stats.cv();
  };
  CvbInstanceSpec hi;
  hi.num_jobs = 1'500;
  hi.num_machines = 8;
  hi.consistency = Consistency::kInconsistent;
  hi.v_task = 0.9;
  hi.v_machine = 0.3;
  CvbInstanceSpec lo = hi;
  lo.v_task = 0.1;
  const double cv_hi = row_mean_cv(generate_cvb_instance(hi));
  const double cv_lo = row_mean_cv(generate_cvb_instance(lo));
  EXPECT_GT(cv_hi, 3.0 * cv_lo);
  EXPECT_NEAR(cv_lo, 0.1, 0.05);
}

TEST(CvbInstance, MachineCvControlsWithinRowSpread) {
  auto within_row_cv = [](const EtcMatrix& etc) {
    double total = 0.0;
    for (JobId j = 0; j < etc.num_jobs(); ++j) {
      RunningStats stats;
      for (double v : etc.row(j)) stats.add(v);
      total += stats.cv();
    }
    return total / etc.num_jobs();
  };
  CvbInstanceSpec hi;
  hi.num_jobs = 400;
  hi.num_machines = 32;
  hi.consistency = Consistency::kInconsistent;
  hi.v_task = 0.3;
  hi.v_machine = 0.9;
  CvbInstanceSpec lo = hi;
  lo.v_machine = 0.1;
  EXPECT_GT(within_row_cv(generate_cvb_instance(hi)),
            3.0 * within_row_cv(generate_cvb_instance(lo)));
}

TEST(CvbInstance, ConsistencyPostPassApplies) {
  CvbInstanceSpec spec;
  spec.num_jobs = 100;
  spec.num_machines = 8;
  spec.consistency = Consistency::kConsistent;
  const EtcMatrix etc = generate_cvb_instance(spec);
  for (JobId j = 0; j < etc.num_jobs(); ++j) {
    for (MachineId m = 0; m + 1 < etc.num_machines(); ++m) {
      ASSERT_LE(etc(j, m), etc(j, m + 1));
    }
  }
}

TEST(CvbInstance, SemiConsistentEvenColumnsSorted) {
  CvbInstanceSpec spec;
  spec.num_jobs = 100;
  spec.num_machines = 8;
  spec.consistency = Consistency::kSemiConsistent;
  const EtcMatrix etc = generate_cvb_instance(spec);
  for (JobId j = 0; j < etc.num_jobs(); ++j) {
    for (MachineId m = 0; m + 2 < etc.num_machines(); m += 2) {
      ASSERT_LE(etc(j, m), etc(j, m + 2));
    }
  }
}

TEST(CvbInstance, NameEncodesParameters) {
  CvbInstanceSpec spec;
  spec.consistency = Consistency::kSemiConsistent;
  spec.v_task = 0.9;
  spec.v_machine = 0.1;
  EXPECT_EQ(spec.name(), "cvb_s_90_10");
  // 0.29 * 100 and 0.57 * 100 land just below the integer in binary.
  spec.v_task = 0.29;
  spec.v_machine = 0.57;
  EXPECT_EQ(spec.name(), "cvb_s_29_57");
}

TEST(CvbInstance, RejectsBadParameters) {
  CvbInstanceSpec bad;
  bad.task_mean = 0.0;
  EXPECT_THROW((void)generate_cvb_instance(bad), std::invalid_argument);
  CvbInstanceSpec bad2;
  bad2.v_task = -1.0;
  EXPECT_THROW((void)generate_cvb_instance(bad2), std::invalid_argument);
  CvbInstanceSpec bad3;
  bad3.num_jobs = 0;
  EXPECT_THROW((void)generate_cvb_instance(bad3), std::invalid_argument);
}

TEST(RngGamma, MeanAndVarianceMatchTheory) {
  Rng rng(7);
  const double shape = 4.0;
  const double scale = 2.5;
  RunningStats stats;
  for (int i = 0; i < 60'000; ++i) stats.add(rng.gamma(shape, scale));
  EXPECT_NEAR(stats.mean(), shape * scale, 0.1);           // 10
  EXPECT_NEAR(stats.variance(), shape * scale * scale, 1.0);  // 25
}

TEST(RngGamma, SmallShapeBranch) {
  Rng rng(11);
  const double shape = 0.5;
  const double scale = 3.0;
  RunningStats stats;
  for (int i = 0; i < 60'000; ++i) {
    const double v = rng.gamma(shape, scale);
    ASSERT_GT(v, 0.0);
    stats.add(v);
  }
  EXPECT_NEAR(stats.mean(), shape * scale, 0.1);
}

}  // namespace
}  // namespace gridsched
