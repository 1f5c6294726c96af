// Flags shared by every bench binary.
//
// Defaults are CI-scale: a fraction of a second per algorithm run (a modern
// core is roughly three orders of magnitude faster than the paper's AMD K6
// 450 MHz, so sub-second budgets already exceed the paper's effective
// search effort; see DESIGN.md section 3). `--paper` restores the literal
// protocol: 90 s per run, 10 runs per instance.
#pragma once

#include <cstdint>
#include <string>

#include "common/cli.h"

namespace gridsched {

struct BenchArgs {
  int runs = 3;
  double time_ms = 5'000.0;
  int jobs = 512;
  int machines = 16;
  std::uint64_t seed = 20070325;  // IPDPS 2007, 25-29 March
  std::string csv_dir;            // empty = no CSV dumps
  int threads = 0;                // 0 = hardware concurrency
  bool paper = false;
  /// Evaluation budget per run (0 = wall clock only). Setting it makes
  /// every run a pure function of its seed — what the CI gap gate records
  /// in its baseline so foreign runner speed cannot move the verdicts.
  std::int64_t evals = 0;
  /// Report optimality gaps against the makespan lower bound
  /// (bounds/lower_bound.h). Implied by --json.
  bool gap = false;
  /// BENCH_*.json verdict report path (empty = none).
  std::string json;

  /// Registers the shared flags on a parser.
  static void register_flags(CliParser& cli);

  /// Reads the shared flags back; applies --paper overrides (90 s, 10 runs).
  static BenchArgs from_cli(const CliParser& cli);
};

}  // namespace gridsched
