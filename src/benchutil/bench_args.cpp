#include "benchutil/bench_args.h"

namespace gridsched {

void BenchArgs::register_flags(CliParser& cli) {
  const BenchArgs defaults;
  cli.flag("runs", std::to_string(defaults.runs),
           "independent runs per configuration (best/mean/stddev reported)");
  cli.flag("time-ms", std::to_string(static_cast<int>(defaults.time_ms)),
           "wall-clock budget per run, in milliseconds");
  cli.flag("jobs", std::to_string(defaults.jobs), "jobs per instance");
  cli.flag("machines", std::to_string(defaults.machines),
           "machines per instance");
  cli.flag("seed", std::to_string(defaults.seed), "base RNG seed");
  cli.flag("csv-dir", "", "directory for CSV dumps (empty = none)");
  cli.flag("threads", "0",
           "thread-pool size for independent runs (0 = hardware)");
  cli.flag("paper", "false",
           "use the paper's protocol: 90 s per run, 10 runs per instance");
  cli.flag("evals", "0",
           "evaluation budget per run (0 = none; makes runs a pure "
           "function of the seed, independent of machine speed)");
  cli.flag("gap", "false",
           "report optimality gaps vs the makespan lower bound");
  cli.flag("json", "", "write a BENCH_*.json verdict report (implies --gap)");
}

BenchArgs BenchArgs::from_cli(const CliParser& cli) {
  BenchArgs args;
  args.runs = static_cast<int>(cli.get_int("runs"));
  args.time_ms = cli.get_double("time-ms");
  args.jobs = static_cast<int>(cli.get_int("jobs"));
  args.machines = static_cast<int>(cli.get_int("machines"));
  args.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  args.csv_dir = cli.get("csv-dir");
  args.threads = static_cast<int>(cli.get_int("threads"));
  args.paper = cli.get_bool("paper");
  args.evals = cli.get_int("evals");
  args.json = cli.get("json");
  args.gap = cli.get_bool("gap") || !args.json.empty();
  if (args.paper) {
    args.time_ms = 90'000.0;
    args.runs = 10;
  }
  return args;
}

}  // namespace gridsched
