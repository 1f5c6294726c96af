// perfbench — the repository benchmark (see perfbench/README.md).
//
//   perfbench --workload <paper-batch|swf-stream|burst-churn> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-file <path>]
//
// Prints each rep's solve_s and every failed check, then, as the last line
// of standard output, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ...,
//    "metrics": {"<name>": {"value": ..., "samples": ...}, ...}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// run.py checks the names against BENCHMARK.json and adds the units.
// Exits 2 on a usage error and 1 when the run itself fails, printing no
// result in either case.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <stdexcept>
#include <string>

#include "runner.h"

namespace {

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "perfbench: " << error
            << "\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-file <path>]\nworkloads:";
  for (const std::string& name : perfbench::workload_names()) {
    std::cerr << ' ' << name;
  }
  std::cerr << '\n';
  std::exit(2);
}

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options options;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[i + 1];
    try {
      std::size_t used = 0;
      if (flag == "--workload") {
        options.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        if (value.empty() || value[0] == '-') usage("bad --seed " + value);
        options.seed = std::stoull(value, &used);
        have_seed = used == value.size();
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value, &used);
        have_seconds = used == value.size() && options.seconds > 0.0;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        options.trace = value == "1";
        have_trace = true;
      } else if (flag == "--trace-file") {
        options.trace_file = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  bool known = false;
  for (const std::string& name : perfbench::workload_names()) {
    known = known || name == options.workload;
  }
  if (!known) usage("unknown workload " + options.workload);
  return options;
}

void print(const perfbench::Options& options,
           const perfbench::Outcome& outcome) {
  std::printf("workload %s seed %llu trace %d\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              options.trace ? 1 : 0);
  std::printf("  solve_s per rep:");
  for (const double solve_s : outcome.rep_solve_s) {
    std::printf(" %.4f", solve_s);
  }
  std::printf("\n");
  for (const std::string& error : outcome.errors) {
    std::printf("  FAILED: %s\n", error.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": {",
              outcome.correct ? "true" : "false", outcome.attempted,
              outcome.failed);
  for (std::size_t i = 0; i < outcome.metrics.size(); ++i) {
    const perfbench::Metric& metric = outcome.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"samples\": %zu}",
                i == 0 ? "" : ", ", metric.name.c_str(), metric.value,
                metric.samples);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Options options = parse(argc, argv);
  try {
    print(options, perfbench::run(options));
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << '\n';
    return 1;
  }
  return 0;
}
