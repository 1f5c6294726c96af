#include "runner.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <thread>

#include "core/evaluator.h"
#include "etc/instance.h"
#include "heuristics/constructive.h"
#include "measure.h"

namespace perfbench {

namespace {

// Before every measured rep, set-up repeats until kSetupSecondsPerRep are
// spent (at least once, at most kMaxSetupsPerRep times). Spreading the
// samples over the whole run lets the median see the same host as the
// reps do: the host's speed switches between phases of a fraction of a
// second to minutes, and swf-stream's set-up read ~35 ms in one and
// ~60 ms in the other. These set-ups build a second copy of the
// workload's inputs, so the reps keep the inputs they started with
// (rebuilding the reps' own inputs between reps slowed paper-batch's reps
// by 5-12%).
constexpr double kSetupSecondsPerRep = 0.1;
constexpr std::size_t kMaxSetupsPerRep = 100;
constexpr std::size_t kMinReps = 2;
constexpr std::size_t kMaxReps = 64;

// The metric names this binary computes. BENCHMARK.json is the single
// source of names and units: run.py fails a run whose names differ from it.
constexpr const char* kEndToEnd[] = {
    "setup_s",          "solve_s",           "peak_rss_mb",
    "jobs_per_s",       "activation_ms_p50", "activation_ms_p95",
    "makespan_ratio",   "flowtime_ratio",    "mean_flowtime_s",
    "flowtime_p99_s",   "deadline_met_pct",  "completed_pct",
};

constexpr const char* kMembers[] = {"mct",  "min-min", "strugglega",
                                    "lahc", "cma",     "cma-sync"};
constexpr const char* kSearchers[] = {"strugglega", "lahc", "cma",
                                      "cma-sync"};

std::vector<std::string> per_layer_names() {
  std::vector<std::string> names = {
      "etc.generate_ms",        "heuristics.ljfr_sjfr_ms",
      "heuristics.min_min_ms",  "core.preview_move_ns",
      "core.preview_swap_ns",   "core.apply_move_ns",
      "core.reset_to_us",       "cma.run_s",
      "cma.evals_per_s",        "cma.iterations",
      "ga.run_s",               "ga.evals_per_s",
      "bounds.cma_gap_pct",     "bounds.lp_s",
      "bounds.lp_pivots",       "bounds.lp_optimal_classes",
      "bounds.tableau_mb",      "workload.next_chunk_s",
      "workload.rows",          "workload.peak_buffered",
      "workload.generate_ms",   "sim.self_s",
      "sim.activations",        "sim.mean_batch_jobs",
      "sim.peak_resident_jobs", "sim.jobs_requeued",
      "service.activation_s",   "service.recorded_s",
      "service.unrecorded_s",   "service.race_s",
      "service.pool_busy_frac", "service.jobs_migrated",
      "service.jobs_stolen",    "service.jobs_rerouted",
      "service.resizes",        "portfolio.races",
  };
  for (const char* member : kMembers) {
    names.push_back(std::string("portfolio.") + member + ".ms_per_race");
    names.push_back(std::string("portfolio.") + member + ".win_pct");
  }
  for (const char* member : kSearchers) {
    names.push_back(std::string("portfolio.") + member + ".evals_per_s");
  }
  for (const char* name : {"qos.accepted", "qos.degraded", "qos.rejected",
                           "qos.pareto_activations", "trace_overhead_pct"}) {
    names.emplace_back(name);
  }
  return names;
}

std::unique_ptr<Workload> make_workload(const Options& options) {
  if (options.workload == "paper-batch") return make_paper_batch(options.seed);
  if (options.workload == "swf-stream") return make_swf_stream(options.seed);
  if (options.workload == "burst-churn") return make_burst_churn(options.seed);
  throw std::invalid_argument("unknown workload '" + options.workload + "'");
}

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

void fail(Outcome& out, std::string error) {
  out.errors.push_back(std::move(error));
  ++out.failed;
  out.correct = false;
}

/// Folds the reps' checks into the outcome; every rep after the first is
/// one more operation, failed when its outcomes differ from `reference`.
void tally(const std::vector<RepResult>& reps, const RepResult& reference,
           const char* what, Outcome& out) {
  for (std::size_t i = 0; i < reps.size(); ++i) {
    out.attempted += reps[i].checked;
    for (const std::string& error : reps[i].errors) fail(out, error);
    if (&reps[i] == &reference) continue;
    ++out.attempted;
    if (!bitwise_equal(reps[i].outcome, reference.outcome)) {
      fail(out, std::string("nondeterminism: ") + what + " rep " +
                    std::to_string(i) + " outcomes differ from the first");
    }
  }
}

/// Times set-ups of `workload` as the constants above say, each replacing
/// the inputs of the one before; the last one's are dropped too.
void timed_setups(Workload& workload, std::vector<double>& setup_s) {
  double spent = 0.0;
  for (std::size_t i = 0; i < kMaxSetupsPerRep && spent < kSetupSecondsPerRep;
       ++i) {
    workload.release_inputs();
    const double start = now_s();
    workload.setup(nullptr);
    setup_s.push_back(now_s() - start);
    spent += setup_s.back();
  }
  workload.release_inputs();
}

/// Runs reps until the next one would overrun the budget (at least
/// kMinReps); `before_rep`, when set, runs before every rep. `traced`
/// interleaves an untraced and a traced rep.
void run_reps(Workload& workload, double seconds, bool traced,
              const std::function<void()>& before_rep,
              std::vector<RepResult>& plain,
              std::vector<RepResult>& with_spans,
              std::vector<std::vector<Span>>& span_sets) {
  const double start = now_s();
  while (true) {
    const double rep_start = now_s();
    if (before_rep) before_rep();
    plain.push_back(workload.run_rep(nullptr));
    if (traced) {
      SpanRecorder recorder(4096);
      with_spans.push_back(workload.run_rep(&recorder));
      if (!recorder.balanced()) throw std::logic_error("unbalanced spans");
      span_sets.push_back(recorder.spans());
    }
    const double now = now_s();
    const std::size_t reps = plain.size();
    if (reps >= kMaxReps) break;
    if (reps >= kMinReps && (now - start) + (now - rep_start) > seconds) break;
  }
}

/// The traced-run sum check: the per-layer self times, the benchmark's own
/// layer left out, add up to the rep's solve_s, which a stopwatch outside
/// the spans measured. Time that no layer span covers — or that a span
/// counts twice — shows up as a mismatch.
void check_spans(const std::vector<Span>& spans, double solve_s,
                 Outcome& out) {
  ++out.attempted;
  const double self_sum = self_time_sum_without(spans, "bench");
  // Allows for the stopwatch and span bookkeeping between the calls.
  const double tolerance = 1e-3 + 0.01 * solve_s;
  if (std::abs(self_sum - solve_s) > tolerance) {
    fail(out, "per-layer self times sum to " + std::to_string(self_sum) +
                  " s, the traced rep's solve_s is " +
                  std::to_string(solve_s) + " s");
  }
}

double finite_or_fail(double value, const std::string& name, Outcome& out) {
  if (std::isfinite(value)) return value;
  fail(out, "metric " + name + " is not finite");
  return 0.0;
}

Outcome summarize_measured(const std::vector<double>& setup_s,
                           const std::vector<RepResult>& reps) {
  Outcome out;
  tally(reps, reps.front(), "measured", out);
  std::vector<double> jobs_per_s, p50, p95;
  std::vector<double>& solve = out.rep_solve_s;
  for (const RepResult& rep : reps) {
    solve.push_back(rep.solve_s);
    jobs_per_s.push_back(rep.jobs / rep.solve_s);
    try {
      p50.push_back(tail_percentile(rep.activation_ms, 50.0));
      p95.push_back(tail_percentile(rep.activation_ms, 95.0));
    } catch (const std::invalid_argument& error) {
      fail(out, error.what());
    }
  }
  if (p50.empty()) p50 = p95 = {0.0};
  const Quality& q = reps.front().quality;
  const std::size_t n = reps.size();
  const double values[] = {median(setup_s),       median(solve),
                           peak_rss_mb(),         median(jobs_per_s),
                           median(p50),           median(p95),
                           q.makespan_ratio,      q.flowtime_ratio,
                           q.mean_flowtime_s,     q.flowtime_p99_s,
                           q.deadline_met_pct,    q.completed_pct};
  const std::size_t samples[] = {setup_s.size(), n, 1, n, n, n,
                                 1, 1, 1, 1, 1, 1};
  for (std::size_t i = 0; i < std::size(kEndToEnd); ++i) {
    out.metrics.push_back(Metric{
        kEndToEnd[i], finite_or_fail(values[i], kEndToEnd[i], out),
        samples[i]});
  }
  return out;
}

Outcome summarize_traced(const Workload& workload, std::uint64_t seed,
                         const std::vector<RepResult>& plain,
                         const std::vector<RepResult>& traced,
                         const std::vector<std::vector<Span>>& span_sets) {
  Outcome out;
  tally(plain, plain.front(), "untraced", out);
  tally(traced, plain.front(), "traced", out);
  for (std::size_t i = 0; i < span_sets.size(); ++i) {
    check_spans(span_sets[i], traced[i].solve_s, out);
  }

  const std::vector<std::string> names = per_layer_names();
  LayerMetrics layers;
  for (const std::string& name : names) layers[name] = 0.0;
  workload.outside_layers(layers);
  for (const auto& [name, value] : core_probe(seed)) layers[name] = value;
  for (const auto& [name, value] : traced.front().layers) {
    std::vector<double> values;
    for (const RepResult& rep : traced) values.push_back(rep.layers.at(name));
    layers[name] = median(values);
  }
  std::vector<double>& plain_s = out.rep_solve_s;
  std::vector<double> traced_s;
  for (const RepResult& rep : plain) plain_s.push_back(rep.solve_s);
  for (const RepResult& rep : traced) traced_s.push_back(rep.solve_s);
  layers["trace_overhead_pct"] =
      100.0 * (median(traced_s) - median(plain_s)) / median(plain_s);

  for (const std::string& name : names) {
    out.metrics.push_back(Metric{
        name, finite_or_fail(layers.at(name), name, out), traced.size()});
  }
  if (layers.size() != out.metrics.size()) {
    throw std::logic_error("a workload reported an unlisted layer metric");
  }
  return out;
}

/// One trace file: set-up, preparation and the last traced rep, in order.
std::vector<Span> merge_spans(const std::vector<std::vector<Span>>& parts) {
  std::vector<Span> merged;
  for (const std::vector<Span>& part : parts) {
    const int offset = static_cast<int>(merged.size());
    for (Span span : part) {
      if (span.parent >= 0) span.parent += offset;
      merged.push_back(span);
    }
  }
  return merged;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"paper-batch", "swf-stream",
                                                 "burst-churn"};
  return names;
}

std::size_t service_threads() {
  const unsigned hardware = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hardware, 1, 4);
}

Outcome run(const Options& options) {
  std::unique_ptr<Workload> workload = make_workload(options);
  std::vector<RepResult> plain, traced;
  std::vector<std::vector<Span>> span_sets;

  if (!options.trace) {
    workload->setup(nullptr);
    workload->prepare(nullptr);
    const std::unique_ptr<Workload> setup_copy = make_workload(options);
    std::vector<double> setup_s;
    run_reps(*workload, options.seconds, false,
             [&] { timed_setups(*setup_copy, setup_s); }, plain, traced,
             span_sets);
    return summarize_measured(setup_s, plain);
  }

  SpanRecorder setup_spans(64), prepare_spans(64);
  workload->setup(&setup_spans);
  workload->prepare(&prepare_spans);
  run_reps(*workload, options.seconds, true, nullptr, plain, traced,
           span_sets);
  Outcome out =
      summarize_traced(*workload, options.seed, plain, traced, span_sets);
  if (!options.trace_file.empty()) {
    write_chrome_trace(merge_spans({setup_spans.spans(), prepare_spans.spans(),
                                    span_sets.back()}),
                       options.trace_file);
  }
  return out;
}

LayerMetrics core_probe(std::uint64_t seed) {
  using namespace gridsched;
  InstanceSpec spec;
  spec.consistency = Consistency::kInconsistent;
  const EtcMatrix etc = generate_instance(spec);
  const int n = etc.num_jobs();
  const int m = etc.num_machines();
  Rng rng(seed + 0x5eed);
  const Schedule base = min_min(etc);

  constexpr int kCalls = 200'000;
  std::vector<int> jobs(kCalls), others(kCalls), machines(kCalls);
  for (int i = 0; i < kCalls; ++i) {
    jobs[i] = static_cast<int>(rng.bounded(static_cast<std::uint64_t>(n)));
    machines[i] = static_cast<int>(rng.bounded(static_cast<std::uint64_t>(m)));
    // A swap needs partners on different machines.
    do {
      others[i] = static_cast<int>(rng.bounded(static_cast<std::uint64_t>(n)));
    } while (base[others[i]] == base[jobs[i]]);
  }
  constexpr int kTargets = 64;
  constexpr int kResets = 4'000;
  std::vector<Schedule> targets(kTargets, base);
  for (Schedule& target : targets) target.perturb(0.02, m, rng);

  ScheduleEvaluator evaluator(etc);
  evaluator.reset(base);
  double sink = 0.0;
  LayerMetrics out;

  double start = now_s();
  for (int i = 0; i < kCalls; ++i) {
    sink += evaluator.preview_move(jobs[i], machines[i]).objectives.makespan;
  }
  out["core.preview_move_ns"] = (now_s() - start) / kCalls * 1e9;

  start = now_s();
  for (int i = 0; i < kCalls; ++i) {
    sink += evaluator.preview_swap(jobs[i], others[i]).objectives.makespan;
  }
  out["core.preview_swap_ns"] = (now_s() - start) / kCalls * 1e9;

  start = now_s();
  for (int i = 0; i < kCalls; ++i) evaluator.apply_move(jobs[i], machines[i]);
  out["core.apply_move_ns"] = (now_s() - start) / kCalls * 1e9;
  sink += evaluator.makespan();

  start = now_s();
  for (int i = 0; i < kResets; ++i) {
    evaluator.reset_to(targets[static_cast<std::size_t>(i % kTargets)]);
  }
  out["core.reset_to_us"] = (now_s() - start) / kResets * 1e6;
  sink += evaluator.flowtime();

  if (!std::isfinite(sink)) throw std::logic_error("core probe: bad objective");
  return out;
}

}  // namespace perfbench
