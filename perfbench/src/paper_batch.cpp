// paper-batch: the paper's static setting. The canonical 512x16 Braun
// instances u_c_hihi.0 and u_i_hihi.0 are scheduled by LJFR-SJFR,
// Min-Min, Struggle GA and the Table-1 asynchronous cMA, every search
// stopped on an evaluation count and seeded from the workload seed, and
// the cMA is certified against bounds::makespan_bound. No service code
// runs here.
//
// The constructive heuristics run as batch-mode activations — the way the
// dynamic scheduler uses them — 32 LJFR-SJFR and 96 Min-Min calls per
// class, 256 per rep. The 1:3 mix keeps the median and the p95 inside the
// Min-Min clusters of the two classes instead of on a cluster edge. The
// search budgets keep a rep near 2 s, so a run has many reps to take
// medians over.
#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "batch_check.h"
#include "bounds/lower_bound.h"
#include "cma/cma.h"
#include "core/evaluator.h"
#include "etc/instance.h"
#include "ga/struggle_ga.h"
#include "heuristics/constructive.h"
#include "measure.h"
#include "runner.h"

namespace perfbench {

using namespace gridsched;

namespace {

constexpr int kLjfrCalls = 32;
constexpr int kMinMinCalls = 96;
constexpr std::int64_t kGaEvaluations = 5'000;
constexpr std::int64_t kCmaEvaluations = 1'000;
// The LP budget per class. The default 20k pivots cost ~28 s on the
// consistent 512x16 instance, more than a whole run may take, and it hits
// the cap either way; at 8k pivots it still does (~3.6 s) and falls back
// to the cheap floor. The inconsistent class keeps the default budget and
// proves optimality (~11.4k pivots, ~5.5 s), so bounds.cma_gap_pct is
// certified against a real LP bound there, and a bound rewrite has to win
// on one class without losing on the other.
constexpr int kConsistentLpMaxPivots = 8'000;

constexpr std::array<Consistency, 2> kClasses = {Consistency::kConsistent,
                                                 Consistency::kInconsistent};

/// The LP tableau's footprint computed from the instance shape (rows and
/// columns as documented in bounds/lower_bound.cpp), in MiB.
double tableau_mb(const EtcMatrix& etc) {
  const double n = etc.num_jobs();
  const double m = etc.num_machines();
  const double rows = n + m + 2;
  const double cols = (n * m + 1) + m + (n + m) + 1;
  return rows * cols * sizeof(double) / (1024.0 * 1024.0);
}

/// Per-job completion times of a schedule, machines running SPT.
std::vector<double> completion_times(const EtcMatrix& etc,
                                     const Schedule& schedule) {
  std::vector<std::vector<double>> per_machine(
      static_cast<std::size_t>(etc.num_machines()));
  for (int j = 0; j < etc.num_jobs(); ++j) {
    per_machine[static_cast<std::size_t>(schedule[j])].push_back(
        etc(j, schedule[j]));
  }
  std::vector<double> completions;
  completions.reserve(static_cast<std::size_t>(etc.num_jobs()));
  for (int m = 0; m < etc.num_machines(); ++m) {
    std::vector<double>& jobs = per_machine[static_cast<std::size_t>(m)];
    std::sort(jobs.begin(), jobs.end());
    double t = etc.ready_time(m);
    for (const double etc_value : jobs) {
      t += etc_value;
      completions.push_back(t);
    }
  }
  return completions;
}

class PaperBatch final : public Workload {
 public:
  explicit PaperBatch(std::uint64_t seed) : seed_(seed) {}

  void setup(SpanRecorder* spans) override {
    instances_.clear();
    generate_s_ = 0.0;
    for (const Consistency consistency : kClasses) {
      InstanceSpec spec;
      spec.consistency = consistency;
      ScopedSpan span(spans, "etc.generate");
      const double start = now_s();
      instances_.push_back(generate_instance(spec));
      generate_s_ += now_s() - start;
    }
  }

  void prepare(SpanRecorder* spans) override {
    bounds_.clear();
    lp_s_ = 0.0;
    for (std::size_t c = 0; c < instances_.size(); ++c) {
      bounds::LpOptions options;
      if (kClasses[c] == Consistency::kConsistent) {
        options.max_pivots = kConsistentLpMaxPivots;
      }
      ScopedSpan span(spans, "bounds.makespan_bound");
      const double start = now_s();
      bounds_.push_back(bounds::makespan_bound(instances_[c], options));
      lp_s_ += now_s() - start;
    }
  }

  RepResult run_rep(SpanRecorder* spans) override {
    RepResult rep;
    rep.activation_ms.reserve(kClasses.size() * (kLjfrCalls + kMinMinCalls));
    ScopedSpan root(spans, "bench.rep");

    struct ClassRun {
      Schedule ljfr, min_min;
      EvolutionResult ga, cma;
    };
    std::vector<ClassRun> runs(instances_.size());
    const double start = now_s();
    for (std::size_t c = 0; c < instances_.size(); ++c) {
      const EtcMatrix& etc = instances_[c];
      ClassRun& run = runs[c];
      for (int i = 0; i < kLjfrCalls; ++i) {
        ScopedSpan span(spans, "heuristics.ljfr_sjfr");
        const double t = now_s();
        run.ljfr = ljfr_sjfr(etc);
        rep.activation_ms.push_back((now_s() - t) * 1e3);
      }
      for (int i = 0; i < kMinMinCalls; ++i) {
        ScopedSpan span(spans, "heuristics.min_min");
        const double t = now_s();
        run.min_min = min_min(etc);
        rep.activation_ms.push_back((now_s() - t) * 1e3);
      }
      {
        ScopedSpan span(spans, "ga.run");
        StruggleGaConfig config;
        config.stop = StopCondition{.max_evaluations = kGaEvaluations};
        config.seed = seed_ * 16 + 2 * c + 1;
        run.ga = StruggleGa(config).run(etc);
      }
      {
        ScopedSpan span(spans, "cma.run");
        CmaConfig config;
        config.stop = StopCondition{.max_evaluations = kCmaEvaluations};
        config.seed = seed_ * 16 + 2 * c + 2;
        run.cma = CellularMemeticAlgorithm(config).run(etc);
      }
    }
    rep.solve_s = now_s() - start;

    ScopedSpan check_span(spans, "bench.check");
    const double classes = static_cast<double>(instances_.size());
    double cma_gap_pct = 0.0;
    for (std::size_t c = 0; c < instances_.size(); ++c) {
      const EtcMatrix& etc = instances_[c];
      const ClassRun& run = runs[c];
      const double bound = bounds_[c].value;
      const std::pair<const char*, const Schedule*> results[] = {
          {"LJFR-SJFR", &run.ljfr},
          {"Min-Min", &run.min_min},
          {"StruggleGA", &run.ga.best.schedule},
          {"cMA", &run.cma.best.schedule}};
      BatchQuality cma_quality;
      for (const auto& [name, schedule] : results) {
        const bool is_cma = schedule == &run.cma.best.schedule;
        const BatchQuality quality = check_batch(etc, *schedule, false, is_cma);
        ++rep.checked;
        const std::string where = std::string(name) + " on class " +
                                  std::to_string(c) + ": ";
        if (!quality.ok()) {
          rep.errors.push_back(where + quality.error);
        } else if (quality.makespan < bound * (1.0 - 1e-9)) {
          rep.errors.push_back(where + "makespan below the LP bound");
        }
        rep.outcome.push_back(quality.makespan);
        rep.outcome.push_back(quality.flowtime);
        if (is_cma) cma_quality = quality;
      }
      rep.outcome.push_back(static_cast<double>(run.ga.evaluations));
      rep.outcome.push_back(static_cast<double>(run.cma.evaluations));
      rep.outcome.push_back(static_cast<double>(run.cma.iterations));

      const double n = etc.num_jobs();
      cma_gap_pct +=
          bounds::optimality_gap_pct(cma_quality.makespan, bound) / classes;
      rep.quality.makespan_ratio +=
          cma_quality.makespan / cma_quality.reference_makespan / classes;
      rep.quality.flowtime_ratio +=
          cma_quality.flowtime / cma_quality.reference_flowtime / classes;
      rep.quality.mean_flowtime_s += cma_quality.flowtime / n / classes;
      rep.quality.flowtime_p99_s +=
          percentile(completion_times(etc, run.cma.best.schedule), 99.0) /
          classes;
      rep.quality.completed_pct += 100.0 * cma_quality.accepted / n / classes;
      rep.jobs += n * (kLjfrCalls + kMinMinCalls + 2);
    }
    // Static batches carry no deadlines, so no promise can be broken.
    rep.quality.deadline_met_pct = 100.0;
    const Quality& q = rep.quality;
    rep.outcome.insert(rep.outcome.end(),
                       {cma_gap_pct, q.makespan_ratio, q.flowtime_ratio,
                        q.mean_flowtime_s, q.flowtime_p99_s,
                        q.deadline_met_pct, q.completed_pct});

    if (spans) {
      const std::vector<Span>& s = spans->spans();
      double ga_evals = 0.0, cma_evals = 0.0, cma_iterations = 0.0;
      for (const ClassRun& run : runs) {
        ga_evals += static_cast<double>(run.ga.evaluations);
        cma_evals += static_cast<double>(run.cma.evaluations);
        cma_iterations += static_cast<double>(run.cma.iterations);
      }
      const double ga_s = total_duration(s, "ga.run");
      const double cma_s = total_duration(s, "cma.run");
      rep.layers = {
          {"heuristics.ljfr_sjfr_ms",
           total_duration(s, "heuristics.ljfr_sjfr") * 1e3 /
               static_cast<double>(span_count(s, "heuristics.ljfr_sjfr"))},
          {"heuristics.min_min_ms",
           total_duration(s, "heuristics.min_min") * 1e3 /
               static_cast<double>(span_count(s, "heuristics.min_min"))},
          {"ga.run_s", ga_s},
          {"ga.evals_per_s", ga_evals / ga_s},
          {"cma.run_s", cma_s},
          {"cma.evals_per_s", cma_evals / cma_s},
          {"cma.iterations", cma_iterations},
          {"bounds.cma_gap_pct", cma_gap_pct},
      };
    }
    return rep;
  }

  void outside_layers(LayerMetrics& out) const override {
    double pivots = 0.0, optimal = 0.0, tableau = 0.0;
    for (std::size_t c = 0; c < bounds_.size(); ++c) {
      pivots += bounds_[c].lp_pivots;
      optimal += bounds_[c].lp_status == bounds::LpBoundStatus::kOptimal;
      tableau = std::max(tableau, tableau_mb(instances_[c]));
    }
    out["etc.generate_ms"] = generate_s_ * 1e3;
    out["bounds.lp_s"] = lp_s_;
    out["bounds.lp_pivots"] = pivots;
    out["bounds.lp_optimal_classes"] = optimal;
    out["bounds.tableau_mb"] = tableau;
  }

 private:
  std::uint64_t seed_;
  std::vector<EtcMatrix> instances_;
  std::vector<bounds::MakespanBoundResult> bounds_;
  double generate_s_ = 0.0;
  double lp_s_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_paper_batch(std::uint64_t seed) {
  return std::make_unique<PaperBatch>(seed);
}

}  // namespace perfbench
