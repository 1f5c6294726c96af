// Observability layer: JSON round trips, trace span balance, histogram
// export, the bench_diff regression gate (including the injected-synthetic-
// regression acceptance check), and the service's activation records.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "etc/instance.h"
#include "obs/bench_diff.h"
#include "obs/bench_report.h"
#include "obs/json.h"
#include "obs/trace_recorder.h"
#include "service/grid_scheduling_service.h"

namespace gridsched {
namespace {

using obs::JsonValue;

// ------------------------------------------------------------------ json --

TEST(Json, ParsesAndDumpsNestedDocument) {
  const std::string text =
      R"({"a": 1.5, "b": [true, null, "x"], "c": {"d": -2e3}})";
  const auto parsed = JsonValue::parse(text);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(parsed->is_object());
  EXPECT_DOUBLE_EQ(parsed->find("a")->as_number(), 1.5);
  const JsonValue* b = parsed->find("b");
  ASSERT_TRUE(b != nullptr && b->is_array());
  ASSERT_EQ(b->as_array().size(), 3u);
  EXPECT_TRUE(b->as_array()[0].as_bool());
  EXPECT_TRUE(b->as_array()[1].is_null());
  EXPECT_EQ(b->as_array()[2].as_string(), "x");
  EXPECT_DOUBLE_EQ(parsed->find("c")->find("d")->as_number(), -2000.0);

  // Dump -> parse is stable (insertion order preserved).
  const auto reparsed = JsonValue::parse(parsed->dump());
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(reparsed->dump(), parsed->dump());
}

TEST(Json, StringEscapesRoundTrip) {
  JsonValue doc;
  doc.set("k", JsonValue(std::string("a\"b\\c\nd\te\x01")));
  const auto parsed = JsonValue::parse(doc.dump());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->find("k")->as_string(), "a\"b\\c\nd\te\x01");
}

TEST(Json, DecodesUnicodeEscapesToUtf8) {
  const auto escaped = JsonValue::parse("[\"A\\u00e9\"]");
  ASSERT_TRUE(escaped.has_value());
  EXPECT_EQ(escaped->as_array()[0].as_string(), "A\xc3\xa9");
  const auto parsed = JsonValue::parse(R"(["Aé"])");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->as_array()[0].as_string(), "A\xc3\xa9");
}

TEST(Json, RejectsMalformedInput) {
  std::string error;
  EXPECT_FALSE(JsonValue::parse("{", &error).has_value());
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(JsonValue::parse("[1,]").has_value());
  EXPECT_FALSE(JsonValue::parse("true false").has_value());  // trailing
  EXPECT_FALSE(JsonValue::parse("nul").has_value());
  EXPECT_FALSE(JsonValue::parse("").has_value());
}

TEST(Json, NonFiniteNumbersSerializeAsNull) {
  EXPECT_EQ(obs::json_number(std::numeric_limits<double>::quiet_NaN()),
            "null");
  EXPECT_EQ(obs::json_number(std::numeric_limits<double>::infinity()),
            "null");
  EXPECT_EQ(obs::json_number(2.5), "2.5");
}

// ----------------------------------------------------------------- trace --

struct EventView {
  std::string name;
  std::string cat;
  std::string phase;
  std::int64_t tid = 0;
};

std::vector<EventView> parse_trace(const std::string& text) {
  const auto parsed = JsonValue::parse(text);
  EXPECT_TRUE(parsed.has_value()) << "trace output is not valid JSON";
  std::vector<EventView> events;
  if (!parsed.has_value()) return events;
  const JsonValue* list = parsed->find("traceEvents");
  EXPECT_TRUE(list != nullptr && list->is_array());
  if (list == nullptr || !list->is_array()) return events;
  for (const JsonValue& entry : list->as_array()) {
    EventView view;
    view.name = entry.find("name")->as_string();
    view.phase = entry.find("ph")->as_string();
    if (const JsonValue* cat = entry.find("cat")) view.cat = cat->as_string();
    view.tid = static_cast<std::int64_t>(entry.find("tid")->as_number());
    events.push_back(std::move(view));
  }
  return events;
}

/// Asserts B/E stack discipline per tid: every end closes the most recent
/// open begin of the same name on that thread.
void expect_balanced(const std::vector<EventView>& events) {
  std::map<std::int64_t, std::vector<std::string>> stacks;
  for (const EventView& event : events) {
    if (event.phase == "B") {
      stacks[event.tid].push_back(event.name);
    } else if (event.phase == "E") {
      auto& stack = stacks[event.tid];
      ASSERT_FALSE(stack.empty())
          << "'" << event.name << "' ended with no open span on tid "
          << event.tid;
      EXPECT_EQ(stack.back(), event.name) << "mismatched span nesting";
      stack.pop_back();
    }
  }
  for (const auto& [tid, stack] : stacks) {
    EXPECT_TRUE(stack.empty()) << stack.size() << " unclosed span(s) on tid "
                               << tid;
  }
}

TEST(TraceRecorder, NullRecorderSpansAreNoOps) {
  const obs::TraceSpan span(nullptr, "anything", "cat", {{"k", 1}});
  // Destruction must be a no-op too; nothing to assert beyond not crashing.
}

TEST(TraceRecorder, SingleThreadSpansBalanceAndNest) {
  obs::TraceRecorder recorder;
  {
    const obs::TraceSpan outer(&recorder, "activation", "service",
                               {{"jobs", 12}});
    {
      const obs::TraceSpan inner(&recorder, "shard_race", "shard",
                                 {{"shard", 0}});
    }
    recorder.instant("split", "resize", {{"from", 1}, {"to", 2}});
  }
  recorder.flush();
  EXPECT_EQ(recorder.event_count(), 5u);  // 2 B + 2 E + 1 i

  std::ostringstream out;
  recorder.write(out);
  const std::vector<EventView> events = parse_trace(out.str());
  ASSERT_EQ(events.size(), 5u);
  expect_balanced(events);
  // One thread recorded everything, in scope order.
  EXPECT_EQ(events[0].name, "activation");
  EXPECT_EQ(events[0].phase, "B");
  EXPECT_EQ(events[1].name, "shard_race");
  EXPECT_EQ(events[2].phase, "E");
  EXPECT_EQ(events[3].name, "split");
  EXPECT_EQ(events[3].phase, "i");
  EXPECT_EQ(events[4].name, "activation");
  EXPECT_EQ(events[4].phase, "E");
}

TEST(TraceRecorder, ConcurrentThreadsKeepPerThreadOrder) {
  obs::TraceRecorder recorder;
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&recorder, t] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        const obs::TraceSpan span(&recorder, "work", "test",
                                  {{"thread", t}, {"i", i}});
        recorder.instant("tick", "test");
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  recorder.flush();
  EXPECT_EQ(recorder.event_count(),
            static_cast<std::size_t>(kThreads * kSpansPerThread * 3));

  std::ostringstream out;
  recorder.write(out);
  const std::vector<EventView> events = parse_trace(out.str());
  expect_balanced(events);
  std::map<std::int64_t, int> per_tid;
  for (const EventView& event : events) ++per_tid[event.tid];
  EXPECT_EQ(per_tid.size(), static_cast<std::size_t>(kThreads));
  for (const auto& [tid, count] : per_tid) {
    EXPECT_EQ(count, kSpansPerThread * 3) << "tid " << tid;
  }
}

TEST(TraceRecorder, FlushMidSpanSplitsBeginAndEndAcrossFlushes) {
  obs::TraceRecorder recorder;
  recorder.begin("span", "test");
  recorder.flush();
  EXPECT_EQ(recorder.event_count(), 1u);
  recorder.end("span");
  recorder.flush();
  EXPECT_EQ(recorder.event_count(), 2u);
  std::ostringstream out;
  recorder.write(out);
  expect_balanced(parse_trace(out.str()));
}

// ------------------------------------------------------ histogram export --

TEST(HistogramJson, RoundTripsBitExactly) {
  LatencyHistogram histogram;
  for (double v : {0.002, 0.5, 7.0, 300.0, 2e5}) histogram.add(v);
  const auto rebuilt = obs::histogram_from_json(
      obs::histogram_to_json(histogram));
  ASSERT_TRUE(rebuilt.has_value());
  EXPECT_EQ(*rebuilt, histogram);
  EXPECT_EQ(rebuilt->overflow_count(), 1u);
}

TEST(HistogramJson, EmptyHistogramRoundTrips) {
  const auto rebuilt =
      obs::histogram_from_json(obs::histogram_to_json(LatencyHistogram{}));
  ASSERT_TRUE(rebuilt.has_value());
  EXPECT_TRUE(rebuilt->empty());
}

TEST(HistogramJson, RejectsForeignOrCorruptDocuments) {
  EXPECT_FALSE(obs::histogram_from_json(JsonValue()).has_value());

  LatencyHistogram histogram;
  histogram.add(1.0);
  // A histogram recorded under different constants must not be adopted.
  JsonValue wrong_range = obs::histogram_to_json(histogram);
  wrong_range.as_object()[0].second = JsonValue(1e-6);  // "min"
  EXPECT_FALSE(obs::histogram_from_json(wrong_range).has_value());

  // Bucket totals disagreeing with the recorded count means corruption.
  JsonValue wrong_count = obs::histogram_to_json(histogram);
  wrong_count.as_object()[3].second = JsonValue(5.0);  // "count"
  EXPECT_FALSE(obs::histogram_from_json(wrong_count).has_value());

  // Non-integral bucket occupancy is malformed. "buckets" is the last
  // member histogram_to_json writes.
  JsonValue fractional = obs::histogram_to_json(histogram);
  fractional.as_object().back().second.as_array()[0].as_array()[1] =
      JsonValue(0.5);
  EXPECT_FALSE(obs::histogram_from_json(fractional).has_value());
}

// ------------------------------------------------------------ bench_diff --

JsonValue make_bench(const std::string& bench, bool ok,
                     const std::string& verdicts_json) {
  const std::string text = "{\"bench\": \"" + bench + "\", \"ok\": " +
                           (ok ? "true" : "false") +
                           ", \"verdicts\": " + verdicts_json + "}";
  auto parsed = JsonValue::parse(text);
  EXPECT_TRUE(parsed.has_value()) << text;
  return *parsed;
}

TEST(BenchDiff, ClassifiesMetricNames) {
  const obs::DiffOptions options;
  using obs::MetricClass;
  EXPECT_EQ(obs::classify_metric("makespan", options), MetricClass::kGated);
  EXPECT_EQ(obs::classify_metric("overhead_bound_ms", options),
            MetricClass::kInformational);  // bound echoes configuration
  EXPECT_EQ(obs::classify_metric("activation_wall_ms", options),
            MetricClass::kInformational);  // wall clock, foreign hardware
  EXPECT_EQ(obs::classify_metric("max_overshoot_pct", options),
            MetricClass::kInformational);
  EXPECT_EQ(obs::classify_metric("shed_per_run", options),
            MetricClass::kInformational);
  // Micro-benchmark timings (micro_ops emits *_ns metrics) follow the same
  // rule as *_ms: informational on foreign hardware, gated under
  // --gate-time (the CI micro-ops smoke relies on this).
  EXPECT_EQ(obs::classify_metric("BM_PreviewMove_16_ns", options),
            MetricClass::kInformational);
  EXPECT_EQ(obs::classify_metric("parse_us", options),
            MetricClass::kInformational);
  obs::DiffOptions gate_time = options;
  gate_time.gate_time = true;
  EXPECT_EQ(obs::classify_metric("activation_wall_ms", gate_time),
            MetricClass::kGated);
  EXPECT_EQ(obs::classify_metric("BM_PreviewMove_16_ns", gate_time),
            MetricClass::kGated);
  EXPECT_EQ(obs::classify_metric("offspring_speedup", options),
            MetricClass::kGated);  // a ratio, not a wall-clock time

  EXPECT_TRUE(obs::metric_higher_is_better("speedup_vs_sequential"));
  EXPECT_TRUE(obs::metric_higher_is_better("utilization"));
  EXPECT_TRUE(obs::metric_higher_is_better("best_effort_delta"));
  EXPECT_FALSE(obs::metric_higher_is_better("makespan_pct"));
  EXPECT_FALSE(obs::metric_higher_is_better("miss_pp"));

  // The optimality-gap pair every --gap bench emits (add_gap_metric):
  // the gap itself gates lower-is-better, the bound echo stays
  // informational ("bound" in the name). CI's table2 leg relies on this.
  EXPECT_EQ(obs::classify_metric("cma_makespan_gap_pct", options),
            MetricClass::kGated);
  EXPECT_FALSE(obs::metric_higher_is_better("cma_makespan_gap_pct"));
  EXPECT_EQ(obs::classify_metric("makespan_lower_bound", options),
            MetricClass::kInformational);
}

TEST(BenchReport, AddGapMetricEmitsTheGatedPair) {
  obs::BenchVerdict verdict;
  obs::add_gap_metric(verdict, "cma_makespan", 110.0, 100.0);
  ASSERT_EQ(verdict.metrics.size(), 2u);
  EXPECT_EQ(verdict.metrics[0].first, "cma_makespan_gap_pct");
  EXPECT_DOUBLE_EQ(verdict.metrics[0].second, 10.0);
  EXPECT_EQ(verdict.metrics[1].first, "cma_makespan_lower_bound");
  EXPECT_DOUBLE_EQ(verdict.metrics[1].second, 100.0);

  // A non-positive bound must not fabricate a gated gap: both serialize
  // as null (NaN) instead.
  obs::BenchVerdict degenerate;
  obs::add_gap_metric(degenerate, "x", 5.0, 0.0);
  EXPECT_TRUE(std::isnan(degenerate.metrics[0].second));
  EXPECT_TRUE(std::isnan(degenerate.metrics[1].second));
}

TEST(BenchDiff, InjectedRegressionBeyondToleranceGates) {
  // The acceptance-criteria check: a synthetic 20% makespan regression
  // with no CI companion must exit the diff in the REGRESSION state.
  const JsonValue baseline = make_bench(
      "b", true, R"([{"name": "p", "ok": true,
                      "metrics": {"makespan": 100.0}}])");
  const JsonValue candidate = make_bench(
      "b", true, R"([{"name": "p", "ok": true,
                      "metrics": {"makespan": 120.0}}])");
  const auto report =
      obs::diff_bench_reports(baseline, candidate, obs::DiffOptions{});
  ASSERT_TRUE(report.has_value());
  EXPECT_TRUE(report->regression);
  ASSERT_EQ(report->rows.size(), 1u);
  EXPECT_EQ(report->rows[0].status, "REGRESSION");
  EXPECT_NEAR(report->rows[0].delta_pct, 20.0, 1e-9);

  std::ostringstream out;
  obs::print_diff_report(*report, out);
  EXPECT_NE(out.str().find("bench_diff: REGRESSION"), std::string::npos);
}

TEST(BenchDiff, DriftWithinToleranceIsOk) {
  const JsonValue baseline = make_bench(
      "b", true,
      R"([{"name": "p", "ok": true, "metrics": {"makespan": 100.0}}])");
  const JsonValue candidate = make_bench(
      "b", true,
      R"([{"name": "p", "ok": true, "metrics": {"makespan": 103.0}}])");
  const auto report =
      obs::diff_bench_reports(baseline, candidate, obs::DiffOptions{});
  ASSERT_TRUE(report.has_value());
  EXPECT_FALSE(report->regression);
  EXPECT_EQ(report->rows[0].status, "ok");
}

TEST(BenchDiff, OverlappingCiSuppressesTheRegression) {
  // 20% worse, but both sides carry CI95 half-widths wide enough to
  // overlap — seed noise, not a regression.
  const JsonValue baseline = make_bench(
      "b", true,
      R"([{"name": "p", "ok": true,
           "metrics": {"flowtime": 100.0, "flowtime_ci": 15.0}}])");
  const JsonValue candidate = make_bench(
      "b", true,
      R"([{"name": "p", "ok": true,
           "metrics": {"flowtime": 120.0, "flowtime_ci": 15.0}}])");
  const auto report =
      obs::diff_bench_reports(baseline, candidate, obs::DiffOptions{});
  ASSERT_TRUE(report.has_value());
  EXPECT_FALSE(report->regression);
  ASSERT_EQ(report->rows.size(), 1u);
  ASSERT_TRUE(report->rows[0].ci_overlap.has_value());
  EXPECT_TRUE(*report->rows[0].ci_overlap);
  EXPECT_EQ(report->rows[0].status, "ok");
}

TEST(BenchDiff, DisjointCiKeepsTheRegression) {
  const JsonValue baseline = make_bench(
      "b", true,
      R"([{"name": "p", "ok": true,
           "metrics": {"flowtime": 100.0, "flowtime_ci": 2.0}}])");
  const JsonValue candidate = make_bench(
      "b", true,
      R"([{"name": "p", "ok": true,
           "metrics": {"flowtime": 120.0, "flowtime_ci": 2.0}}])");
  const auto report =
      obs::diff_bench_reports(baseline, candidate, obs::DiffOptions{});
  ASSERT_TRUE(report.has_value());
  EXPECT_TRUE(report->regression);
}

TEST(BenchDiff, HigherIsBetterMetricsGateDownwardMoves) {
  const JsonValue baseline = make_bench(
      "b", true,
      R"([{"name": "p", "ok": true, "metrics": {"speedup": 2.0}}])");
  const JsonValue worse = make_bench(
      "b", true,
      R"([{"name": "p", "ok": true, "metrics": {"speedup": 1.5}}])");
  const auto down =
      obs::diff_bench_reports(baseline, worse, obs::DiffOptions{});
  ASSERT_TRUE(down.has_value());
  EXPECT_TRUE(down->regression);

  const auto up = obs::diff_bench_reports(worse, baseline, obs::DiffOptions{});
  ASSERT_TRUE(up.has_value());
  EXPECT_FALSE(up->regression);
  EXPECT_EQ(up->rows[0].status, "improved");
}

TEST(BenchDiff, OkFlipIsAlwaysARegression) {
  const JsonValue baseline = make_bench(
      "b", true,
      R"([{"name": "p", "ok": true, "metrics": {"makespan": 100.0}}])");
  const JsonValue candidate = make_bench(
      "b", false,
      R"([{"name": "p", "ok": false, "metrics": {"makespan": 100.0}}])");
  const auto report =
      obs::diff_bench_reports(baseline, candidate, obs::DiffOptions{});
  ASSERT_TRUE(report.has_value());
  EXPECT_TRUE(report->regression);
  EXPECT_FALSE(report->notes.empty());
}

TEST(BenchDiff, MissingVerdictsAndMetricsAreNotesNotRegressions) {
  const JsonValue baseline = make_bench(
      "b", true,
      R"([{"name": "gone", "ok": true, "metrics": {"makespan": 1.0}},
          {"name": "p", "ok": true, "metrics": {"old_metric": 1.0}}])");
  const JsonValue candidate = make_bench(
      "b", true,
      R"([{"name": "p", "ok": true, "metrics": {"new_metric": 1.0}},
          {"name": "fresh", "ok": true, "metrics": {}}])");
  const auto report =
      obs::diff_bench_reports(baseline, candidate, obs::DiffOptions{});
  ASSERT_TRUE(report.has_value());
  EXPECT_FALSE(report->regression);
  EXPECT_EQ(report->notes.size(), 4u);  // lost verdict, lost metric,
                                        // new metric, new verdict
}

TEST(BenchDiff, MalformedDocumentsReportAnError) {
  std::string error;
  const auto report = obs::diff_bench_reports(
      JsonValue(), make_bench("b", true, "[]"), obs::DiffOptions{}, &error);
  EXPECT_FALSE(report.has_value());
  EXPECT_NE(error.find("baseline"), std::string::npos);
}

TEST(BenchReport, WritesTheArtifactSchema) {
  obs::BenchReport report;
  report.bench = "demo";
  report.ok = false;
  LatencyHistogram histogram;
  histogram.add(1.0);
  report.verdicts.push_back(obs::BenchVerdict{
      .name = "point",
      .ok = true,
      .metrics = {{"makespan", 12.5},
                  {"bad", std::numeric_limits<double>::quiet_NaN()}},
      .histograms = {{"flow", histogram}}});
  std::ostringstream out;
  report.write(out);
  const auto parsed = JsonValue::parse(out.str());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->find("bench")->as_string(), "demo");
  EXPECT_FALSE(parsed->find("ok")->as_bool());
  const JsonValue& verdict = parsed->find("verdicts")->as_array()[0];
  EXPECT_DOUBLE_EQ(verdict.find("metrics")->find("makespan")->as_number(),
                   12.5);
  EXPECT_TRUE(verdict.find("metrics")->find("bad")->is_null());
  const auto hist =
      obs::histogram_from_json(*verdict.find("histograms")->find("flow"));
  ASSERT_TRUE(hist.has_value());
  EXPECT_EQ(hist->count(), 1u);
}

// ------------------------------------------------- service integration --

EtcMatrix obs_instance(int jobs, int machines) {
  InstanceSpec spec;
  spec.num_jobs = jobs;
  spec.num_machines = machines;
  spec.seed = 17;
  return generate_instance(spec);
}

ServiceConfig traced_config(int shards) {
  ServiceConfig config;
  config.num_shards = shards;
  config.total_budget_ms = 60'000.0;
  config.threads = 2;
  config.member_stop = StopCondition{.max_evaluations = 120};
  config.seed = 11;
  return config;
}

TEST(ServiceObservability, TracedActivationEmitsNestedBalancedSpans) {
  obs::TraceRecorder recorder;
  ServiceConfig config = traced_config(2);
  config.trace = &recorder;
  config.drain_steal = true;
  GridSchedulingService service(config);
  const EtcMatrix etc = obs_instance(24, 8);
  ASSERT_TRUE(service.schedule_batch(etc).complete(etc.num_machines()));

  std::ostringstream out;
  recorder.write(out);
  const std::vector<EventView> events = parse_trace(out.str());
  expect_balanced(events);

  std::map<std::string, int> begins_by_cat;
  for (const EventView& event : events) {
    if (event.phase == "B") ++begins_by_cat[event.cat];
  }
  EXPECT_EQ(begins_by_cat["service"], 1);  // one activation span
  EXPECT_EQ(begins_by_cat["shard"], 2);    // one race per shard
  EXPECT_GT(begins_by_cat["member"], 0);   // portfolio members ran inside
  EXPECT_EQ(begins_by_cat["steal"], 1);    // drain_steal pass
}

TEST(ServiceObservability, UntracedServiceRecordsNoEvents) {
  GridSchedulingService service(traced_config(2));
  const EtcMatrix etc = obs_instance(12, 4);
  (void)service.schedule_batch(etc);
  // No recorder was attached; the records still hold every routed job.
  int jobs = 0;
  for (const ShardActivationRecord& record : service.shard_activations()) {
    jobs += record.jobs;
  }
  EXPECT_EQ(jobs, 12);
  ASSERT_EQ(service.service_activations().size(), 1u);
  EXPECT_EQ(service.service_activations()[0].jobs_rejected, 0);
}

/// Every record field except the wall-clock ones (`race_ms`, `wall_ms`),
/// one line per record, so two runs compare as two strings.
std::string records_without_timing(const GridSchedulingService& service) {
  std::ostringstream out;
  out.precision(17);
  for (const ServiceActivationRecord& r : service.service_activations()) {
    out << "service " << r.activation << ' ' << r.shards_raced << ' '
        << r.concurrent << ' ' << r.jobs_stolen << ' ' << r.jobs_rejected
        << ' ' << r.jobs_rerouted << '\n';
  }
  for (const ShardActivationRecord& r : service.shard_activations()) {
    out << "shard " << r.activation << ' ' << r.shard << ' ' << r.jobs << ' '
        << r.migrated_in << ' ' << r.migrated_out << ' ' << r.stolen_in << ' '
        << r.stolen_out << ' ' << r.backlog << ' ' << r.budget_ms << '\n';
  }
  for (const ShardResizeEvent& r : service.resize_events()) {
    out << "resize " << r.activation << ' ' << r.split << ' ' << r.from_shard
        << ' ' << r.to_shard << ' ' << r.machines_moved << ' '
        << r.alive_machines << '\n';
  }
  for (int shard = 0; shard < service.num_shards(); ++shard) {
    for (const ActivationRecord& r :
         service.shard_scheduler(shard).activations()) {
      out << "race " << shard << ' ' << r.activation << ' ' << r.batch_jobs
          << ' ' << r.winner << ' ' << r.winner_name << ' ' << r.best_fitness
          << ' ' << r.qos_pareto << ' ' << r.winner_missed << ' '
          << r.winner_cost << '\n';
    }
  }
  return out.str();
}

TEST(ServiceObservability, RecordsAreDeterministicAcrossRuns) {
  // Two identical deterministic services (evaluation-bounded members,
  // concurrent shards) must land identical records in every field but the
  // wall-clock ones — the property that makes the books diffable across
  // commits.
  const EtcMatrix etc = obs_instance(30, 8);
  const auto run = [&etc] {
    GridSchedulingService service(traced_config(4));
    (void)service.schedule_batch(etc, BatchContext::identity(etc, 1));
    (void)service.schedule_batch(etc, BatchContext::identity(etc, 2));
    return records_without_timing(service);
  };
  const std::string first = run();
  const std::string second = run();
  EXPECT_NE(first.find("race "), std::string::npos);
  EXPECT_EQ(first, second);
}

TEST(ServiceObservability, PortfolioWinsSumToRaces) {
  GridSchedulingService service(traced_config(2));
  const EtcMatrix etc = obs_instance(20, 6);
  (void)service.schedule_batch(etc);
  for (int shard = 0; shard < 2; ++shard) {
    const PortfolioBatchScheduler& portfolio = service.shard_scheduler(shard);
    EXPECT_EQ(portfolio.activations().size(), 1u) << "shard " << shard;
    std::size_t wins = 0;
    for (const MemberStats& stat : portfolio.member_stats()) {
      wins += static_cast<std::size_t>(stat.wins);
    }
    EXPECT_EQ(wins, portfolio.activations().size()) << "shard " << shard;
  }
}

}  // namespace
}  // namespace gridsched
