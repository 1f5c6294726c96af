#include "obs/bench_diff.h"

#include <cmath>
#include <limits>
#include <map>
#include <ostream>
#include <sstream>
#include <utility>

#include "benchutil/table.h"
#include "obs/bench_report.h"

namespace gridsched::obs {

namespace {

bool contains(std::string_view haystack, std::string_view needle) {
  return haystack.find(needle) != std::string_view::npos;
}

bool ends_with(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.substr(text.size() - suffix.size()) == suffix;
}

bool is_ci_companion(std::string_view name) { return ends_with(name, "_ci"); }

/// One verdict's metrics, split into base metrics and their CI companions.
struct ParsedVerdict {
  bool ok = true;
  std::map<std::string, double> metrics;
  std::map<std::string, double> cis;  // keyed by the base metric's name
  std::map<std::string, LatencyHistogram> histograms;
};

struct ParsedBench {
  std::string bench;
  bool ok = true;
  // Insertion order preserved separately so the diff table follows the
  // bench's own verdict order, not lexicographic.
  std::vector<std::string> order;
  std::map<std::string, ParsedVerdict> verdicts;
};

/// Resolves a `_ci` companion to its base metric within `metrics`:
/// `makespan_ci` belongs to `makespan_pct`, `miss_ci` to `miss_pp`,
/// falling back to the bare stem.
std::string ci_base_key(std::string_view ci_name,
                        const std::map<std::string, double>& metrics) {
  const std::string stem(ci_name.substr(0, ci_name.size() - 3));
  for (const char* suffix : {"_pct", "_pp", ""}) {
    const std::string key = stem + suffix;
    if (metrics.count(key) != 0) return key;
  }
  return stem;
}

std::optional<ParsedBench> parse_bench(const JsonValue& root,
                                       std::string* error) {
  const auto fail = [&](const std::string& message) {
    if (error != nullptr) *error = message;
    return std::nullopt;
  };
  if (!root.is_object()) return fail("bench report is not a JSON object");
  const JsonValue* bench = root.find("bench");
  const JsonValue* ok = root.find("ok");
  const JsonValue* verdicts = root.find("verdicts");
  if (bench == nullptr || !bench->is_string() || ok == nullptr ||
      !ok->is_bool() || verdicts == nullptr || !verdicts->is_array()) {
    return fail("bench report missing bench/ok/verdicts members");
  }
  ParsedBench parsed;
  parsed.bench = bench->as_string();
  parsed.ok = ok->as_bool();
  for (const JsonValue& entry : verdicts->as_array()) {
    if (!entry.is_object()) return fail("verdict entry is not an object");
    const JsonValue* name = entry.find("name");
    const JsonValue* verdict_ok = entry.find("ok");
    const JsonValue* metrics = entry.find("metrics");
    if (name == nullptr || !name->is_string() || verdict_ok == nullptr ||
        !verdict_ok->is_bool() || metrics == nullptr ||
        !metrics->is_object()) {
      return fail("verdict entry missing name/ok/metrics members");
    }
    ParsedVerdict verdict;
    verdict.ok = verdict_ok->as_bool();
    for (const auto& [key, value] : metrics->as_object()) {
      // Null metrics (serialized non-finite values) are skipped: there is
      // nothing numeric to compare.
      if (!value.is_number()) continue;
      verdict.metrics[key] = value.as_number();
    }
    // Second pass so a companion resolves no matter the member order.
    for (auto it = verdict.metrics.begin(); it != verdict.metrics.end();) {
      if (is_ci_companion(it->first)) {
        verdict.cis[ci_base_key(it->first, verdict.metrics)] = it->second;
        it = verdict.metrics.erase(it);
      } else {
        ++it;
      }
    }
    if (const JsonValue* histograms = entry.find("histograms");
        histograms != nullptr && histograms->is_object()) {
      for (const auto& [key, value] : histograms->as_object()) {
        if (auto histogram = histogram_from_json(value)) {
          verdict.histograms.emplace(key, *std::move(histogram));
        }
      }
    }
    parsed.order.push_back(name->as_string());
    parsed.verdicts.emplace(name->as_string(), std::move(verdict));
  }
  return parsed;
}

double signed_delta_pct(double baseline, double candidate) {
  if (baseline == 0.0) {
    return candidate == 0.0 ? 0.0
                            : std::numeric_limits<double>::quiet_NaN();
  }
  return (candidate - baseline) / std::abs(baseline) * 100.0;
}

bool intervals_overlap(double a, double a_half, double b, double b_half) {
  return a - a_half <= b + b_half && b - b_half <= a + a_half;
}

}  // namespace

MetricClass classify_metric(std::string_view name,
                            const DiffOptions& options) {
  if (contains(name, "bound") || contains(name, "tolerance")) {
    return MetricClass::kInformational;
  }
  if (!options.gate_time &&
      (ends_with(name, "_ms") || ends_with(name, "_us") ||
       ends_with(name, "_ns") || contains(name, "overshoot"))) {
    return MetricClass::kInformational;
  }
  if (contains(name, "per_run")) return MetricClass::kInformational;
  return MetricClass::kGated;
}

bool metric_higher_is_better(std::string_view name) {
  for (const char* token : {"speedup", "throughput", "utilization",
                            "completed", "best_effort"}) {
    if (contains(name, token)) return true;
  }
  return false;
}

std::optional<DiffReport> diff_bench_reports(const JsonValue& baseline,
                                             const JsonValue& candidate,
                                             const DiffOptions& options,
                                             std::string* error) {
  const std::optional<ParsedBench> base = parse_bench(baseline, error);
  if (!base) {
    if (error != nullptr) *error = "baseline: " + *error;
    return std::nullopt;
  }
  const std::optional<ParsedBench> cand = parse_bench(candidate, error);
  if (!cand) {
    if (error != nullptr) *error = "candidate: " + *error;
    return std::nullopt;
  }

  DiffReport report;
  report.bench = cand->bench;
  if (base->bench != cand->bench) {
    report.notes.push_back("comparing different benches: baseline '" +
                           base->bench + "' vs candidate '" + cand->bench +
                           "'");
  }
  if (base->ok && !cand->ok) {
    report.notes.push_back(
        "REGRESSION: bench-level ok flipped true -> false");
    report.regression = true;
  }

  for (const std::string& name : base->order) {
    const ParsedVerdict& bv = base->verdicts.at(name);
    const auto cit = cand->verdicts.find(name);
    if (cit == cand->verdicts.end()) {
      report.notes.push_back("verdict '" + name +
                             "' present only in baseline (coverage lost?)");
      continue;
    }
    const ParsedVerdict& cv = cit->second;
    if (bv.ok && !cv.ok) {
      report.notes.push_back("REGRESSION: verdict '" + name +
                             "' ok flipped true -> false");
      report.regression = true;
    } else if (!bv.ok && cv.ok) {
      report.notes.push_back("verdict '" + name +
                             "' ok flipped false -> true (fixed)");
    }

    for (const auto& [metric, base_value] : bv.metrics) {
      const auto mit = cv.metrics.find(metric);
      if (mit == cv.metrics.end()) {
        report.notes.push_back("metric '" + name + "/" + metric +
                               "' present only in baseline");
        continue;
      }
      MetricDiff row;
      row.verdict = name;
      row.metric = metric;
      row.baseline = base_value;
      row.candidate = mit->second;
      row.delta_pct = signed_delta_pct(base_value, mit->second);
      row.klass = classify_metric(metric, options);
      row.higher_is_better = metric_higher_is_better(metric);
      if (const auto ci = bv.cis.find(metric); ci != bv.cis.end()) {
        row.baseline_ci = ci->second;
      }
      if (const auto ci = cv.cis.find(metric); ci != cv.cis.end()) {
        row.candidate_ci = ci->second;
      }
      if (row.baseline_ci && row.candidate_ci) {
        row.ci_overlap = intervals_overlap(row.baseline, *row.baseline_ci,
                                           row.candidate, *row.candidate_ci);
      }

      if (row.klass == MetricClass::kInformational) {
        row.status = "info";
      } else {
        const double bad_shift =
            row.higher_is_better ? row.baseline - row.candidate
                                 : row.candidate - row.baseline;
        // Percentage change in the bad direction; a zero baseline with a
        // nonzero candidate is an unquantifiable shift — gate on the
        // tolerance being finite, i.e. always beyond it.
        const double bad_pct =
            std::isnan(row.delta_pct)
                ? (bad_shift > 0.0 ? std::numeric_limits<double>::infinity()
                                   : 0.0)
                : (row.higher_is_better ? -row.delta_pct : row.delta_pct);
        const bool beyond_tolerance = bad_pct > options.tolerance_pct;
        const bool distinguishable = !row.ci_overlap.value_or(false);
        if (beyond_tolerance && distinguishable) {
          row.regression = true;
          row.status = "REGRESSION";
          report.regression = true;
        } else if (bad_pct < -options.tolerance_pct && distinguishable) {
          row.status = "improved";
        } else {
          row.status = "ok";
        }
      }
      report.rows.push_back(std::move(row));
    }
    for (const auto& [metric, value] : cv.metrics) {
      (void)value;
      if (bv.metrics.count(metric) == 0) {
        report.notes.push_back("metric '" + name + "/" + metric +
                               "' present only in candidate");
      }
    }

    // Histogram tails travel as full distributions; surface p99 movement
    // as a note (bucket-resolution values, never gated).
    for (const auto& [metric, base_hist] : bv.histograms) {
      const auto hit = cv.histograms.find(metric);
      if (hit == cv.histograms.end()) continue;
      const double base_p99 = base_hist.p99();
      const double cand_p99 = hit->second.p99();
      if (base_p99 == cand_p99) continue;
      std::ostringstream note;
      note << "histogram '" << name << "/" << metric << "' p99 "
           << TablePrinter::num(base_p99, 3) << " -> "
           << TablePrinter::num(cand_p99, 3);
      if (base_hist.percentile_overflows(99.0) ||
          hit->second.percentile_overflows(99.0)) {
        note << " (tail overflows range)";
      }
      report.notes.push_back(note.str());
    }
  }
  for (const std::string& name : cand->order) {
    if (base->verdicts.count(name) == 0) {
      report.notes.push_back("verdict '" + name +
                             "' present only in candidate (new coverage)");
    }
  }
  return report;
}

void print_diff_report(const DiffReport& report, std::ostream& out) {
  out << "bench_diff: " << report.bench << "\n";
  TablePrinter table(
      {"verdict", "metric", "baseline", "candidate", "delta %", "ci95",
       "status"});
  for (const MetricDiff& row : report.rows) {
    std::string ci = "-";
    if (row.ci_overlap.has_value()) {
      ci = *row.ci_overlap ? "overlap" : "disjoint";
    }
    table.add_row({row.verdict, row.metric, TablePrinter::num(row.baseline, 3),
                   TablePrinter::num(row.candidate, 3),
                   std::isnan(row.delta_pct)
                       ? std::string("n/a")
                       : TablePrinter::pct(row.delta_pct, 2),
                   ci, row.status});
  }
  table.print(out);
  for (const std::string& note : report.notes) {
    out << "note: " << note << "\n";
  }
  out << "bench_diff: " << (report.regression ? "REGRESSION" : "OK") << "\n";
}

}  // namespace gridsched::obs
