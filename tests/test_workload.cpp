#include "workload/workload_source.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "portfolio/member.h"
#include "sim/grid_simulator.h"
#include "workload/swf_io.h"
#include "workload/trace_io.h"

namespace gridsched {
namespace {

std::string fixture(const std::string& name) {
  return std::string(GRIDSCHED_TEST_DATA_DIR) + "/" + name;
}

bool sorted_by_arrival(const std::vector<TraceJob>& jobs) {
  return std::is_sorted(jobs.begin(), jobs.end(),
                        [](const TraceJob& a, const TraceJob& b) {
                          return a.arrival < b.arrival;
                        });
}

// ------------------------------------------------------- trace parsing --

TEST(TraceIo, ReadsTwoColumnFixture) {
  const std::vector<TraceJob> jobs =
      read_trace_file(fixture("trace_no_class.csv"));
  ASSERT_EQ(jobs.size(), 3u);
  EXPECT_DOUBLE_EQ(jobs[0].arrival, 0.5);
  EXPECT_DOUBLE_EQ(jobs[0].workload_mi, 1000.0);
  EXPECT_EQ(jobs[0].job_class, -1);
  EXPECT_DOUBLE_EQ(jobs[1].workload_mi, 2500.75);
  EXPECT_DOUBLE_EQ(jobs[2].arrival, 7.0);
}

TEST(TraceIo, ReadsClassColumnWithEmptyFieldAsUnclassed) {
  const std::vector<TraceJob> jobs =
      read_trace_file(fixture("trace_with_class.csv"));
  ASSERT_EQ(jobs.size(), 4u);
  EXPECT_EQ(jobs[0].job_class, 0);
  EXPECT_EQ(jobs[1].job_class, 2);
  EXPECT_EQ(jobs[2].job_class, -1);  // empty field
  EXPECT_EQ(jobs[3].job_class, 1);
}

TEST(TraceIo, SortsOutOfOrderArrivalsStably) {
  const std::vector<TraceJob> jobs =
      read_trace_file(fixture("trace_out_of_order.csv"));
  ASSERT_EQ(jobs.size(), 4u);
  EXPECT_TRUE(sorted_by_arrival(jobs));
  // Stable: the two ties at t=1 keep their file order (200 before 400).
  EXPECT_DOUBLE_EQ(jobs[0].workload_mi, 200.0);
  EXPECT_DOUBLE_EQ(jobs[1].workload_mi, 400.0);
  EXPECT_DOUBLE_EQ(jobs[3].arrival, 5.0);
}

TEST(TraceIo, MalformedRowThrowsNamingTheLine) {
  try {
    (void)read_trace_file(fixture("trace_malformed.csv"));
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("line 3"), std::string::npos)
        << error.what();
  }
}

TEST(TraceIo, EmptyTraceIsValid) {
  EXPECT_TRUE(read_trace_file(fixture("trace_empty.csv")).empty());
}

TEST(TraceIo, HeaderIsOptional) {
  std::istringstream in("0.5,100\n1.5,200\n");
  const std::vector<TraceJob> jobs = read_trace(in);
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_DOUBLE_EQ(jobs[1].arrival, 1.5);
}

TEST(TraceIo, RejectsBadRows) {
  std::istringstream wrong_columns("arrival,workload_mi\n1.0,2.0,3,4\n");
  EXPECT_THROW((void)read_trace(wrong_columns), std::runtime_error);
  std::istringstream mixed_columns("0.5,100,1\n1.0,200\n");
  EXPECT_THROW((void)read_trace(mixed_columns), std::runtime_error);
  std::istringstream negative_arrival("-1.0,100\n");
  EXPECT_THROW((void)read_trace(negative_arrival), std::runtime_error);
  std::istringstream zero_size("1.0,0\n");
  EXPECT_THROW((void)read_trace(zero_size), std::runtime_error);
  std::istringstream bad_class("1.0,100,fast\n");
  EXPECT_THROW((void)read_trace(bad_class), std::runtime_error);
  // from_chars parses "nan"/"inf" as doubles; the validator must still
  // reject them (a NaN arrival breaks sorting and strands the job) —
  // even in the first row, which the optional-header heuristic must not
  // swallow (a header is a row that does NOT parse as a double).
  std::istringstream nan_arrival("0.5,100\nnan,100\n");
  EXPECT_THROW((void)read_trace(nan_arrival), std::runtime_error);
  std::istringstream nan_first_row("nan,100\n");
  EXPECT_THROW((void)read_trace(nan_first_row), std::runtime_error);
  std::istringstream inf_size("1.0,inf\n");
  EXPECT_THROW((void)read_trace(inf_size), std::runtime_error);
  std::istringstream empty_first_field(",100\n");
  EXPECT_THROW((void)read_trace(empty_first_field), std::runtime_error);
}

TEST(TraceIo, WriteReadRoundTripIsExact) {
  std::vector<TraceJob> jobs;
  Rng rng(33);
  for (int i = 0; i < 50; ++i) {
    TraceJob job;
    job.arrival = static_cast<double>(i) + rng.uniform();
    job.workload_mi = std::exp(rng.normal(10.0, 0.8));
    job.job_class = i % 3 == 0 ? -1 : i % 3;
    jobs.push_back(job);
  }
  std::ostringstream out;
  write_trace(out, jobs);
  std::istringstream in(out.str());
  const std::vector<TraceJob> back = read_trace(in);
  ASSERT_EQ(back.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(back[i], jobs[i]) << "job " << i << " mutated in round-trip";
  }
}

TEST(TraceIo, ClasslessTraceOmitsTheClassColumn) {
  const std::vector<TraceJob> jobs = {{1.0, 100.0, -1}, {2.0, 200.0, -1}};
  std::ostringstream out;
  write_trace(out, jobs);
  EXPECT_EQ(out.str().find("class"), std::string::npos);
}

// ------------------------------------------------- trace robustness --

TEST(TraceIo, CrlfAndMissingFinalNewlineParse) {
  // Golden CRLF fixture: DOS line endings on every row and no newline
  // after the last one — the shape of real SWF/cluster logs.
  const std::vector<TraceJob> jobs =
      read_trace_file(fixture("trace_crlf.csv"));
  ASSERT_EQ(jobs.size(), 3u);
  EXPECT_DOUBLE_EQ(jobs[0].arrival, 0.5);
  EXPECT_DOUBLE_EQ(jobs[0].workload_mi, 22026.465794806718);
  EXPECT_EQ(jobs[0].job_class, 1);
  EXPECT_EQ(jobs[1].job_class, -1);  // empty field before the \r
  EXPECT_DOUBLE_EQ(jobs[2].arrival, 2.0);  // final row, no newline
  EXPECT_DOUBLE_EQ(jobs[2].workload_mi, 5000.0);
}

TEST(TraceIo, ErrorLineNumbersCountCommentAndBlankLines) {
  // trace_comments.csv interleaves '#'/';' comments and a blank line;
  // the bad row (NaN size) sits on PHYSICAL line 8 and the error must
  // say so — an editor's goto-line lands on the culprit.
  try {
    (void)read_trace_file(fixture("trace_comments.csv"));
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("trace line 8"),
              std::string::npos)
        << error.what();
  }
}

TEST(TraceIo, Utf8BomIsIgnored) {
  std::istringstream in("\xEF\xBB\xBF"
                        "arrival,workload_mi\n0.5,100\n");
  const std::vector<TraceJob> jobs = read_trace(in);
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_DOUBLE_EQ(jobs[0].arrival, 0.5);
}

TEST(TraceIo, MalformedCorpusThrowsNamingTheLine) {
  // Each corpus entry is (input, line the error must name). Covers the
  // trace-I/O bug-sweep shapes: truncated row, NaN/inf arrival, negative
  // size, mixed column counts.
  const struct {
    const char* label;
    std::string input;
    const char* line;
  } corpus[] = {
      {"truncated row", "0.5,100\n1.5,\n", "trace line 2"},
      {"nan arrival", "0.5,100\nnan,100\n", "trace line 2"},
      {"inf arrival", "inf,100\n", "trace line 1"},
      {"negative size", "# hdr\n0.5,-7\n", "trace line 2"},
      {"mixed columns", "0.5,100,1\n1.0,200\n", "trace line 2"},
      {"single column", "arrival\n", "trace line 1"},
  };
  for (const auto& bad : corpus) {
    std::istringstream in(bad.input);
    try {
      (void)read_trace(in);
      FAIL() << bad.label << ": expected std::runtime_error";
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what()).find(bad.line), std::string::npos)
          << bad.label << ": " << error.what();
    }
  }
}

TEST(TraceIo, OversizedLineThrowsNamingTheLine) {
  // A corrupt (or binary) "line" past kMaxTraceLineBytes must throw with
  // the line number instead of ballooning memory mid-stream.
  std::string input = "0.5,100\n1.5,";
  input.append(kMaxTraceLineBytes + 10, '9');
  std::istringstream in(input);
  try {
    (void)read_trace(in);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("trace line 2"),
              std::string::npos)
        << error.what();
  }
}

// ------------------------------------------------- streaming reader --

TEST(StreamingTrace, ChunkedPullMatchesReadTrace) {
  // Same bytes through the streaming reader (pulled in small time
  // slices) and through read_trace: identical job sequence, including
  // the stable order of equal arrivals.
  std::ifstream materialized(fixture("trace_out_of_order.csv"));
  const std::vector<TraceJob> expected = read_trace(materialized);
  std::ifstream in(fixture("trace_out_of_order.csv"));
  StreamingTraceReader reader(in, /*reorder_window=*/4);
  std::vector<TraceJob> streamed;
  double until = 0.0;
  bool more = true;
  while (more) {
    more = reader.next_chunk(until, streamed);
    until += 1.0;
  }
  EXPECT_EQ(streamed, expected);
  EXPECT_EQ(reader.name(), "trace_stream");
}

TEST(StreamingTrace, OutOfOrderBeyondTheWindowThrows) {
  // Row at t=1 lands after 4 later rows have flushed a released row
  // past it — the bounded window cannot absorb it, so the reader names
  // the line instead of silently reordering.
  std::istringstream in("10,100\n11,100\n12,100\n13,100\n14,100\n1,100\n");
  StreamingTraceReader reader(in, /*reorder_window=*/2);
  std::vector<TraceJob> out;
  try {
    while (reader.next_chunk(1e9, out)) {
    }
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("reorder window"),
              std::string::npos)
        << error.what();
  }
}

TEST(StreamingTrace, QosFlagsFollowTheColumnCount) {
  std::istringstream plain("0.5,100,1\n");
  StreamingTraceReader no_qos(plain);
  EXPECT_FALSE(no_qos.qos().deadlines);
  EXPECT_FALSE(no_qos.qos().budgets);
  std::istringstream deadlines("0.5,100,1,9.5\n");
  StreamingTraceReader with_deadlines(deadlines);
  EXPECT_TRUE(with_deadlines.qos().deadlines);
  EXPECT_FALSE(with_deadlines.qos().budgets);
  std::istringstream budgets("0.5,100,1,9.5,12\n");
  StreamingTraceReader with_budgets(budgets);
  EXPECT_TRUE(with_budgets.qos().deadlines);
  EXPECT_TRUE(with_budgets.qos().budgets);
}

TEST(StreamingTrace, PeakBufferedStaysWithinTheWindowBound) {
  std::ostringstream out;
  std::vector<TraceJob> jobs;
  for (int i = 0; i < 5'000; ++i) {
    jobs.push_back({static_cast<double>(i) * 0.1, 100.0, -1});
  }
  write_trace(out, jobs);
  std::istringstream in(out.str());
  StreamingTraceReader reader(in, /*reorder_window=*/64);
  std::vector<TraceJob> streamed;
  while (reader.next_chunk(1e9, streamed)) {
  }
  ASSERT_EQ(streamed.size(), jobs.size());
  // The O(1)-memory contract: never more than window + 1 rows resident.
  EXPECT_LE(reader.peak_buffered(), 65u);
}

// ----------------------------------------------- churn sidecar trace --

TEST(ChurnTraceIo, RoundTripPreservesOrderAndValues) {
  // Application order is the replay contract, so the reader must NOT
  // sort: these events interleave machines with non-monotonic fail_at
  // inside a window, exactly like a recorded run.
  const std::vector<ChurnEvent> events = {
      {3, 47.25, 61.5},
      {1, 42.125, 90.0},
      {3, 95.5, 95.5},  // zero-length outage is legal
      {0, 130.0, 171.25},
  };
  std::ostringstream out;
  write_churn_trace(out, events);
  std::istringstream in(out.str());
  const std::vector<ChurnEvent> back = read_churn_trace(in);
  EXPECT_EQ(back, events);
}

TEST(ChurnTraceIo, RejectsMalformedRows) {
  const struct {
    const char* label;
    std::string input;
    const char* line;
  } corpus[] = {
      {"wrong columns", "3,47.5\n", "trace line 1"},
      {"negative machine", "machine,fail_at,repair_at\n-2,1,2\n",
       "trace line 2"},
      {"repair before fail", "1,10,4\n", "trace line 1"},
      {"nan fail", "1,nan,4\n", "trace line 1"},
      {"negative fail", "1,-3,4\n", "trace line 1"},
  };
  for (const auto& bad : corpus) {
    std::istringstream in(bad.input);
    try {
      (void)read_churn_trace(in);
      FAIL() << bad.label << ": expected std::runtime_error";
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what()).find(bad.line), std::string::npos)
          << bad.label << ": " << error.what();
    }
  }
}

TEST(ChurnTraceIo, EmptyTraceIsValid) {
  std::istringstream in("# gridsched churn trace v1, 0 events\n");
  EXPECT_TRUE(read_churn_trace(in).empty());
}

// ------------------------------------------------------- SWF import --

TEST(SwfIo, ExcerptFixtureMapsTheColumns) {
  std::size_t skipped = 0;
  const std::vector<TraceJob> jobs =
      read_swf_file(fixture("swf_excerpt.swf"), SwfMapping{}, &skipped);
  // 24 rows, two unusable (cancelled run time / missing submit).
  ASSERT_EQ(jobs.size(), 22u);
  EXPECT_EQ(skipped, 2u);
  EXPECT_TRUE(sorted_by_arrival(jobs));
  // Rebase: the first job's submit time becomes arrival 0.
  EXPECT_DOUBLE_EQ(jobs[0].arrival, 0.0);
  // run time 118 s * reference 1000 MIPS.
  EXPECT_DOUBLE_EQ(jobs[0].workload_mi, 118'000.0);
  // requested time 600 -> absolute deadline arrival + 600.
  EXPECT_DOUBLE_EQ(jobs[0].deadline, 600.0);
  EXPECT_EQ(jobs[0].user, 11);
  EXPECT_EQ(jobs[0].job_class, 0);  // queue column
  EXPECT_DOUBLE_EQ(jobs[0].budget, -1.0);  // SWF has no budget column
  // Log row 6 (submit ...829) interleaves before row 5 (...831): the
  // stable sort puts it first.
  EXPECT_DOUBLE_EQ(jobs[4].arrival, 29.0);
  EXPECT_DOUBLE_EQ(jobs[4].workload_mi, 201'000.0);
  EXPECT_DOUBLE_EQ(jobs[5].arrival, 31.0);
  // Requested time -1 -> no deadline (log row 4).
  EXPECT_DOUBLE_EQ(jobs[3].arrival, 22.0);
  EXPECT_DOUBLE_EQ(jobs[3].deadline, -1.0);
  // User -1 -> anonymous (log row 8).
  EXPECT_DOUBLE_EQ(jobs[6].arrival, 51.0);
  EXPECT_EQ(jobs[6].user, -1);
}

TEST(SwfIo, MappingKnobsSelectClassSourceAndToggles) {
  SwfMapping mapping;
  mapping.reference_mips = 500.0;
  mapping.class_from = SwfMapping::ClassFrom::kPartition;
  mapping.map_deadline = false;
  mapping.map_user = false;
  mapping.rebase_arrivals = false;
  const std::vector<TraceJob> jobs =
      read_swf_file(fixture("swf_excerpt.swf"), mapping);
  ASSERT_EQ(jobs.size(), 22u);
  EXPECT_DOUBLE_EQ(jobs[0].arrival, 1117564800.0);  // raw epoch kept
  EXPECT_DOUBLE_EQ(jobs[0].workload_mi, 59'000.0);  // 118 s * 500 MIPS
  EXPECT_EQ(jobs[0].job_class, 1);                  // partition column
  EXPECT_DOUBLE_EQ(jobs[0].deadline, -1.0);
  EXPECT_EQ(jobs[0].user, -1);
}

TEST(SwfIo, StreamingReaderMatchesTheMaterializedImport) {
  std::size_t skipped = 0;
  const std::vector<TraceJob> expected =
      read_swf_file(fixture("swf_excerpt.swf"), SwfMapping{}, &skipped);
  std::ifstream in(fixture("swf_excerpt.swf"));
  SwfStreamReader reader(in);
  std::vector<TraceJob> streamed;
  double until = 0.0;
  bool more = true;
  while (more) {
    more = reader.next_chunk(until, streamed);
    until += 13.0;
  }
  EXPECT_EQ(streamed, expected);
  EXPECT_EQ(reader.skipped_rows(), skipped);
  EXPECT_TRUE(reader.qos().deadlines);
  // No budget column, but mapped user ids ride the budget context —
  // declared so streaming matches the materialized QoS scan.
  EXPECT_TRUE(reader.qos().budgets);
}

TEST(SwfIo, MalformedRowsThrowNamingTheLine) {
  const struct {
    const char* label;
    std::string input;
    const char* line;
  } corpus[] = {
      {"wrong column count", "; hdr\n1 0 -1 10 1 -1 -1 1\n", "trace line 2"},
      {"non-numeric submit",
       "1 zero -1 10 1 -1 -1 1 60 -1 1 2 3 -1 0 1 -1 -1\n", "trace line 1"},
      {"nan run time",
       "1 0 -1 nan 1 -1 -1 1 60 -1 1 2 3 -1 0 1 -1 -1\n", "trace line 1"},
  };
  for (const auto& bad : corpus) {
    std::istringstream in(bad.input);
    try {
      (void)read_swf(in);
      FAIL() << bad.label << ": expected std::runtime_error";
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what()).find(bad.line), std::string::npos)
          << bad.label << ": " << error.what();
    }
  }
  EXPECT_THROW((void)read_swf_file("/nonexistent.swf"), std::runtime_error);
  std::istringstream ok("1 0 -1 10 1 -1 -1 1 60 -1 1 2 3 -1 0 1 -1 -1\n");
  SwfMapping bad_mapping;
  bad_mapping.reference_mips = 0.0;
  EXPECT_THROW((void)read_swf(ok, bad_mapping), std::invalid_argument);
}

TEST(SwfIo, WriteSwfRowRoundTripsThroughTheImporter) {
  std::ostringstream out;
  write_swf_row(out, 1, 100.0, 50.0, /*procs=*/4, /*user=*/7, /*queue=*/2,
                /*requested=*/300.0);
  write_swf_row(out, 2, 160.0, 25.0, 1, -1, 0, -1.0);
  std::istringstream in(out.str());
  SwfMapping mapping;
  mapping.rebase_arrivals = false;
  const std::vector<TraceJob> jobs = read_swf(in, mapping);
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_DOUBLE_EQ(jobs[0].arrival, 100.0);
  EXPECT_DOUBLE_EQ(jobs[0].workload_mi, 50'000.0);
  EXPECT_EQ(jobs[0].job_class, 2);
  EXPECT_DOUBLE_EQ(jobs[0].deadline, 400.0);
  EXPECT_EQ(jobs[0].user, 7);
  EXPECT_DOUBLE_EQ(jobs[1].deadline, -1.0);
  EXPECT_EQ(jobs[1].user, -1);
}

// -------------------------------------------------- synthetic sources --

std::vector<TraceJob> generate(WorkloadSource& source, double horizon,
                               std::uint64_t seed = 5) {
  Rng rng(seed);
  Rng arrival_rng = rng.split();
  Rng workload_rng = rng.split();
  return source.generate(horizon, arrival_rng, workload_rng);
}

TEST(WorkloadSources, EveryKindGeneratesAValidStreamAtMatchedLoad) {
  const double horizon = 2'000.0;
  const double rate = 0.5;
  for (const WorkloadKind kind : all_workload_kinds()) {
    const auto source = make_workload(kind, rate, horizon);
    EXPECT_EQ(source->name(), workload_name(kind));
    const std::vector<TraceJob> jobs = generate(*source, horizon);
    ASSERT_FALSE(jobs.empty()) << workload_name(kind);
    EXPECT_TRUE(sorted_by_arrival(jobs)) << workload_name(kind);
    for (const TraceJob& job : jobs) {
      ASSERT_GE(job.arrival, 0.0);
      ASSERT_LT(job.arrival, horizon);
      ASSERT_GT(job.workload_mi, 0.0);
    }
    // Calibration: expected volume = rate * horizon = 1000 jobs. Bursty
    // gets a much wider band — its phases scale with the horizon (~3
    // on/off cycles whatever the length), so phase luck moves the
    // realized count by multiples, not percent.
    const double count = static_cast<double>(jobs.size());
    const bool bursty = kind == WorkloadKind::kBursty;
    EXPECT_GT(count, (bursty ? 0.2 : 0.45) * rate * horizon)
        << workload_name(kind);
    EXPECT_LT(count, (bursty ? 4.0 : 1.8) * rate * horizon)
        << workload_name(kind);
  }
}

TEST(WorkloadSources, GenerationIsDeterministicInTheSeed) {
  for (const WorkloadKind kind : all_workload_kinds()) {
    const auto source = make_workload(kind, 0.5, 500.0);
    EXPECT_EQ(generate(*source, 500.0, 9), generate(*source, 500.0, 9))
        << workload_name(kind);
  }
}

TEST(WorkloadSources, BurstyConcentratesArrivalsMoreThanPoisson) {
  // Dispersion test: cut the horizon into windows; an on/off process has a
  // much higher variance-to-mean ratio of per-window counts than Poisson
  // (for which it is ~1).
  const double horizon = 4'000.0;
  const auto dispersion = [&](WorkloadKind kind) {
    const auto source = make_workload(kind, 0.5, horizon);
    const std::vector<TraceJob> jobs = generate(*source, horizon, 3);
    const int windows = 40;
    std::vector<double> counts(windows, 0.0);
    for (const TraceJob& job : jobs) {
      const int w = std::min(
          windows - 1, static_cast<int>(job.arrival / horizon *
                                        static_cast<double>(windows)));
      counts[static_cast<std::size_t>(w)] += 1.0;
    }
    double mean = 0.0;
    for (const double c : counts) mean += c;
    mean /= windows;
    double var = 0.0;
    for (const double c : counts) var += (c - mean) * (c - mean);
    var /= windows - 1;
    return var / mean;
  };
  EXPECT_GT(dispersion(WorkloadKind::kBursty),
            3.0 * dispersion(WorkloadKind::kPoisson));
}

TEST(WorkloadSources, DiurnalPeaksWhereTheSineDoes) {
  // period = horizon / 2 and phase 0: the first quarter-cycle [0, h/8) is
  // the rising peak, [h/4, 3h/8) the trough.
  const double horizon = 8'000.0;
  const auto source = make_workload(WorkloadKind::kDiurnal, 0.5, horizon);
  const std::vector<TraceJob> jobs = generate(*source, horizon, 11);
  int peak = 0;
  int trough = 0;
  for (const TraceJob& job : jobs) {
    if (job.arrival < horizon / 8.0) ++peak;
    if (job.arrival >= horizon / 4.0 && job.arrival < 3.0 * horizon / 8.0) {
      ++trough;
    }
  }
  EXPECT_GT(peak, 2 * trough);
}

TEST(WorkloadSources, FlashCrowdSpikesInsideItsWindow) {
  const double horizon = 4'000.0;
  const auto source = make_workload(WorkloadKind::kFlashCrowd, 0.5, horizon);
  const std::vector<TraceJob> jobs = generate(*source, horizon, 13);
  // Default window [0.4, 0.5) * horizon at 5x the base rate; compare with
  // the same-sized window right before it.
  int inside = 0;
  int before = 0;
  for (const TraceJob& job : jobs) {
    const double frac = job.arrival / horizon;
    if (frac >= 0.4 && frac < 0.5) ++inside;
    if (frac >= 0.3 && frac < 0.4) ++before;
  }
  EXPECT_GT(inside, 3 * before);
}

TEST(WorkloadSources, HeavyTailHasElephants) {
  const double horizon = 4'000.0;
  const auto pareto = make_workload(WorkloadKind::kHeavyTail, 0.5, horizon);
  const std::vector<TraceJob> jobs = generate(*pareto, horizon, 17);
  std::vector<double> sizes;
  for (const TraceJob& job : jobs) sizes.push_back(job.workload_mi);
  std::sort(sizes.begin(), sizes.end());
  const double median = sizes[sizes.size() / 2];
  const double max = sizes.back();
  // A LogNormal(10, 0.8) max/median over ~2000 draws sits around 10-20x;
  // the bounded Pareto's elephants dwarf that.
  EXPECT_GT(max / median, 50.0);
}

TEST(TraceWorkloadSource, FiltersToTheHorizonAndIgnoresRngs) {
  TraceWorkloadSource source({{1.0, 10.0, -1}, {5.0, 20.0, -1},
                              {50.0, 30.0, -1}});
  const std::vector<TraceJob> jobs = generate(source, 10.0);
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_DOUBLE_EQ(jobs[1].arrival, 5.0);
}

// --------------------------------------------- simulator integration --

SimConfig replay_sim() {
  SimConfig config;
  config.horizon = 400.0;
  config.arrival_rate = 0.5;
  config.scheduler_period = 40.0;
  config.num_machines = 6;
  config.consistency_noise = 0.2;
  config.num_job_classes = 3;
  config.machine_mtbf = 150.0;  // churn must survive the round-trip too
  config.machine_mttr = 30.0;
  config.seed = 42;
  return config;
}

void expect_identical_runs(const SimMetrics& a, const SimMetrics& b,
                           const GridSimulator& sim_a,
                           const GridSimulator& sim_b) {
  // Bit-identical, not approximately equal: everything but the wall-clock
  // scheduler_cpu_ms must reproduce exactly.
  EXPECT_EQ(a.jobs_arrived, b.jobs_arrived);
  EXPECT_EQ(a.jobs_completed, b.jobs_completed);
  EXPECT_EQ(a.jobs_requeued, b.jobs_requeued);
  EXPECT_EQ(a.activations, b.activations);
  EXPECT_EQ(a.mean_flowtime, b.mean_flowtime);
  EXPECT_EQ(a.mean_wait, b.mean_wait);
  EXPECT_EQ(a.mean_slowdown, b.mean_slowdown);
  EXPECT_EQ(a.max_flowtime, b.max_flowtime);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.utilization, b.utilization);
  const auto& records_a = sim_a.job_records();
  const auto& records_b = sim_b.job_records();
  ASSERT_EQ(records_a.size(), records_b.size());
  for (std::size_t i = 0; i < records_a.size(); ++i) {
    EXPECT_EQ(records_a[i].id, records_b[i].id);
    EXPECT_EQ(records_a[i].arrival, records_b[i].arrival);
    EXPECT_EQ(records_a[i].start, records_b[i].start);
    EXPECT_EQ(records_a[i].finish, records_b[i].finish);
    EXPECT_EQ(records_a[i].machine, records_b[i].machine);
    EXPECT_EQ(records_a[i].attempts, records_b[i].attempts);
  }
}

TEST(DeterministicReplay, RecordedPoissonRunReplaysBitForBit) {
  // The tentpole regression: record a run (classes + noise + churn all
  // on), serialize the trace through text, replay it, and demand the
  // identical per-job records and metrics.
  const SimConfig config = replay_sim();
  GridSimulator recorded(config);
  MemberBatchScheduler sched_a(
      std::make_unique<HeuristicMember>(HeuristicKind::kMinMin));
  const SimMetrics original = recorded.run(sched_a);
  ASSERT_GT(original.jobs_arrived, 0);
  ASSERT_GT(original.jobs_requeued, 0) << "churn never fired; weak test";

  std::ostringstream out;
  write_trace(out, recorded.arrival_trace());
  std::istringstream in(out.str());

  SimConfig replay_config = config;
  replay_config.workload =
      std::make_shared<TraceWorkloadSource>(read_trace(in));
  GridSimulator replayed(replay_config);
  MemberBatchScheduler sched_b(
      std::make_unique<HeuristicMember>(HeuristicKind::kMinMin));
  const SimMetrics replay = replayed.run(sched_b);

  expect_identical_runs(original, replay, recorded, replayed);
}

// ----------------------------------------------------------- class mix --

TEST(ClassMixWorkload, AssignsClassesByRateWeights) {
  ClassMixWorkload mix(std::make_shared<PoissonWorkload>(5.0, LogNormalSize{}),
                       {3.0, 1.0});
  EXPECT_EQ(mix.name(), "class-mix(poisson)");
  EXPECT_EQ(mix.num_classes(), 2);
  Rng arrivals(7);
  Rng sizes(8);
  const std::vector<TraceJob> jobs = mix.generate(2'000.0, arrivals, sizes);
  ASSERT_GT(jobs.size(), 1'000u);
  int class_zero = 0;
  for (const TraceJob& job : jobs) {
    ASSERT_GE(job.job_class, 0);
    ASSERT_LT(job.job_class, 2);
    if (job.job_class == 0) ++class_zero;
  }
  // 75/25 split: with ~10k draws the observed share sits well within a
  // few percent of the weight ratio.
  const double share = static_cast<double>(class_zero) /
                       static_cast<double>(jobs.size());
  EXPECT_NEAR(share, 0.75, 0.05);
}

TEST(ClassMixWorkload, ZeroWeightClassesAreNeverDrawn) {
  ClassMixWorkload mix(std::make_shared<PoissonWorkload>(2.0, LogNormalSize{}),
                       {0.0, 1.0, 0.0});
  Rng arrivals(3);
  Rng sizes(4);
  for (const TraceJob& job : mix.generate(500.0, arrivals, sizes)) {
    EXPECT_EQ(job.job_class, 1);
  }
}

TEST(ClassMixWorkload, WrappingDoesNotPerturbTheBaseStream) {
  // The wrapper draws classes only after the base stream is materialized,
  // so arrivals and sizes are bit-identical to the unwrapped source.
  Rng arrivals_a(11);
  Rng sizes_a(12);
  PoissonWorkload plain(1.0, LogNormalSize{});
  const std::vector<TraceJob> bare = plain.generate(300.0, arrivals_a,
                                                    sizes_a);
  Rng arrivals_b(11);
  Rng sizes_b(12);
  ClassMixWorkload mix(std::make_shared<PoissonWorkload>(1.0,
                                                         LogNormalSize{}),
                       {1.0, 1.0});
  const std::vector<TraceJob> mixed = mix.generate(300.0, arrivals_b,
                                                   sizes_b);
  ASSERT_EQ(bare.size(), mixed.size());
  for (std::size_t i = 0; i < bare.size(); ++i) {
    EXPECT_EQ(bare[i].arrival, mixed[i].arrival);
    EXPECT_EQ(bare[i].workload_mi, mixed[i].workload_mi);
  }
}

TEST(ClassMixWorkload, RejectsBadWeightsAndNullBase) {
  const auto base = std::make_shared<PoissonWorkload>(1.0, LogNormalSize{});
  EXPECT_THROW(ClassMixWorkload(nullptr, {1.0}), std::invalid_argument);
  EXPECT_THROW(ClassMixWorkload(base, {}), std::invalid_argument);
  EXPECT_THROW(ClassMixWorkload(base, {1.0, -0.5}), std::invalid_argument);
  EXPECT_THROW(ClassMixWorkload(base, {0.0, 0.0}), std::invalid_argument);
}

TEST(DeterministicReplay, ClassMixRoundTripsThroughTheTraceClassColumn) {
  // The class-mix classes must survive record -> CSV -> replay verbatim:
  // trace-supplied classes win over the id hash, so the replayed run is
  // bit-identical, ETCs and all.
  SimConfig config = replay_sim();
  config.workload = std::make_shared<ClassMixWorkload>(
      std::make_shared<PoissonWorkload>(
          config.arrival_rate,
          LogNormalSize{config.workload_log_mean, config.workload_log_sigma}),
      std::vector<double>{0.6, 0.3, 0.1});
  GridSimulator recorded(config);
  MemberBatchScheduler sched_a(
      std::make_unique<HeuristicMember>(HeuristicKind::kMinMin));
  const SimMetrics original = recorded.run(sched_a);
  ASSERT_GT(original.jobs_arrived, 0);

  std::ostringstream out;
  write_trace(out, recorded.arrival_trace());
  std::istringstream in(out.str());

  SimConfig replay_config = config;
  replay_config.workload =
      std::make_shared<TraceWorkloadSource>(read_trace(in));
  GridSimulator replayed(replay_config);
  MemberBatchScheduler sched_b(
      std::make_unique<HeuristicMember>(HeuristicKind::kMinMin));
  const SimMetrics replay = replayed.run(sched_b);

  expect_identical_runs(original, replay, recorded, replayed);
  // The skew survives: class 0 dominates the recorded trace.
  int class_zero = 0;
  for (const TraceJob& job : recorded.arrival_trace()) {
    if (job.job_class == 0) ++class_zero;
  }
  EXPECT_GT(class_zero, static_cast<int>(
      recorded.arrival_trace().size() / 3));
}

TEST(DeterministicReplay, ExplicitPoissonSourceMatchesTheLegacyDefault) {
  // A SimConfig without a source and one with the equivalent
  // PoissonWorkload must be the same simulation.
  const SimConfig config = replay_sim();
  GridSimulator legacy(config);
  MemberBatchScheduler sched_a(
      std::make_unique<HeuristicMember>(HeuristicKind::kMct));
  const SimMetrics a = legacy.run(sched_a);

  SimConfig explicit_config = config;
  explicit_config.workload = std::make_shared<PoissonWorkload>(
      config.arrival_rate,
      LogNormalSize{config.workload_log_mean, config.workload_log_sigma});
  GridSimulator with_source(explicit_config);
  MemberBatchScheduler sched_b(
      std::make_unique<HeuristicMember>(HeuristicKind::kMct));
  const SimMetrics b = with_source.run(sched_b);

  expect_identical_runs(a, b, legacy, with_source);
}

TEST(GridSimulator, ArrivalTraceRecordsEffectiveClasses) {
  SimConfig config = replay_sim();
  config.machine_mtbf = 0.0;
  config.machine_mttr = 0.0;
  GridSimulator sim(config);
  MemberBatchScheduler scheduler(
      std::make_unique<HeuristicMember>(HeuristicKind::kMct));
  (void)sim.run(scheduler);
  ASSERT_FALSE(sim.arrival_trace().empty());
  for (const TraceJob& job : sim.arrival_trace()) {
    EXPECT_GE(job.job_class, 0);
    EXPECT_LT(job.job_class, config.num_job_classes);
  }
}

TEST(GridSimulator, TraceSuppliedClassesWinOverTheHash) {
  SimConfig config;
  config.horizon = 100.0;
  config.scheduler_period = 20.0;
  config.num_machines = 4;
  config.num_job_classes = 2;
  config.workload = std::make_shared<TraceWorkloadSource>(std::vector<TraceJob>{
      {1.0, 500.0, 1}, {2.0, 600.0, -1}, {3.0, 700.0, 5}});
  GridSimulator sim(config);
  MemberBatchScheduler scheduler(
      std::make_unique<HeuristicMember>(HeuristicKind::kMct));
  (void)sim.run(scheduler);
  const auto& trace = sim.arrival_trace();
  ASSERT_EQ(trace.size(), 3u);
  EXPECT_EQ(trace[0].job_class, 1);   // explicit, kept
  EXPECT_GE(trace[1].job_class, 0);   // unclassed, hash filled one in
  EXPECT_LT(trace[1].job_class, 2);
  EXPECT_EQ(trace[2].job_class, 1);   // out of range, wrapped modulo
}

TEST(GridSimulator, EmptyTraceRunsToCompletionWithZeroJobs) {
  SimConfig config;
  config.horizon = 100.0;
  config.scheduler_period = 20.0;
  config.num_machines = 2;
  config.arrival_rate = 0.0;  // meaningless (and allowed) with a source
  config.workload =
      std::make_shared<TraceWorkloadSource>(std::vector<TraceJob>{});
  GridSimulator sim(config);
  MemberBatchScheduler scheduler(
      std::make_unique<HeuristicMember>(HeuristicKind::kMct));
  const SimMetrics metrics = sim.run(scheduler);
  EXPECT_EQ(metrics.jobs_arrived, 0);
  EXPECT_EQ(metrics.jobs_completed, 0);
  EXPECT_EQ(metrics.activations, 0);
}

TEST(GridSimulator, RejectsAnInvalidSourceStream) {
  SimConfig config;
  config.horizon = 100.0;
  config.num_machines = 2;
  // TraceWorkloadSource sorts, so feed the simulator a broken stream via a
  // stub source instead.
  class BrokenSource final : public WorkloadSource {
   public:
    explicit BrokenSource(std::vector<TraceJob> jobs)
        : jobs_(std::move(jobs)) {}
    [[nodiscard]] std::string_view name() const noexcept override {
      return "broken";
    }
    [[nodiscard]] std::vector<TraceJob> generate(double, Rng&,
                                                 Rng&) override {
      return jobs_;
    }

   private:
    std::vector<TraceJob> jobs_;
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::vector<TraceJob>> broken = {
      {{5.0, 100.0, -1}, {1.0, 100.0, -1}},                    // unsorted
      {{1.0, 100.0, -1}, {nan, 100.0, -1}, {2.0, 100.0, -1}},  // NaN arrival
      {{-1.0, 100.0, -1}},                                     // negative
      {{1.0, 0.0, -1}},                                        // empty job
      {{1.0, nan, -1}},                                        // NaN size
  };
  for (const auto& jobs : broken) {
    config.workload = std::make_shared<BrokenSource>(jobs);
    GridSimulator sim(config);
    MemberBatchScheduler scheduler(
        std::make_unique<HeuristicMember>(HeuristicKind::kMct));
    EXPECT_THROW((void)sim.run(scheduler), std::runtime_error)
        << "arrival " << jobs.back().arrival;
  }
}

TEST(StreamQosOf, CountsOnlyFiniteNonNegativeColumns) {
  const double inf = std::numeric_limits<double>::infinity();
  TraceJob job{1.0, 100.0, -1};
  EXPECT_FALSE(stream_qos_of(std::vector<TraceJob>{job}).deadlines);
  job.deadline = inf;
  job.budget = inf;
  EXPECT_FALSE(stream_qos_of(std::vector<TraceJob>{job}).deadlines);
  EXPECT_FALSE(stream_qos_of(std::vector<TraceJob>{job}).budgets);
  job.deadline = 9.0;
  job.budget = 3.0;
  EXPECT_TRUE(stream_qos_of(std::vector<TraceJob>{job}).deadlines);
  EXPECT_TRUE(stream_qos_of(std::vector<TraceJob>{job}).budgets);
  job.budget = -1.0;
  job.user = 2;
  EXPECT_TRUE(stream_qos_of(std::vector<TraceJob>{job}).budgets);
  // MaterializedStream declares by the same rule.
  job.deadline = inf;
  EXPECT_FALSE(MaterializedStream({job}).qos().deadlines);
}

// ------------------------------------------------ horizon convention --

TEST(HorizonBoundary, ArrivalWindowIsHalfOpenEverywhere) {
  // THE pinned convention: [0, horizon). A job arriving exactly at the
  // horizon is dropped by every path — materialized source filtering and
  // the streaming pull alike — so record -> replay can never disagree
  // about the boundary job.
  const std::vector<TraceJob> jobs = {{9.9, 100.0, -1}, {10.0, 100.0, -1}};
  TraceWorkloadSource source(jobs);
  EXPECT_EQ(generate(source, 10.0).size(), 1u);

  SimConfig config;
  config.horizon = 10.0;
  config.scheduler_period = 5.0;
  config.num_machines = 2;
  config.workload = std::make_shared<TraceWorkloadSource>(jobs);
  GridSimulator materialized(config);
  MemberBatchScheduler sched_a(
      std::make_unique<HeuristicMember>(HeuristicKind::kMct));
  EXPECT_EQ(materialized.run(sched_a).jobs_arrived, 1);

  SimConfig stream_config = config;
  stream_config.workload.reset();
  stream_config.stream = std::make_shared<MaterializedStream>(jobs);
  GridSimulator streamed(stream_config);
  MemberBatchScheduler sched_b(
      std::make_unique<HeuristicMember>(HeuristicKind::kMct));
  EXPECT_EQ(streamed.run(sched_b).jobs_arrived, 1);
}

// ----------------------------------------------------- churn replay --

TEST(ChurnReplay, RecordedChurnRoundTripsThroughTheSidecar) {
  // Close the record -> replay loop for the failure process: record a
  // churny run, serialize arrivals AND churn through text, replay with
  // the drawn process off — identical per-job records, metrics, and
  // churn sequence.
  const SimConfig config = replay_sim();
  GridSimulator recorded(config);
  MemberBatchScheduler sched_a(
      std::make_unique<HeuristicMember>(HeuristicKind::kMinMin));
  const SimMetrics original = recorded.run(sched_a);
  ASSERT_GT(original.jobs_requeued, 0) << "churn never fired; weak test";
  ASSERT_FALSE(recorded.churn_trace().empty());

  std::ostringstream arrivals_out;
  write_trace(arrivals_out, recorded.arrival_trace());
  std::ostringstream churn_out;
  write_churn_trace(churn_out, recorded.churn_trace());

  SimConfig replay_config = config;
  replay_config.machine_mtbf = 0.0;
  replay_config.machine_mttr = 0.0;
  std::istringstream arrivals_in(arrivals_out.str());
  replay_config.workload =
      std::make_shared<TraceWorkloadSource>(read_trace(arrivals_in));
  std::istringstream churn_in(churn_out.str());
  replay_config.churn_replay = std::make_shared<const std::vector<ChurnEvent>>(
      read_churn_trace(churn_in));
  GridSimulator replayed(replay_config);
  MemberBatchScheduler sched_b(
      std::make_unique<HeuristicMember>(HeuristicKind::kMinMin));
  const SimMetrics replay = replayed.run(sched_b);

  expect_identical_runs(original, replay, recorded, replayed);
  EXPECT_EQ(replayed.churn_trace(), recorded.churn_trace());
  EXPECT_EQ(replay.jobs_requeued, original.jobs_requeued);
}

TEST(ChurnReplay, ReplayedFailuresAreSchedulerIndependent) {
  // The point of the sidecar: the failure sequence no longer depends on
  // how long the scheduler under test drains. Replaying under a
  // DIFFERENT scheduler applies the same failures (a prefix, if that
  // run drains before the last recorded window).
  const SimConfig config = replay_sim();
  GridSimulator recorded(config);
  MemberBatchScheduler sched_a(
      std::make_unique<HeuristicMember>(HeuristicKind::kMinMin));
  (void)recorded.run(sched_a);
  const std::vector<ChurnEvent> events = recorded.churn_trace();
  ASSERT_FALSE(events.empty());

  SimConfig replay_config = config;
  replay_config.machine_mtbf = 0.0;
  replay_config.machine_mttr = 0.0;
  replay_config.workload = std::make_shared<TraceWorkloadSource>(
      recorded.arrival_trace());
  replay_config.churn_replay =
      std::make_shared<const std::vector<ChurnEvent>>(events);
  GridSimulator replayed(replay_config);
  MemberBatchScheduler sched_b(
      std::make_unique<HeuristicMember>(HeuristicKind::kMct));
  const SimMetrics metrics = replayed.run(sched_b);
  EXPECT_GT(metrics.jobs_requeued, 0);
  const std::vector<ChurnEvent>& applied = replayed.churn_trace();
  ASSERT_FALSE(applied.empty());
  ASSERT_LE(applied.size(), events.size());
  for (std::size_t i = 0; i < applied.size(); ++i) {
    EXPECT_EQ(applied[i], events[i]);
  }
}

TEST(ChurnReplay, RejectsInvalidEventSequences) {
  SimConfig config = replay_sim();
  config.machine_mtbf = 0.0;
  config.machine_mttr = 0.0;
  config.workload = std::make_shared<TraceWorkloadSource>(
      std::vector<TraceJob>{{1.0, 500.0, -1}});
  const auto run_with = [&](std::vector<ChurnEvent> events) {
    SimConfig bad = config;
    bad.churn_replay = std::make_shared<const std::vector<ChurnEvent>>(
        std::move(events));
    GridSimulator sim(bad);
    MemberBatchScheduler scheduler(
        std::make_unique<HeuristicMember>(HeuristicKind::kMct));
    return sim.run(scheduler);
  };
  // Unknown machine (grid has 6).
  EXPECT_THROW((void)run_with({{99, 10.0, 20.0}}), std::runtime_error);
  // Repair before failure.
  EXPECT_THROW((void)run_with({{0, 10.0, 5.0}}), std::runtime_error);
  // Events out of recorded order (windows 3 then 1 at period 40).
  EXPECT_THROW((void)run_with({{0, 100.0, 110.0}, {1, 10.0, 20.0}}),
               std::runtime_error);
  // Double failure: machine 0 is still down (repair at 1000) when the
  // second event targets it in a later window.
  EXPECT_THROW((void)run_with({{0, 10.0, 1000.0}, {0, 50.0, 60.0}}),
               std::runtime_error);
}

// ---------------------------------------------------- streaming sim --

// Everything except the wall-clock scheduler_cpu_ms must match bit for
// bit.
void expect_identical_metrics(const SimMetrics& a, const SimMetrics& b) {
  EXPECT_EQ(a.jobs_arrived, b.jobs_arrived);
  EXPECT_EQ(a.jobs_completed, b.jobs_completed);
  EXPECT_EQ(a.jobs_requeued, b.jobs_requeued);
  EXPECT_EQ(a.activations, b.activations);
  EXPECT_EQ(a.mean_batch_size, b.mean_batch_size);
  EXPECT_EQ(a.mean_flowtime, b.mean_flowtime);
  EXPECT_EQ(a.mean_wait, b.mean_wait);
  EXPECT_EQ(a.mean_slowdown, b.mean_slowdown);
  EXPECT_EQ(a.max_flowtime, b.max_flowtime);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.utilization, b.utilization);
  EXPECT_EQ(a.jobs_rejected, b.jobs_rejected);
  EXPECT_EQ(a.deadline_jobs, b.deadline_jobs);
  EXPECT_EQ(a.deadline_missed, b.deadline_missed);
  EXPECT_EQ(a.total_tardiness, b.total_tardiness);
  EXPECT_EQ(a.total_cost, b.total_cost);
  EXPECT_EQ(a.flowtime_hist.p50(), b.flowtime_hist.p50());
  EXPECT_EQ(a.flowtime_hist.p99(), b.flowtime_hist.p99());
  EXPECT_EQ(a.peak_resident_jobs, b.peak_resident_jobs);
}

std::vector<TraceJob> qos_decorated_trace(const SimConfig& config) {
  Rng rng(config.seed);
  Rng arrival_rng = rng.split();
  Rng workload_rng = rng.split();
  PoissonWorkload poisson(
      config.arrival_rate,
      LogNormalSize{config.workload_log_mean, config.workload_log_sigma});
  std::vector<TraceJob> jobs =
      poisson.generate(config.horizon, arrival_rng, workload_rng);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (i % 3 == 0) jobs[i].deadline = jobs[i].arrival + 120.0;
    if (i % 4 != 3) {
      jobs[i].user = static_cast<int>(i % 4);
      jobs[i].budget = 5'000.0;
    }
  }
  return jobs;
}

TEST(StreamingSim, MatchesTheMaterializedRunBitForBit) {
  // The tentpole parity gate at unit scale: the same churny QoS trace
  // through SimConfig::workload and through SimConfig::stream must yield
  // identical per-job records, normalized jobs, metrics, and churn.
  SimConfig config = replay_sim();
  config.machine_cost_rate = 0.4;
  const std::vector<TraceJob> jobs = qos_decorated_trace(config);

  SimConfig materialized_config = config;
  materialized_config.workload = std::make_shared<TraceWorkloadSource>(jobs);
  GridSimulator materialized(materialized_config);
  MemberBatchScheduler sched_a(
      std::make_unique<HeuristicMember>(HeuristicKind::kMinMin));
  const SimMetrics metrics_a = materialized.run(sched_a);
  ASSERT_GT(metrics_a.jobs_requeued, 0) << "churn never fired; weak test";
  ASSERT_GT(metrics_a.deadline_jobs, 0);
  ASSERT_GT(metrics_a.total_cost, 0.0);

  SimConfig streaming_config = config;
  streaming_config.stream = std::make_shared<MaterializedStream>(jobs);
  GridSimulator streamed(streaming_config);
  std::vector<SimJobRecord> observed_records;
  std::vector<TraceJob> observed_jobs;
  streamed.set_job_observer(
      [&](const SimJobRecord& record, const TraceJob& job) {
        observed_records.push_back(record);
        observed_jobs.push_back(job);
      });
  MemberBatchScheduler sched_b(
      std::make_unique<HeuristicMember>(HeuristicKind::kMinMin));
  const SimMetrics metrics_b = streamed.run(sched_b);

  expect_identical_metrics(metrics_a, metrics_b);
  EXPECT_EQ(streamed.churn_trace(), materialized.churn_trace());
  EXPECT_EQ(streamed.machine_busy(), materialized.machine_busy());
  // Streaming leaves the bulk arrays empty and reports through the
  // observer instead — in id order, against the normalized jobs.
  EXPECT_TRUE(streamed.job_records().empty());
  EXPECT_TRUE(streamed.arrival_trace().empty());
  const auto& records = materialized.job_records();
  ASSERT_EQ(observed_records.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(observed_records[i].id, records[i].id);
    EXPECT_EQ(observed_records[i].arrival, records[i].arrival);
    EXPECT_EQ(observed_records[i].start, records[i].start);
    EXPECT_EQ(observed_records[i].finish, records[i].finish);
    EXPECT_EQ(observed_records[i].machine, records[i].machine);
    EXPECT_EQ(observed_records[i].attempts, records[i].attempts);
    EXPECT_EQ(observed_records[i].rejected, records[i].rejected);
    EXPECT_EQ(observed_jobs[i], materialized.arrival_trace()[i]);
  }
  // The O(1)-memory contract at this scale: both runs hold the same
  // in-flight window (expect_identical_metrics), and it peaks well below
  // the full trace.
  EXPECT_GT(metrics_a.peak_resident_jobs, 0);
  EXPECT_LT(metrics_a.peak_resident_jobs, metrics_a.jobs_arrived);
}

TEST(StreamingSim, PoissonAdapterMatchesTheLegacyDefault) {
  // MaterializedStream over the default Poisson source, seeded exactly
  // like the simulator seeds itself, is the same simulation as a bare
  // SimConfig — the adapter path costs nothing in fidelity.
  const SimConfig config = replay_sim();
  GridSimulator legacy(config);
  MemberBatchScheduler sched_a(
      std::make_unique<HeuristicMember>(HeuristicKind::kMct));
  const SimMetrics a = legacy.run(sched_a);

  SimConfig streaming_config = config;
  Rng rng(config.seed);
  Rng arrival_rng = rng.split();
  Rng workload_rng = rng.split();
  PoissonWorkload poisson(
      config.arrival_rate,
      LogNormalSize{config.workload_log_mean, config.workload_log_sigma});
  streaming_config.stream = std::make_shared<MaterializedStream>(
      poisson, config.horizon, arrival_rng, workload_rng);
  GridSimulator streamed(streaming_config);
  MemberBatchScheduler sched_b(
      std::make_unique<HeuristicMember>(HeuristicKind::kMct));
  const SimMetrics b = streamed.run(sched_b);
  expect_identical_metrics(a, b);
  EXPECT_EQ(streamed.churn_trace(), legacy.churn_trace());
  EXPECT_EQ(streamed.workload_name(), "stream(poisson)");
}

TEST(StreamingSim, StreamAndWorkloadAreMutuallyExclusive) {
  SimConfig config;
  config.workload = std::make_shared<TraceWorkloadSource>(
      std::vector<TraceJob>{});
  config.stream =
      std::make_shared<MaterializedStream>(std::vector<TraceJob>{});
  EXPECT_THROW(GridSimulator sim(config), std::invalid_argument);
}

TEST(StreamingSim, RejectsAnInvalidStream) {
  // A stream violating the sorted/finite/positive contract must throw,
  // naming the streaming path.
  class BrokenStream final : public StreamingWorkloadSource {
   public:
    [[nodiscard]] std::string_view name() const noexcept override {
      return "broken";
    }
    bool next_chunk(double, std::vector<TraceJob>& out) override {
      out.push_back({5.0, 100.0, -1});
      out.push_back({1.0, 100.0, -1});  // unsorted
      return false;
    }
  };
  SimConfig config;
  config.horizon = 100.0;
  config.num_machines = 2;
  config.stream = std::make_shared<BrokenStream>();
  GridSimulator sim(config);
  MemberBatchScheduler scheduler(
      std::make_unique<HeuristicMember>(HeuristicKind::kMct));
  try {
    (void)sim.run(scheduler);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("streaming source"),
              std::string::npos)
        << error.what();
  }
}

TEST(StreamingSim, DeclaredButUnsetQosColumnsAreInert) {
  // A stream may declare QoS columns that turn out to hold only
  // sentinels (an SWF whose requested-time column is all -1): the run
  // must be bit-identical to one that never declared them.
  class DeclaredQosStream final : public StreamingWorkloadSource {
   public:
    DeclaredQosStream(std::vector<TraceJob> jobs, StreamQos qos)
        : inner_(std::move(jobs)), qos_(qos) {}
    [[nodiscard]] std::string_view name() const noexcept override {
      return "declared-qos";
    }
    bool next_chunk(double until, std::vector<TraceJob>& out) override {
      return inner_.next_chunk(until, out);
    }
    [[nodiscard]] StreamQos qos() const noexcept override { return qos_; }

   private:
    MaterializedStream inner_;
    StreamQos qos_;
  };

  SimConfig config = replay_sim();
  config.machine_mtbf = 0.0;
  config.machine_mttr = 0.0;
  Rng rng(config.seed);
  Rng arrival_rng = rng.split();
  Rng workload_rng = rng.split();
  PoissonWorkload poisson(
      config.arrival_rate,
      LogNormalSize{config.workload_log_mean, config.workload_log_sigma});
  const std::vector<TraceJob> jobs =
      poisson.generate(config.horizon, arrival_rng, workload_rng);

  SimConfig plain_config = config;
  plain_config.stream = std::make_shared<MaterializedStream>(jobs);
  GridSimulator plain(plain_config);
  MemberBatchScheduler sched_a(
      std::make_unique<HeuristicMember>(HeuristicKind::kMinMin));
  const SimMetrics a = plain.run(sched_a);

  SimConfig declared_config = config;
  declared_config.stream = std::make_shared<DeclaredQosStream>(
      jobs, StreamQos{true, true});
  GridSimulator declared(declared_config);
  MemberBatchScheduler sched_b(
      std::make_unique<HeuristicMember>(HeuristicKind::kMinMin));
  const SimMetrics b = declared.run(sched_b);

  expect_identical_metrics(a, b);
  EXPECT_EQ(b.deadline_jobs, 0);  // sentinels never became deadlines
}

}  // namespace
}  // namespace gridsched
