// Golden export test: one fixed, hand-made outcome per experiment harness
// (no solver runs) plus a RunOutcome group, written through the same
// exporters the bench binaries use. Each CSV is pinned byte for byte (header
// and row) and each JSON document's "rows" array key for key, so a change to
// the export plumbing cannot silently rename, drop or reformat a column.
// Numbers in the JSON rows are compared to 1e-12 relative: the aggregates
// pass through std::log/std::exp.

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <sstream>

#include "experiments/contention.hpp"
#include "experiments/export.hpp"
#include "experiments/faults.hpp"
#include "experiments/resched.hpp"
#include "experiments/robustness.hpp"
#include "support/json.hpp"

namespace dagpm::experiments {
namespace {

using workflows::SizeBand;

std::string readFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string tempPath(const std::string& name) {
  return testing::TempDir() + "/dagpm_golden_" + name;
}

/// Structural JSON equality: identical keys and strings, numbers equal to
/// 1e-12 relative.
void expectJsonNear(const support::JsonValue& actual,
                    const support::JsonValue& expected,
                    const std::string& where) {
  if (expected.isObject()) {
    ASSERT_TRUE(actual.isObject()) << where;
    const support::JsonObject& a = actual.asObject();
    const support::JsonObject& e = expected.asObject();
    std::vector<std::string> aKeys, eKeys;
    for (const auto& [key, value] : a) aKeys.push_back(key);
    for (const auto& [key, value] : e) eKeys.push_back(key);
    ASSERT_EQ(aKeys, eKeys) << where;
    for (const auto& [key, value] : e) {
      expectJsonNear(a.at(key), value, where + "." + key);
    }
  } else if (expected.isArray()) {
    ASSERT_TRUE(actual.isArray()) << where;
    ASSERT_EQ(actual.asArray().size(), expected.asArray().size()) << where;
    for (std::size_t i = 0; i < expected.asArray().size(); ++i) {
      expectJsonNear(actual.asArray()[i], expected.asArray()[i],
                     where + "[" + std::to_string(i) + "]");
    }
  } else if (expected.isNumber()) {
    ASSERT_TRUE(actual.isNumber()) << where;
    const double e = expected.asNumber();
    EXPECT_NEAR(actual.asNumber(), e, 1e-12 * std::max(1.0, std::abs(e)))
        << where;
  } else {
    EXPECT_EQ(actual.dump(), expected.dump()) << where;
  }
}

void expectRows(const support::JsonArray& rows, const std::string& golden) {
  const auto expected = support::parseJson(golden);
  ASSERT_TRUE(expected.has_value()) << golden;
  expectJsonNear(support::JsonValue(rows), *expected, "rows");
}

// ------------------------------------------------------------- run outcomes

OutcomeGroups goldenGroups() {
  RunOutcome both;
  both.instance = "BLAST-n60-s1";
  both.band = SizeBand::kSmall;
  both.family = "BLAST";
  both.numTasks = 60;
  both.partFeasible = true;
  both.memFeasible = true;
  both.partMakespan = 1234.5678;
  both.memMakespan = 2469.1356;
  both.partSeconds = 0.125;
  both.memSeconds = 1.5e-7;
  RunOutcome memOnly;
  memOnly.instance = "real,sarek";  // the comma forces CSV quoting
  memOnly.band = SizeBand::kReal;
  memOnly.family = "sarek";
  memOnly.numTasks = 7;
  memOnly.memFeasible = true;
  memOnly.memMakespan = 50.0;
  memOnly.partSeconds = 2.0;
  memOnly.memSeconds = 4.0;
  return {{"beta1", {both, memOnly}}};
}

TEST(ExportGolden, RunOutcomeCsv) {
  const std::string path = tempPath("outcomes.csv");
  ASSERT_TRUE(exportOutcomesCsv(path, goldenGroups()));
  EXPECT_EQ(readFile(path),
            "config,instance,band,family,tasks,part_feasible,mem_feasible,"
            "part_makespan,mem_makespan,ratio,part_seconds,mem_seconds\n"
            "beta1,BLAST-n60-s1,small,BLAST,60,1,1,1234.57,2469.14,0.5,"
            "0.125,1.5e-07\n"
            "beta1,\"real,sarek\",real,sarek,7,0,1,0,50,,2,4\n");
}

TEST(ExportGolden, RunOutcomeJson) {
  const support::JsonValue doc = outcomesToJson("golden", goldenGroups());
  expectRows(doc.find("rows")->asArray(), R"([
    {"band": "real", "config": "beta1", "family": "sarek", "total": 1,
     "scheduled_both": 0, "part_scheduled": 0, "mem_scheduled": 1,
     "geomean_ratio": 0, "geomean_part_makespan": 0,
     "geomean_mem_makespan": 0, "mean_part_seconds": 0,
     "mean_mem_seconds": 0, "geomean_runtime_ratio": 0},
    {"band": "small", "config": "beta1", "family": "BLAST", "total": 1,
     "scheduled_both": 1, "part_scheduled": 1, "mem_scheduled": 1,
     "geomean_ratio": 0.5, "geomean_part_makespan": 1234.5678,
     "geomean_mem_makespan": 2469.1356, "mean_part_seconds": 0.125,
     "mean_mem_seconds": 1.5e-7,
     "geomean_runtime_ratio": 833333.33333333333},
    {"band": "real", "config": "beta1", "family": "*", "total": 1,
     "scheduled_both": 0, "part_scheduled": 0, "mem_scheduled": 1,
     "geomean_ratio": 0, "geomean_part_makespan": 0,
     "geomean_mem_makespan": 0, "mean_part_seconds": 0,
     "mean_mem_seconds": 0, "geomean_runtime_ratio": 0},
    {"band": "small", "config": "beta1", "family": "*", "total": 1,
     "scheduled_both": 1, "part_scheduled": 1, "mem_scheduled": 1,
     "geomean_ratio": 0.5, "geomean_part_makespan": 1234.5678,
     "geomean_mem_makespan": 2469.1356, "mean_part_seconds": 0.125,
     "mean_mem_seconds": 1.5e-7,
     "geomean_runtime_ratio": 833333.33333333333}
  ])");
}

// --------------------------------------------------------------- contention

std::vector<ContentionOutcome> goldenContention() {
  ContentionOutcome out;
  out.config = "ccr2";
  out.instance = "BLAST-n60-s1";
  out.band = SizeBand::kSmall;
  out.family = "BLAST";
  out.numTasks = 60;
  out.ccr = 2.0;
  out.obliviousFeasible = true;
  out.awareFeasible = true;
  out.obliviousStatic = 100.0;
  out.obliviousPredicted = 110.5;
  out.obliviousSimulated = 125.0;
  out.awareStatic = 101.25;
  out.awarePredicted = 108.0;
  out.awareSimulated = 112.5;
  return {out};
}

TEST(ExportGolden, ContentionCsv) {
  const std::string path = tempPath("contention.csv");
  ASSERT_TRUE(
      writeCsvColumns(path, contentionCsvColumns(), goldenContention()));
  EXPECT_EQ(readFile(path),
            "config,instance,band,family,tasks,ccr,oblivious_feasible,"
            "aware_feasible,oblivious_static,oblivious_predicted,"
            "oblivious_simulated,aware_static,aware_predicted,"
            "aware_simulated\n"
            "ccr2,BLAST-n60-s1,small,BLAST,60,2,1,1,100,110.5,125,101.25,108,"
            "112.5\n");
}

TEST(ExportGolden, ContentionJson) {
  const support::JsonArray rows = contentionJsonRows(goldenContention());
  const std::string row = R"("workflows": 1, "comparable": 1,
     "aware_wins": 1, "aware_losses": 0, "geomean_oblivious_static": 100,
     "geomean_oblivious_simulated": 125, "geomean_aware_simulated": 112.5,
     "geomean_optimism_gap": 1.25, "geomean_aware_gain": 1.1111111111111112,
     "recovered_fraction": 0.5})";
  expectRows(rows, R"([{"config": "ccr2", "band": "all", )" + row +
                       R"(, {"config": "ccr2", "band": "small", )" + row +
                       "]");
}

// ---------------------------------------------------------------- resched

std::vector<ReschedOutcome> goldenResched() {
  ReschedOutcome out;
  out.config = "straggler0.1x3";
  out.policy = "lateness0.05";
  out.scheduler = "part";
  out.instance = "Montage-n60-s1";
  out.band = SizeBand::kSmall;
  out.family = "Montage";
  out.numTasks = 60;
  out.ok = true;
  out.staticMakespan = 200.0;
  out.replications = 4;
  out.finalMakespans = {220.0, 230.0, 240.0, 250.0};
  out.unrepairedMakespans = {260.0, 270.0, 280.0, 290.0};
  out.meanFinal = 235.0;
  out.p95Final = 248.5;
  out.meanUnrepaired = 275.0;
  out.meanSlowdown = 1.175;
  out.p95Slowdown = 1.2425;
  out.meanUnrepairedSlowdown = 1.375;
  out.meanReschedules = 1.5;
  out.meanTriggers = 2.25;
  out.guardTrips = 1;
  return {out};
}

TEST(ExportGolden, ReschedCsv) {
  const std::string path = tempPath("resched.csv");
  ASSERT_TRUE(
      writeCsvColumns(path, reschedulingCsvColumns(), goldenResched()));
  EXPECT_EQ(readFile(path),
            "config,policy,scheduler,instance,band,family,tasks,ok,"
            "static_makespan,mean_final_makespan,p95_final_makespan,"
            "mean_unrepaired_makespan,mean_slowdown,p95_slowdown,"
            "mean_unrepaired_slowdown,mean_reschedules,mean_triggers,"
            "guard_trips,replications\n"
            "straggler0.1x3,lateness0.05,part,Montage-n60-s1,small,Montage,60,"
            "1,200,235,248.5,275,1.175,1.2425,1.375,1.5,2.25,1,4\n");
}

TEST(ExportGolden, ReschedJson) {
  expectRows(reschedulingJsonRows(goldenResched()), R"([
    {"config": "straggler0.1x3", "policy": "lateness0.05",
     "scheduler": "part", "instances": 1, "replications": 4,
     "geomean_static_makespan": 200, "geomean_mean_makespan": 235,
     "geomean_p95_makespan": 248.5, "geomean_mean_slowdown": 1.175,
     "geomean_p95_slowdown": 1.2425, "geomean_unrepaired_slowdown": 1.375,
     "mean_reschedules": 1.5, "mean_triggers": 2.25,
     "recovered_fraction": 0.53333333333333333,
     "guard_trip_fraction": 0.25}
  ])");
}

// ------------------------------------------------------------- robustness

std::vector<RobustnessOutcome> goldenRobustness() {
  RobustnessOutcome out;
  out.config = "sigma0.2";
  out.scheduler = "mem";
  out.instance = "Genome-n60-s1";
  out.band = SizeBand::kSmall;
  out.family = "Genome";
  out.numTasks = 60;
  sim::RobustnessSummary& s = out.summary;
  s.ok = true;
  s.staticMakespan = 400.0;
  s.replications = 8;
  s.meanMakespan = 420.0;
  s.p50Makespan = 418.0;
  s.p95Makespan = 460.0;
  s.minMakespan = 390.0;
  s.maxMakespan = 480.0;
  s.meanSlowdown = 1.05;
  s.p95Slowdown = 1.15;
  s.overflowRuns = 2;
  s.makespans = {390.0, 480.0};
  return {out};
}

TEST(ExportGolden, RobustnessCsv) {
  const std::string path = tempPath("robustness.csv");
  ASSERT_TRUE(
      writeCsvColumns(path, robustnessCsvColumns(), goldenRobustness()));
  EXPECT_EQ(readFile(path),
            "config,scheduler,instance,band,family,tasks,ok,static_makespan,"
            "mean_makespan,p50_makespan,p95_makespan,min_makespan,"
            "max_makespan,mean_slowdown,p95_slowdown,overflow_runs,"
            "replications\n"
            "sigma0.2,mem,Genome-n60-s1,small,Genome,60,1,400,420,418,460,"
            "390,480,1.05,1.15,2,8\n");
}

TEST(ExportGolden, RobustnessJson) {
  expectRows(robustnessJsonRows(goldenRobustness()), R"([
    {"config": "sigma0.2", "scheduler": "mem", "instances": 1,
     "replications": 8, "geomean_static_makespan": 400,
     "geomean_mean_makespan": 420, "geomean_p95_makespan": 460,
     "geomean_mean_slowdown": 1.05, "geomean_p95_slowdown": 1.15,
     "max_slowdown": 1.2, "overflow_runs": 2, "overflow_fraction": 0.25}
  ])");
}

// ----------------------------------------------------------------- faults

std::vector<FaultOutcome> goldenFaults() {
  FaultOutcome out;
  out.level = "fail0.3";
  out.scheduler = "part";
  out.instance = "Seismology-n60-s1";
  out.band = SizeBand::kSmall;
  out.family = "Seismology";
  out.numTasks = 60;
  out.ok = true;
  out.staticMakespan = 80.0;
  out.replications = 8;
  out.faultyRuns = 5;
  out.failStops = 6;
  out.crashes = 1;
  out.tasksKilled = 9;
  out.evacuations = 7;
  out.retries = 2;
  out.greedyWins = 1;
  out.searchWins = 3;
  out.unrecovered = 0;
  out.meanAware = 100.0;
  out.meanGreedy = 120.0;
  out.meanAwareSlowdown = 1.25;
  out.meanGreedySlowdown = 1.5;
  out.meanRecoveredFraction = 0.375;
  return {out};
}

TEST(ExportGolden, FaultCsv) {
  const std::string path = tempPath("faults.csv");
  ASSERT_TRUE(
      writeCsvColumns(path, faultRecoveryCsvColumns(), goldenFaults()));
  EXPECT_EQ(readFile(path),
            "level,scheduler,instance,band,family,tasks,ok,static_makespan,"
            "mean_aware_makespan,mean_greedy_makespan,mean_aware_slowdown,"
            "mean_greedy_slowdown,recovered_fraction,faulty_runs,fail_stops,"
            "crashes,tasks_killed,evacuations,retries,greedy_wins,"
            "search_wins,unrecovered,replications\n"
            "fail0.3,part,Seismology-n60-s1,small,Seismology,60,1,80,100,120,"
            "1.25,1.5,0.375,5,6,1,9,7,2,1,3,0,8\n");
}

TEST(ExportGolden, FaultJson) {
  expectRows(faultRecoveryJsonRows(goldenFaults()), R"([
    {"level": "fail0.3", "scheduler": "part", "instances": 1,
     "replications": 8, "faulty_runs": 5, "total_fail_stops": 6,
     "total_crashes": 1, "total_tasks_killed": 9, "total_retries": 2,
     "evacuations": 7, "greedy_wins": 1, "search_wins": 3,
     "unrecovered": 0, "geomean_aware_slowdown": 1.25,
     "geomean_greedy_slowdown": 1.5, "improvement": 1.2,
     "recovered_fraction": 0.375}
  ])");
}

}  // namespace
}  // namespace dagpm::experiments
