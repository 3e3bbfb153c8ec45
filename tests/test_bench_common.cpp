// Coverage for the bench plumbing: band naming, environment-driven scale
// selection (DAGPM_QUICK / DAGPM_FULL), cache-tag construction, and the
// DAGPM_JSON_OUT aggregate export (round-trip through support/json.cpp).

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "bench_common.hpp"
#include "experiments/export.hpp"
#include "support/json.hpp"

namespace dagpm {
namespace {

using experiments::Aggregate;
using experiments::RunOutcome;
using workflows::SizeBand;

/// Sets (or clears, when value is nullptr) an environment variable for the
/// lifetime of the object, restoring the previous state afterwards.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) {
      hadOld_ = true;
      old_ = old;
    }
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (hadOld_) {
      ::setenv(name_.c_str(), old_.c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  std::string name_;
  std::string old_;
  bool hadOld_ = false;
};

TEST(BenchCommon, BandNamesMatchTheLibraryNames) {
  for (const SizeBand band : {SizeBand::kReal, SizeBand::kSmall,
                              SizeBand::kMid, SizeBand::kBig}) {
    EXPECT_EQ(bench::bandName(band), workflows::sizeBandName(band));
  }
  EXPECT_STREQ(bench::bandName(SizeBand::kReal), "real");
  EXPECT_STREQ(bench::bandName(SizeBand::kSmall), "small");
  EXPECT_STREQ(bench::bandName(SizeBand::kMid), "mid");
  EXPECT_STREQ(bench::bandName(SizeBand::kBig), "big");
}

TEST(BenchCommon, QuickEnvSelectsSmokeScale) {
  ScopedEnv quick("DAGPM_QUICK", "1");
  ScopedEnv full("DAGPM_FULL", nullptr);
  const auto env = support::BenchEnv::fromEnvironment();
  EXPECT_EQ(env.scale, support::BenchScale::kQuick);
  EXPECT_EQ(env.smallSizes(), (std::vector<int>{60, 150}));
}

TEST(BenchCommon, FullEnvSelectsPaperScale) {
  ScopedEnv quick("DAGPM_QUICK", nullptr);
  ScopedEnv full("DAGPM_FULL", "1");
  const auto env = support::BenchEnv::fromEnvironment();
  EXPECT_EQ(env.scale, support::BenchScale::kFull);
  EXPECT_EQ(env.bigSizes().back(), 30000);
}

TEST(BenchCommon, DefaultScaleSitsBetweenQuickAndFull) {
  ScopedEnv quick("DAGPM_QUICK", nullptr);
  ScopedEnv full("DAGPM_FULL", nullptr);
  const auto env = support::BenchEnv::fromEnvironment();
  EXPECT_EQ(env.scale, support::BenchScale::kDefault);

  support::BenchEnv quickEnv = env, fullEnv = env;
  quickEnv.scale = support::BenchScale::kQuick;
  fullEnv.scale = support::BenchScale::kFull;
  for (const auto sizes : {&support::BenchEnv::smallSizes,
                           &support::BenchEnv::midSizes,
                           &support::BenchEnv::bigSizes}) {
    EXPECT_LT((quickEnv.*sizes)().back(), (env.*sizes)().back());
    EXPECT_LT((env.*sizes)().back(), (fullEnv.*sizes)().back());
  }
}

TEST(BenchCommon, CacheTagEncodesScaleSeedsAndSweep) {
  ScopedEnv quick("DAGPM_QUICK", "1");
  ScopedEnv full("DAGPM_FULL", nullptr);
  ScopedEnv seeds("DAGPM_SEEDS", "3");
  ScopedEnv sweep("DAGPM_SWEEP", "full");
  ScopedEnv cache("DAGPM_CACHE",
                  (testing::TempDir() + "bench_common_tag.cache").c_str());
  bench::BenchContext ctx;
  EXPECT_EQ(ctx.scaleName(), "quick");
  EXPECT_EQ(ctx.sweepName(), "full");
  EXPECT_EQ(ctx.sweep(), scheduler::KPrimeSweep::kFull);
  const auto opts = ctx.options("default-36|beta1");
  EXPECT_EQ(opts.cacheTag, "default-36|beta1|quick|seeds3|full");
  EXPECT_NE(opts.cache, nullptr);
  EXPECT_EQ(opts.part.sweep, scheduler::KPrimeSweep::kFull);
}

Aggregate sampleAggregate() {
  Aggregate agg;
  agg.total = 7;
  agg.scheduledBoth = 5;
  agg.partScheduled = 6;
  agg.memScheduled = 5;
  agg.geomeanRatio = 0.41;
  agg.geomeanPartMakespan = 123.5;
  agg.geomeanMemMakespan = 301.2;
  agg.meanPartSeconds = 0.75;
  agg.meanMemSeconds = 0.5;
  agg.geomeanRuntimeRatio = 1.5;
  return agg;
}

TEST(JsonExport, AggregateRoundTripsThroughTheJsonParser) {
  const Aggregate agg = sampleAggregate();
  const std::string text = experiments::aggregateToJson(agg).dump();
  const auto parsed = support::parseJson(text);
  ASSERT_TRUE(parsed.has_value()) << text;
  EXPECT_EQ(parsed->numberOr("total", -1), 7);
  EXPECT_EQ(parsed->numberOr("scheduled_both", -1), 5);
  EXPECT_EQ(parsed->numberOr("part_scheduled", -1), 6);
  EXPECT_EQ(parsed->numberOr("mem_scheduled", -1), 5);
  EXPECT_DOUBLE_EQ(parsed->numberOr("geomean_ratio", -1), 0.41);
  EXPECT_DOUBLE_EQ(parsed->numberOr("geomean_part_makespan", -1), 123.5);
  EXPECT_DOUBLE_EQ(parsed->numberOr("geomean_mem_makespan", -1), 301.2);
  EXPECT_DOUBLE_EQ(parsed->numberOr("mean_part_seconds", -1), 0.75);
  EXPECT_DOUBLE_EQ(parsed->numberOr("mean_mem_seconds", -1), 0.5);
  EXPECT_DOUBLE_EQ(parsed->numberOr("geomean_runtime_ratio", -1), 1.5);
}

RunOutcome makeOutcome(const std::string& name, SizeBand band,
                       const std::string& family, double part, double mem) {
  RunOutcome out;
  out.instance = name;
  out.band = band;
  out.family = family;
  out.numTasks = 100;
  out.partFeasible = true;
  out.memFeasible = true;
  out.partMakespan = part;
  out.memMakespan = mem;
  out.partSeconds = 0.1;
  out.memSeconds = 0.2;
  return out;
}

TEST(JsonExport, DocumentCarriesPerFamilyRowsBandRollupsAndOverall) {
  const std::vector<RunOutcome> outcomes = {
      makeOutcome("BLAST-n100-s1", SizeBand::kSmall, "BLAST", 50.0, 100.0),
      makeOutcome("Montage-n100-s1", SizeBand::kSmall, "Montage", 80.0, 100.0),
      makeOutcome("real-sarek-s1", SizeBand::kReal, "sarek", 90.0, 100.0),
  };
  const support::JsonValue doc = experiments::outcomesToJson(
      "fig_test", experiments::OutcomeGroups{{"", outcomes}},
      {{"scale", support::JsonValue(std::string("quick"))}});
  EXPECT_EQ(doc.stringOr("bench", ""), "fig_test");
  const support::JsonValue* meta = doc.find("meta");
  ASSERT_NE(meta, nullptr);
  EXPECT_EQ(meta->stringOr("scale", ""), "quick");

  const support::JsonValue* rows = doc.find("rows");
  ASSERT_NE(rows, nullptr);
  ASSERT_TRUE(rows->isArray());
  int familyRows = 0, rollups = 0;
  bool sawBlast = false;
  for (const support::JsonValue& row : rows->asArray()) {
    const std::string family = row.stringOr("family", "");
    if (family == "*") {
      ++rollups;
    } else {
      ++familyRows;
    }
    EXPECT_EQ(row.stringOr("config", "?"), "");  // single-config bench
    if (family == "BLAST") {
      sawBlast = true;
      EXPECT_EQ(row.stringOr("band", ""), "small");
      EXPECT_EQ(row.numberOr("total", -1), 1);
      EXPECT_DOUBLE_EQ(row.numberOr("geomean_ratio", -1), 0.5);
    }
  }
  EXPECT_TRUE(sawBlast);
  EXPECT_EQ(familyRows, 3);  // BLAST, Montage, sarek
  EXPECT_EQ(rollups, 2);     // small, real

  const support::JsonValue* overall = doc.find("overall");
  ASSERT_NE(overall, nullptr);
  EXPECT_EQ(overall->numberOr("total", -1), 3);
  EXPECT_EQ(overall->numberOr("scheduled_both", -1), 3);
}

TEST(JsonExport, MultiConfigBenchesKeepPerConfigRows) {
  // A parameter-sweeping bench exports each configuration separately, so a
  // regression in one configuration is not diluted by a pooled geomean.
  const experiments::OutcomeGroups groups = {
      {"beta1",
       {makeOutcome("BLAST-n100-s1", SizeBand::kSmall, "BLAST", 50.0, 100.0)}},
      {"beta5",
       {makeOutcome("BLAST-n100-s1", SizeBand::kSmall, "BLAST", 25.0, 100.0)}},
  };
  const support::JsonValue doc =
      experiments::outcomesToJson("fig_test", groups);
  const support::JsonValue* rows = doc.find("rows");
  ASSERT_NE(rows, nullptr);
  double beta1Ratio = -1, beta5Ratio = -1;
  for (const support::JsonValue& row : rows->asArray()) {
    if (row.stringOr("family", "") != "BLAST") continue;
    if (row.stringOr("config", "") == "beta1") {
      beta1Ratio = row.numberOr("geomean_ratio", -1);
    }
    if (row.stringOr("config", "") == "beta5") {
      beta5Ratio = row.numberOr("geomean_ratio", -1);
    }
  }
  EXPECT_DOUBLE_EQ(beta1Ratio, 0.5);
  EXPECT_DOUBLE_EQ(beta5Ratio, 0.25);
  const support::JsonValue* overall = doc.find("overall");
  ASSERT_NE(overall, nullptr);
  EXPECT_EQ(overall->numberOr("total", -1), 2);
}

/// The export epilogue over one RunOutcome group, as bench::finish runs it.
experiments::ExportResult exportOutcomes(
    const std::vector<RunOutcome>& outcomes) {
  const experiments::OutcomeGroups groups = {{"", outcomes}};
  return experiments::maybeExport(
      "fig_test",
      [&](const std::string& path) {
        return experiments::exportOutcomesCsv(path, groups);
      },
      [&] { return experiments::outcomesToJson("fig_test", groups); });
}

TEST(CsvExport, ReportsWriteFailuresDistinctFromUnsetEnv) {
  const std::vector<RunOutcome> outcomes = {
      makeOutcome("BLAST-n100-s1", SizeBand::kSmall, "BLAST", 40.0, 100.0),
  };
  ScopedEnv jsonOut("DAGPM_JSON_OUT", nullptr);
  {
    ScopedEnv csv("DAGPM_CSV", nullptr);
    const experiments::ExportResult result = exportOutcomes(outcomes);
    EXPECT_EQ(result.csvPath, "");
    EXPECT_FALSE(result.csvError);
  }
  {
    ScopedEnv csv("DAGPM_CSV", "/nonexistent-dir");
    const experiments::ExportResult result = exportOutcomes(outcomes);
    EXPECT_EQ(result.csvPath, "");
    EXPECT_TRUE(result.csvError);
  }
  ScopedEnv csv("DAGPM_CSV", testing::TempDir().c_str());
  const experiments::ExportResult result = exportOutcomes(outcomes);
  const std::string path = result.csvPath;
  ASSERT_NE(path, "");
  EXPECT_FALSE(result.csvError);
  std::ifstream in(path);
  std::string header;
  ASSERT_TRUE(std::getline(in, header));
  EXPECT_EQ(header.rfind("config,instance,", 0), 0u) << header;
}

TEST(CsvExport, MultiConfigGroupsKeepTheConfigColumn) {
  const experiments::OutcomeGroups groups = {
      {"beta1",
       {makeOutcome("BLAST-n100-s1", SizeBand::kSmall, "BLAST", 50.0, 100.0)}},
      {"beta5",
       {makeOutcome("BLAST-n100-s1", SizeBand::kSmall, "BLAST", 25.0, 100.0)}},
  };
  const std::string path = testing::TempDir() + "bench_export_groups.csv";
  ASSERT_TRUE(experiments::exportOutcomesCsv(path, groups));
  std::ifstream in(path);
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 3u);  // header + one row per config
  EXPECT_EQ(lines[1].rfind("beta1,", 0), 0u) << lines[1];
  EXPECT_EQ(lines[2].rfind("beta5,", 0), 0u) << lines[2];
}

TEST(JsonExport, WritesParseableFileAndHonorsJsonOutEnv) {
  const std::vector<RunOutcome> outcomes = {
      makeOutcome("BLAST-n100-s1", SizeBand::kSmall, "BLAST", 40.0, 100.0),
  };
  const std::string path = testing::TempDir() + "bench_export_test.json";
  ScopedEnv csv("DAGPM_CSV", nullptr);
  {
    ScopedEnv jsonOut("DAGPM_JSON_OUT", nullptr);
    const experiments::ExportResult result = exportOutcomes(outcomes);
    EXPECT_EQ(result.jsonPath, "");
    EXPECT_FALSE(result.jsonError);
  }
  {
    ScopedEnv jsonOut("DAGPM_JSON_OUT", path.c_str());
    const experiments::ExportResult result = exportOutcomes(outcomes);
    EXPECT_EQ(result.jsonPath, path);
    EXPECT_FALSE(result.jsonError);
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const auto parsed = support::parseJson(buffer.str());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->stringOr("bench", ""), "fig_test");
  EXPECT_EQ(parsed->numberOr("schema_version", -1), 1);

  // An unwritable path reports the error instead of dying silently.
  ScopedEnv jsonOut("DAGPM_JSON_OUT", "/nonexistent-dir/out.json");
  const experiments::ExportResult result = exportOutcomes(outcomes);
  EXPECT_EQ(result.jsonPath, "");
  EXPECT_TRUE(result.jsonError);
}

TEST(JsonExport, FailedCsvWriteStillWritesTheJsonRecord) {
  const std::vector<RunOutcome> outcomes = {
      makeOutcome("BLAST-n100-s1", SizeBand::kSmall, "BLAST", 40.0, 100.0),
  };
  const std::string path = testing::TempDir() + "bench_export_both.json";
  std::remove(path.c_str());
  ScopedEnv csv("DAGPM_CSV", "/nonexistent-dir");
  ScopedEnv jsonOut("DAGPM_JSON_OUT", path.c_str());
  const experiments::ExportResult result = exportOutcomes(outcomes);
  EXPECT_TRUE(result.csvError);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.jsonPath, path);
  EXPECT_FALSE(result.jsonError);
  EXPECT_TRUE(std::ifstream(path).good());
}

TEST(JsonExport, EveryDocumentHasTheSharedShape) {
  ScopedEnv quick("DAGPM_QUICK", "1");
  ScopedEnv full("DAGPM_FULL", nullptr);
  ScopedEnv seeds("DAGPM_SEEDS", "2");
  ScopedEnv sweep("DAGPM_SWEEP", nullptr);
  ScopedEnv cache("DAGPM_CACHE",
                  (testing::TempDir() + "bench_common_shape.cache").c_str());
  const bench::BenchContext ctx;
  const support::JsonValue doc = experiments::benchDocument(
      "shape_test", ctx.meta({{"comm", "task-eager"}}), {});
  std::vector<std::string> keys;
  for (const auto& [key, value] : doc.asObject()) keys.push_back(key);
  EXPECT_EQ(keys, (std::vector<std::string>{"bench", "meta", "rows",
                                            "schema_version", "stats"}));
  const support::JsonValue* meta = doc.find("meta");
  ASSERT_NE(meta, nullptr);
  EXPECT_EQ(meta->stringOr("scale", ""), "quick");
  EXPECT_EQ(meta->stringOr("sweep", ""), "doubling");
  EXPECT_EQ(meta->stringOr("seeds", ""), "2");
  EXPECT_EQ(meta->stringOr("comm", ""), "task-eager");
  EXPECT_TRUE(doc.find("stats")->isObject());
}

}  // namespace
}  // namespace dagpm
