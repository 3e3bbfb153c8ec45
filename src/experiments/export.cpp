#include "experiments/export.hpp"

#include <cstdio>
#include <fstream>
#include <iostream>

#include "obs/obs.hpp"
#include "support/env.hpp"
#include "workflows/families.hpp"

namespace dagpm::experiments {

namespace {

/// Serializes `doc` to `path` with a trailing newline; returns false on I/O
/// failure, including buffered writes failing at flush time.
bool writeJsonDocument(const std::string& path,
                       const support::JsonValue& doc) {
  std::ofstream out(path);
  if (!out) return false;
  out << doc.dump() << '\n';
  out.close();
  return !out.fail();
}

support::JsonValue statsJson() {
  support::JsonObject stats;
  if (obs::countersEnabled()) {
    for (const obs::CounterValue& c : obs::counterSnapshot()) {
      stats[c.name] = support::JsonValue(static_cast<double>(c.value));
    }
  }
  for (const obs::SpanAggregate& s : obs::spanAggregates()) {
    stats["span." + s.name + "_calls"] =
        support::JsonValue(static_cast<double>(s.calls));
    stats["span." + s.name + "_seconds"] = support::JsonValue(s.seconds);
  }
  return support::JsonValue(std::move(stats));
}

}  // namespace

std::string formatG6(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

support::JsonValue benchDocument(const std::string& bench,
                                 support::JsonObject meta,
                                 support::JsonArray rows) {
  support::JsonObject doc;
  doc["schema_version"] = support::JsonValue(1.0);
  doc["bench"] = support::JsonValue(bench);
  doc["meta"] = support::JsonValue(std::move(meta));
  doc["rows"] = support::JsonValue(std::move(rows));
  doc["stats"] = statsJson();
  return support::JsonValue(std::move(doc));
}

ExportResult maybeExport(const std::string& name, const CsvWriter& writeCsv,
                         const std::function<support::JsonValue()>& document) {
  ExportResult result;
  const std::string csvDir = support::getEnvOr("DAGPM_CSV", "");
  if (!csvDir.empty() && writeCsv) {
    const std::string path = csvDir + "/" + name + ".csv";
    if (writeCsv(path)) {
      result.csvPath = path;
      std::cout << "raw results: " << path << "\n";
    } else {
      result.csvError = true;
      std::cerr << "error: could not write to the DAGPM_CSV directory\n";
    }
  }
  const std::string jsonPath = support::getEnvOr("DAGPM_JSON_OUT", "");
  if (!jsonPath.empty()) {
    if (writeJsonDocument(jsonPath, document())) {
      result.jsonPath = jsonPath;
      std::cout << "aggregate rows: " << jsonPath << "\n";
    } else {
      result.jsonError = true;
      std::cerr << "error: could not write DAGPM_JSON_OUT\n";
    }
  }
  return result;
}

namespace {

/// One row of the outcome CSV: an outcome and the configuration it ran in.
struct ConfigOutcome {
  const std::string* config;
  const RunOutcome* out;
};

CsvColumns<ConfigOutcome> outcomeCsvColumns() {
  using R = ConfigOutcome;
  return {
      {"config", [](const R& r) { return *r.config; }},
      {"instance", [](const R& r) { return r.out->instance; }},
      {"band",
       [](const R& r) { return workflows::sizeBandName(r.out->band); }},
      {"family", [](const R& r) { return r.out->family; }},
      {"tasks", [](const R& r) { return std::to_string(r.out->numTasks); }},
      {"part_feasible",
       [](const R& r) { return formatFlag(r.out->partFeasible); }},
      {"mem_feasible",
       [](const R& r) { return formatFlag(r.out->memFeasible); }},
      {"part_makespan",
       [](const R& r) { return formatG6(r.out->partMakespan); }},
      {"mem_makespan",
       [](const R& r) { return formatG6(r.out->memMakespan); }},
      {"ratio",
       [](const R& r) {
         const RunOutcome& out = *r.out;
         return out.partFeasible && out.memFeasible && out.memMakespan > 0.0
                    ? formatG6(out.partMakespan / out.memMakespan)
                    : std::string();
       }},
      {"part_seconds",
       [](const R& r) { return formatG6(r.out->partSeconds); }},
      {"mem_seconds", [](const R& r) { return formatG6(r.out->memSeconds); }},
  };
}

}  // namespace

bool exportOutcomesCsv(const std::string& path, const OutcomeGroups& groups) {
  std::vector<ConfigOutcome> rows;
  for (const auto& [config, outcomes] : groups) {
    for (const RunOutcome& out : outcomes) rows.push_back({&config, &out});
  }
  return writeCsvColumns(path, outcomeCsvColumns(), rows);
}

support::JsonValue aggregateToJson(const Aggregate& agg) {
  support::JsonObject obj;
  obj["total"] = support::JsonValue(static_cast<double>(agg.total));
  obj["scheduled_both"] =
      support::JsonValue(static_cast<double>(agg.scheduledBoth));
  obj["part_scheduled"] =
      support::JsonValue(static_cast<double>(agg.partScheduled));
  obj["mem_scheduled"] =
      support::JsonValue(static_cast<double>(agg.memScheduled));
  obj["geomean_ratio"] = support::JsonValue(agg.geomeanRatio);
  obj["geomean_part_makespan"] =
      support::JsonValue(agg.geomeanPartMakespan);
  obj["geomean_mem_makespan"] = support::JsonValue(agg.geomeanMemMakespan);
  obj["mean_part_seconds"] = support::JsonValue(agg.meanPartSeconds);
  obj["mean_mem_seconds"] = support::JsonValue(agg.meanMemSeconds);
  obj["geomean_runtime_ratio"] =
      support::JsonValue(agg.geomeanRuntimeRatio);
  return support::JsonValue(std::move(obj));
}

namespace {

// "band|family" composite keys; '|' cannot appear in band or family names.
constexpr char kGroupSep = '|';

support::JsonValue rowJson(const std::string& config, const std::string& band,
                           const std::string& family, const Aggregate& agg) {
  support::JsonObject obj = aggregateToJson(agg).asObject();
  obj["config"] = support::JsonValue(config);
  obj["band"] = support::JsonValue(band);
  obj["family"] = support::JsonValue(family);
  return support::JsonValue(std::move(obj));
}

}  // namespace

support::JsonValue outcomesToJson(const std::string& bench,
                                  const OutcomeGroups& groups,
                                  support::JsonObject meta) {
  support::JsonArray rows;
  std::vector<RunOutcome> all;
  for (const auto& [config, outcomes] : groups) {
    all.insert(all.end(), outcomes.begin(), outcomes.end());
    // Per-(band, family) rows: the finest aggregate the paper reports.
    const auto byGroup = aggregateBy(outcomes, [](const RunOutcome& out) {
      return workflows::sizeBandName(out.band) + std::string(1, kGroupSep) +
             out.family;
    });
    for (const auto& [key, agg] : byGroup) {
      const std::size_t sep = key.find(kGroupSep);
      rows.push_back(
          rowJson(config, key.substr(0, sep), key.substr(sep + 1), agg));
    }
    // Per-band rollups ("family": "*"), matching the printed band tables.
    for (const auto& [band, agg] : aggregateByBand(outcomes)) {
      rows.push_back(rowJson(config, workflows::sizeBandName(band), "*", agg));
    }
  }

  support::JsonObject doc =
      benchDocument(bench, std::move(meta), std::move(rows)).asObject();
  doc["overall"] = aggregateToJson(
      aggregateBy(all, [](const RunOutcome&) {
        return std::string("all");
      })["all"]);
  return support::JsonValue(std::move(doc));
}

}  // namespace dagpm::experiments
