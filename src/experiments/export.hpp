#pragma once
// CSV / JSON export of experiment outcomes.
//
// Benches honor two environment variables:
//   DAGPM_CSV=<dir>       each bench also writes its raw per-instance results
//                         to <dir>/<name>.csv so figures can be re-plotted
//                         externally.
//   DAGPM_JSON_OUT=<path> the bench writes its aggregate rows as a JSON
//                         document, the machine-readable record the perf
//                         trajectory (BENCH_*.json) regresses against.
//
// Every bench shares one export path: a CSV is a column list written by
// writeCsvColumns, a JSON document is benchDocument around the bench's rows,
// and maybeExport is the epilogue that writes whichever of the two is
// requested.

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "experiments/harness.hpp"
#include "support/csv.hpp"
#include "support/json.hpp"

namespace dagpm::experiments {

/// "%.6g" — the numeric cell format of every exported CSV.
std::string formatG6(double v);

/// "1" / "0" — the boolean cell format of every exported CSV.
inline std::string formatFlag(bool b) { return b ? "1" : "0"; }

/// One CSV column: its header and the formatter of its cell, side by side so
/// a header cannot drift away from its cell.
template <typename Row>
struct CsvColumn {
  std::string header;
  std::function<std::string(const Row&)> cell;
};

template <typename Row>
using CsvColumns = std::vector<CsvColumn<Row>>;

/// Writes the header line and one line per row. Returns false on I/O
/// failure.
template <typename Row>
bool writeCsvColumns(const std::string& path, const CsvColumns<Row>& columns,
                     const std::vector<Row>& rows) {
  std::vector<std::string> header;
  for (const CsvColumn<Row>& column : columns) header.push_back(column.header);
  std::vector<std::vector<std::string>> cells;
  for (const Row& row : rows) {
    std::vector<std::string>& line = cells.emplace_back();
    for (const CsvColumn<Row>& column : columns) {
      line.push_back(column.cell(row));
    }
  }
  return support::writeCsv(path, header, cells);
}

/// The JSON document of one bench run: {"schema_version", "bench", "meta",
/// "rows", "stats"}. "stats" is the run's observability summary:
/// deterministic obs counters (when enabled) plus per-span wall-time totals
/// (`span.<name>_calls` / `span.<name>_seconds`; the `_seconds` fields are
/// machine-varying and ignored by the checker).
support::JsonValue benchDocument(const std::string& bench,
                                 support::JsonObject meta,
                                 support::JsonArray rows);

/// What the export epilogue wrote. A path is empty when its variable is
/// unset or its write failed; the error flags tell the two apart.
struct ExportResult {
  std::string csvPath;
  std::string jsonPath;
  bool csvError = false;
  bool jsonError = false;
  [[nodiscard]] bool ok() const noexcept { return !csvError && !jsonError; }
};

/// Writes a bench's CSV to the given path; false on I/O failure.
using CsvWriter = std::function<bool(const std::string& path)>;

/// The export epilogue of every bench. When DAGPM_CSV is set and the bench
/// has a CSV (`writeCsv` non-empty), writes $DAGPM_CSV/<name>.csv; when
/// DAGPM_JSON_OUT is set, writes `document()` there. Both are attempted
/// before failing, so a bad CSV directory does not also drop the JSON
/// record. Prints each written path to stdout and each failed write to
/// stderr.
ExportResult maybeExport(const std::string& name, const CsvWriter& writeCsv,
                         const std::function<support::JsonValue()>& document);

/// Benches that sweep a parameter (cluster size, heterogeneity, bandwidth,
/// ablation variant, ...) export one named group per configuration so the
/// perf trajectory can regress each configuration separately instead of a
/// pooled geomean. Single-configuration benches use one group named "".
using OutcomeGroups =
    std::vector<std::pair<std::string, std::vector<RunOutcome>>>;

/// Writes one row per outcome (config, instance, band, family, tasks,
/// feasibility, makespans, runtimes, ratio). Returns false on I/O failure.
/// The config column distinguishes the rows of parameter-sweeping benches;
/// single-configuration benches leave it empty.
bool exportOutcomesCsv(const std::string& path, const OutcomeGroups& groups);

/// One Aggregate as a JSON object (all fields, snake_case keys).
support::JsonValue aggregateToJson(const Aggregate& agg);

/// benchDocument whose rows hold one aggregate per (config, band, family)
/// group and per (config, band), plus an "overall" aggregate of every
/// outcome.
support::JsonValue outcomesToJson(const std::string& bench,
                                  const OutcomeGroups& groups,
                                  support::JsonObject meta = {});

}  // namespace dagpm::experiments
