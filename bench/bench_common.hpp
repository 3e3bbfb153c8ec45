#pragma once
// Shared plumbing for the bench binaries. Every bench binary regenerates one
// table or figure of the paper: it builds the instance set for the active
// scale (DAGPM_QUICK / default / DAGPM_FULL), runs both schedulers through
// the experiment harness (OpenMP-parallel across instances, results shared
// between binaries via an on-disk cache), and prints the same rows/series
// the paper reports.

#include <cstdio>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "experiments/export.hpp"
#include "experiments/harness.hpp"
#include "support/env.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"
#include "support/timer.hpp"

namespace dagpm::bench {

using experiments::Aggregate;
using experiments::Instance;
using experiments::RunOutcome;
using workflows::SizeBand;

inline const char* bandName(SizeBand band) {
  static const std::string names[] = {"real", "small", "mid", "big"};
  switch (band) {
    case SizeBand::kReal: return names[0].c_str();
    case SizeBand::kSmall: return names[1].c_str();
    case SizeBand::kMid: return names[2].c_str();
    case SizeBand::kBig: return names[3].c_str();
  }
  return "?";
}

/// Holds the environment, the shared result cache, and scheduler options.
class BenchContext {
 public:
  BenchContext()
      : env_(support::BenchEnv::fromEnvironment()),
        cache_(experiments::defaultCachePath()) {}

  [[nodiscard]] const support::BenchEnv& env() const noexcept { return env_; }

  /// All four workflow groups at the active scale.
  std::vector<Instance> allInstances(double workScale = 1.0) const {
    std::vector<Instance> instances =
        experiments::makeRealInstances(env_.seeds, workScale);
    append(instances, experiments::makeSyntheticInstances(
                          env_.smallSizes(), SizeBand::kSmall, env_.seeds,
                          workScale));
    append(instances,
           experiments::makeSyntheticInstances(
               env_.midSizes(), SizeBand::kMid, env_.seeds, workScale));
    append(instances,
           experiments::makeSyntheticInstances(
               env_.bigSizes(), SizeBand::kBig, env_.seeds, workScale));
    return instances;
  }

  /// Runner options bound to the shared cache. `tag` must identify the
  /// cluster + scheduler configuration uniquely.
  experiments::RunnerOptions options(const std::string& tag) {
    experiments::RunnerOptions opts;
    opts.cacheTag = tag + "|" + scaleName() + "|seeds" +
                    std::to_string(env_.seeds) + "|" + sweepName();
    opts.cache = &cache_;
    opts.part.sweep = sweep();
    return opts;
  }

  [[nodiscard]] scheduler::KPrimeSweep sweep() const {
    if (env_.sweep == "full") return scheduler::KPrimeSweep::kFull;
    if (env_.sweep == "single") return scheduler::KPrimeSweep::kSingle;
    return scheduler::KPrimeSweep::kDoubling;
  }

  [[nodiscard]] std::string sweepName() const {
    return env_.sweep.empty() ? "doubling" : env_.sweep;
  }

  /// The "meta" block of the bench's JSON document: scale, sweep and seeds,
  /// plus the bench's own `extra` entries. All values are strings.
  [[nodiscard]] support::JsonObject meta(
      const std::map<std::string, std::string>& extra = {}) const {
    support::JsonObject meta;
    meta["scale"] = support::JsonValue(scaleName());
    meta["sweep"] = support::JsonValue(sweepName());
    meta["seeds"] = support::JsonValue(std::to_string(env_.seeds));
    for (const auto& [key, value] : extra) {
      meta[key] = support::JsonValue(value);
    }
    return meta;
  }

  [[nodiscard]] std::string scaleName() const {
    switch (env_.scale) {
      case support::BenchScale::kQuick: return "quick";
      case support::BenchScale::kDefault: return "default";
      case support::BenchScale::kFull: return "full";
    }
    return "?";
  }

 private:
  static void append(std::vector<Instance>& into, std::vector<Instance> from) {
    for (Instance& inst : from) into.push_back(std::move(inst));
  }

  support::BenchEnv env_;
  support::ResultCache cache_;
};

/// Standard preamble: what this bench regenerates and at which scale.
inline void printPreamble(const BenchContext& ctx, const std::string& title,
                          const std::string& paperRef) {
  support::printHeading(std::cout, title);
  std::cout << "reproduces: " << paperRef << "\n"
            << "scale: " << ctx.scaleName()
            << " (DAGPM_QUICK=1 / DAGPM_FULL=1 to change), k' sweep: "
            << ctx.sweepName() << " (DAGPM_SWEEP=full for the paper's sweep)\n"
            << "relative makespan = geomean(DagHetPart/DagHetMem) per group;"
            << " lower is better, 100% = baseline\n\n";
}

/// Standard epilogue of a bench main: writes the optional CSV / JSON exports
/// (DAGPM_CSV / DAGPM_JSON_OUT) and converts the harness outcomes into the
/// process exit status so CI smoke runs fail loudly. Returns nonzero when the
/// harness produced no outcomes, when an export failed, or — unless
/// `requireFeasible` is false (benches that intentionally probe infeasible
/// regimes) — when not a single instance was schedulable by both schedulers.
/// Benches that sweep a parameter pass one named group per configuration so
/// the exported JSON keeps per-configuration rows.
inline int finish(const BenchContext& ctx, const std::string& name,
                  const experiments::OutcomeGroups& groups,
                  bool requireFeasible = true) {
  const experiments::ExportResult exported = experiments::maybeExport(
      name,
      [&](const std::string& path) {
        return experiments::exportOutcomesCsv(path, groups);
      },
      [&] { return experiments::outcomesToJson(name, groups, ctx.meta()); });
  if (!exported.ok()) return 1;
  bool anyOutcome = false, anyFeasible = false;
  for (const auto& [config, outcomes] : groups) {
    for (const RunOutcome& out : outcomes) {
      anyOutcome = true;
      anyFeasible = anyFeasible || (out.partFeasible && out.memFeasible);
    }
  }
  if (!anyOutcome) {
    std::cerr << "error: the harness produced no outcomes\n";
    return 1;
  }
  if (requireFeasible && !anyFeasible) {
    std::cerr << "error: no instance was schedulable by both schedulers\n";
    return 1;
  }
  return 0;
}

inline int finish(const BenchContext& ctx, const std::string& name,
                  const std::vector<RunOutcome>& outcomes,
                  bool requireFeasible = true) {
  return finish(ctx, name, experiments::OutcomeGroups{{"", outcomes}},
                requireFeasible);
}

/// Renders the per-band aggregate table used by several figures.
inline void printBandTable(const std::vector<RunOutcome>& outcomes,
                           const std::string& firstColumn,
                           const std::string& label) {
  const auto byBand = experiments::aggregateByBand(outcomes);
  support::Table table({firstColumn, "workflows", "scheduled(part/mem)",
                        "rel.makespan", "speedup"});
  for (const auto& [band, agg] : byBand) {
    table.addRow({label + "/" + bandName(band), std::to_string(agg.total),
                  std::to_string(agg.partScheduled) + "/" +
                      std::to_string(agg.memScheduled),
                  support::Table::percent(agg.geomeanRatio),
                  agg.geomeanRatio > 0.0
                      ? support::Table::num(1.0 / agg.geomeanRatio, 2) + "x"
                      : "-"});
  }
  table.print(std::cout);
  std::cout << '\n';
}

}  // namespace dagpm::bench
