#include "experiments/robustness.hpp"

#include <algorithm>
#include <sstream>

#include "experiments/export.hpp"
#include "support/stats.hpp"

namespace dagpm::experiments {

std::vector<NoiseLevel> lognormalLadder(const std::vector<double>& sigmas) {
  std::vector<NoiseLevel> levels;
  levels.reserve(sigmas.size());
  for (const double sigma : sigmas) {
    NoiseLevel level;
    if (sigma <= 0.0) {
      level.spec.kind = sim::PerturbationKind::kDeterministic;
    } else {
      level.spec.kind = sim::PerturbationKind::kLognormal;
      level.spec.sigma = sigma;
    }
    std::ostringstream name;
    name << "sigma" << sigma;
    level.config = name.str();
    levels.push_back(std::move(level));
  }
  return levels;
}

std::vector<RobustnessOutcome> runRobustness(
    const std::vector<Instance>& instances, const platform::Cluster& cluster,
    const std::vector<NoiseLevel>& levels,
    const RobustnessRunnerOptions& options) {
  const std::size_t numLevels = levels.size();
  // Fixed slot layout (instance-major, then level, then scheduler) makes the
  // result order and every derived seed independent of thread scheduling.
  std::vector<RobustnessOutcome> slots(instances.size() * numLevels * 2);
  std::vector<char> filled(slots.size(), 0);

  forEachScheduledInstance(
      instances, cluster, options.part, options.mem,
      options.parallelInstances,
      [&](std::size_t i, const Instance& inst,
          const platform::Cluster& scaled,
          const scheduler::ScheduleResult& part,
          const scheduler::ScheduleResult& mem,
          const memory::MemDagOracle& partOracle,
          const memory::MemDagOracle& memOracle) {
        for (std::size_t l = 0; l < numLevels; ++l) {
          for (int s = 0; s < 2; ++s) {
            const scheduler::ScheduleResult& schedule = s == 0 ? part : mem;
            if (!schedule.feasible) continue;
            const std::size_t slot = (i * numLevels + l) * 2 +
                                     static_cast<std::size_t>(s);
            RobustnessOutcome& out = slots[slot];
            out.config = levels[l].config;
            out.scheduler = s == 0 ? "part" : "mem";
            out.instance = inst.name;
            out.band = inst.band;
            out.family = inst.family;
            out.numTasks = inst.numTasks;

            sim::RobustnessOptions ro = options.robustness;
            ro.perturbation = levels[l].spec;
            // The instance-level loop already saturates the cores.
            ro.parallel = !options.parallelInstances;
            ro.seed = sim::mixSeed(options.robustness.seed,
                                   static_cast<std::uint64_t>(slot));
            out.summary = sim::evaluateRobustness(
                inst.dag, scaled, schedule,
                s == 0 ? partOracle : memOracle, ro);
            filled[slot] = 1;
          }
        }
      });

  std::vector<RobustnessOutcome> outcomes;
  outcomes.reserve(slots.size());
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (filled[i] != 0) outcomes.push_back(std::move(slots[i]));
  }
  return outcomes;
}

std::map<std::pair<std::string, std::string>, RobustnessAggregate>
aggregateRobustness(const std::vector<RobustnessOutcome>& outcomes) {
  std::map<std::pair<std::string, std::string>,
           std::vector<const RobustnessOutcome*>>
      groups;
  for (const RobustnessOutcome& out : outcomes) {
    groups[{out.config, out.scheduler}].push_back(&out);
  }
  std::map<std::pair<std::string, std::string>, RobustnessAggregate> result;
  for (const auto& [key, group] : groups) {
    RobustnessAggregate agg;
    std::vector<double> statics, means, p95s, meanSlow, p95Slow;
    long totalReplications = 0;
    for (const RobustnessOutcome* out : group) {
      const sim::RobustnessSummary& s = out->summary;
      if (!s.ok || s.makespans.empty()) continue;
      ++agg.instances;
      agg.replications = s.replications;
      totalReplications += s.replications;
      // Degenerate all-zero-work schedules yield zero makespans, which the
      // geometric mean cannot absorb; skip them like the ratios below.
      if (s.staticMakespan > 0.0) statics.push_back(s.staticMakespan);
      if (s.meanMakespan > 0.0) means.push_back(s.meanMakespan);
      if (s.p95Makespan > 0.0) p95s.push_back(s.p95Makespan);
      if (s.staticMakespan > 0.0) {
        meanSlow.push_back(s.meanMakespan / s.staticMakespan);
        p95Slow.push_back(s.p95Makespan / s.staticMakespan);
        agg.maxSlowdown =
            std::max(agg.maxSlowdown, s.maxMakespan / s.staticMakespan);
      }
      agg.overflowRuns += s.overflowRuns;
    }
    agg.geomeanStaticMakespan = support::geometricMean(statics);
    agg.geomeanMeanMakespan = support::geometricMean(means);
    agg.geomeanP95Makespan = support::geometricMean(p95s);
    agg.geomeanMeanSlowdown = support::geometricMean(meanSlow);
    agg.geomeanP95Slowdown = support::geometricMean(p95Slow);
    agg.overflowFraction =
        totalReplications > 0
            ? static_cast<double>(agg.overflowRuns) /
                  static_cast<double>(totalReplications)
            : 0.0;
    result[key] = agg;
  }
  return result;
}

CsvColumns<RobustnessOutcome> robustnessCsvColumns() {
  using O = RobustnessOutcome;
  return {
      {"config", [](const O& o) { return o.config; }},
      {"scheduler", [](const O& o) { return o.scheduler; }},
      {"instance", [](const O& o) { return o.instance; }},
      {"band", [](const O& o) { return workflows::sizeBandName(o.band); }},
      {"family", [](const O& o) { return o.family; }},
      {"tasks", [](const O& o) { return std::to_string(o.numTasks); }},
      {"ok", [](const O& o) { return formatFlag(o.summary.ok); }},
      {"static_makespan",
       [](const O& o) { return formatG6(o.summary.staticMakespan); }},
      {"mean_makespan",
       [](const O& o) { return formatG6(o.summary.meanMakespan); }},
      {"p50_makespan",
       [](const O& o) { return formatG6(o.summary.p50Makespan); }},
      {"p95_makespan",
       [](const O& o) { return formatG6(o.summary.p95Makespan); }},
      {"min_makespan",
       [](const O& o) { return formatG6(o.summary.minMakespan); }},
      {"max_makespan",
       [](const O& o) { return formatG6(o.summary.maxMakespan); }},
      {"mean_slowdown",
       [](const O& o) { return formatG6(o.summary.meanSlowdown); }},
      {"p95_slowdown",
       [](const O& o) { return formatG6(o.summary.p95Slowdown); }},
      {"overflow_runs",
       [](const O& o) { return std::to_string(o.summary.overflowRuns); }},
      {"replications",
       [](const O& o) { return std::to_string(o.summary.replications); }},
  };
}

support::JsonArray robustnessJsonRows(
    const std::vector<RobustnessOutcome>& outcomes) {
  support::JsonArray rows;
  for (const auto& [key, agg] : aggregateRobustness(outcomes)) {
    support::JsonObject row;
    row["config"] = support::JsonValue(key.first);
    row["scheduler"] = support::JsonValue(key.second);
    row["instances"] = support::JsonValue(static_cast<double>(agg.instances));
    row["replications"] =
        support::JsonValue(static_cast<double>(agg.replications));
    row["geomean_static_makespan"] =
        support::JsonValue(agg.geomeanStaticMakespan);
    row["geomean_mean_makespan"] =
        support::JsonValue(agg.geomeanMeanMakespan);
    row["geomean_p95_makespan"] = support::JsonValue(agg.geomeanP95Makespan);
    row["geomean_mean_slowdown"] =
        support::JsonValue(agg.geomeanMeanSlowdown);
    row["geomean_p95_slowdown"] = support::JsonValue(agg.geomeanP95Slowdown);
    row["max_slowdown"] = support::JsonValue(agg.maxSlowdown);
    row["overflow_runs"] =
        support::JsonValue(static_cast<double>(agg.overflowRuns));
    row["overflow_fraction"] = support::JsonValue(agg.overflowFraction);
    rows.push_back(support::JsonValue(std::move(row)));
  }
  return rows;
}

}  // namespace dagpm::experiments
