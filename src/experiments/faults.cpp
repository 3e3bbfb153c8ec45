#include "experiments/faults.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "experiments/export.hpp"
#include "sim/perturbation.hpp"
#include "support/stats.hpp"

namespace dagpm::experiments {

namespace {

std::string levelName(const FaultLevel& level) {
  if (level.failStopProbability <= 0.0 && level.crashProbability <= 0.0) {
    return "nofault";
  }
  std::ostringstream name;
  if (level.failStopProbability > 0.0) {
    name << "fail" << level.failStopProbability;
  }
  if (level.crashProbability > 0.0) {
    if (level.failStopProbability > 0.0) name << "+";
    name << "crash" << level.crashProbability;
  }
  return name.str();
}

}  // namespace

std::vector<FaultLevel> defaultFaultLadder() {
  std::vector<FaultLevel> levels(4);
  levels[1].failStopProbability = 0.15;
  levels[2].failStopProbability = 0.3;
  levels[3].failStopProbability = 0.3;
  levels[3].crashProbability = 0.3;
  for (FaultLevel& level : levels) level.name = levelName(level);
  return levels;
}

platform::Cluster addSpareProcessors(const platform::Cluster& cluster,
                                     int spares) {
  std::vector<platform::Processor> processors;
  processors.reserve(cluster.numProcessors() + static_cast<std::size_t>(
                                                   std::max(spares, 0)));
  for (platform::ProcessorId p = 0; p < cluster.numProcessors(); ++p) {
    processors.push_back(cluster.processor(p));
  }
  // Clone the largest-memory processors (cycling when spares > processors):
  // a spare that cannot host the biggest lost block is no spare at all.
  const std::vector<platform::ProcessorId> byMemory =
      cluster.byDecreasingMemory();
  for (int s = 0; s < spares && !byMemory.empty(); ++s) {
    platform::Processor spare = cluster.processor(
        byMemory[static_cast<std::size_t>(s) % byMemory.size()]);
    spare.kind += "-spare";
    processors.push_back(std::move(spare));
  }
  return platform::Cluster(std::move(processors), cluster.bandwidth());
}

std::vector<FaultOutcome> runFaultRecovery(
    const std::vector<Instance>& instances, const platform::Cluster& cluster,
    const std::vector<FaultLevel>& levels,
    const FaultRunnerOptions& options) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::size_t numLevels = levels.size();
  const int replications = std::max(options.replications, 0);
  // Fixed slot layout keeps result order and every derived seed independent
  // of the parallel schedule (cf. runRescheduling).
  std::vector<FaultOutcome> slots(instances.size() * numLevels * 2);
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
    const platform::Cluster augmented =
        addSpareProcessors(scaled, options.spareProcessors);
    for (std::size_t l = 0; l < numLevels; ++l) {
      const FaultLevel& level = levels[l];
      // Replication seeds depend on (instance, level, replication) only, so
      // both schedulers face the identical fault draw.
      std::vector<std::uint64_t> seeds(static_cast<std::size_t>(replications));
      for (std::size_t r = 0; r < seeds.size(); ++r) {
        seeds[r] =
            sim::mixSeed(options.seed, (i * numLevels + l) * 1000003ULL + r);
      }
      for (int s = 0; s < 2; ++s) {
        const scheduler::ScheduleResult& schedule = s == 0 ? part : mem;
        if (!schedule.feasible) continue;
        const std::size_t slot =
            (i * numLevels + l) * 2 + static_cast<std::size_t>(s);
        FaultOutcome& out = slots[slot];
        out.level = level.name;
        out.scheduler = s == 0 ? "part" : "mem";
        out.instance = inst.name;
        out.band = inst.band;
        out.family = inst.family;
        out.numTasks = inst.numTasks;
        out.replications = replications;
        out.staticMakespan = schedule.makespan;
        out.ok = true;

        sim::FaultSpec spec;
        spec.failStopProbability = level.failStopProbability;
        spec.crashProbability = level.crashProbability;
        spec.horizon =
            std::max(schedule.makespan * options.horizonFraction, 1e-9);
        spec.downtime = schedule.makespan * level.downtimeFraction;
        spec.maxCrashesPerProcessor = options.maxCrashesPerProcessor;

        std::vector<double> recoveries;
        for (std::size_t r = 0; r < seeds.size(); ++r) {
          sim::FaultModel faults(spec, augmented.numProcessors());
          resched::RescheduleOptions ro;
          ro.policy = options.policy;
          ro.seed = seeds[r];
          ro.faults = &faults;
          const resched::RescheduleResult run = resched::runOnline(
              inst.dag, augmented, schedule, s == 0 ? partOracle : memOracle,
              ro);
          if (!run.ok) {
            // Neither the repair nor greedy re-execution could recover this
            // draw (e.g. every capable processor died): data, not an error.
            ++out.unrecovered;
            continue;
          }
          if (run.faultsInjected > 0) ++out.faultyRuns;
          for (const sim::FaultEvent& event : run.faultLog) {
            if (event.kind == sim::FaultKind::kFailStop) {
              ++out.failStops;
            } else {
              ++out.crashes;
            }
            if (event.killedTask != graph::kInvalidVertex) ++out.tasksKilled;
          }
          out.evacuations += run.evacuations;
          out.retries += run.faultRetries;
          if (run.greedyWon) ++out.greedyWins;
          const double aware = run.finalMakespan;
          const double greedy =
              spec.active() ? run.greedyMakespan : run.unrepairedMakespan;
          if (greedy == kInf) {
            // Greedy re-execution failed outright; the search recovered.
            ++out.searchWins;
            if (run.faultsInjected > 0) recoveries.push_back(1.0);
            continue;
          }
          out.awareMakespans.push_back(aware);
          out.greedyMakespans.push_back(greedy);
          if (aware < greedy * (1.0 - 1e-12)) ++out.searchWins;
          const double degradation = greedy - out.staticMakespan;
          if (run.faultsInjected > 0 &&
              degradation > 1e-9 * std::max(1.0, out.staticMakespan)) {
            recoveries.push_back((greedy - aware) / degradation);
          }
        }
        if (!out.awareMakespans.empty()) {
          out.meanAware = support::mean(out.awareMakespans);
          out.meanGreedy = support::mean(out.greedyMakespans);
          if (out.staticMakespan > 0.0) {
            out.meanAwareSlowdown = out.meanAware / out.staticMakespan;
            out.meanGreedySlowdown = out.meanGreedy / out.staticMakespan;
          }
        }
        out.meanRecoveredFraction = support::mean(recoveries);
        filled[slot] = 1;
      }
    }
      });

  std::vector<FaultOutcome> outcomes;
  outcomes.reserve(slots.size());
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (filled[i] != 0) outcomes.push_back(std::move(slots[i]));
  }
  return outcomes;
}

std::map<FaultKey, FaultAggregate> aggregateFaultRecovery(
    const std::vector<FaultOutcome>& outcomes) {
  std::map<FaultKey, std::vector<const FaultOutcome*>> groups;
  for (const FaultOutcome& out : outcomes) {
    groups[{out.level, out.scheduler}].push_back(&out);
  }
  std::map<FaultKey, FaultAggregate> result;
  for (const auto& [key, group] : groups) {
    FaultAggregate agg;
    std::vector<double> aware, greedy, recovered;
    for (const FaultOutcome* out : group) {
      if (!out->ok) continue;
      ++agg.instances;
      agg.replications = out->replications;
      agg.faultyRuns += out->faultyRuns;
      agg.totalFailStops += out->failStops;
      agg.totalCrashes += out->crashes;
      agg.totalTasksKilled += out->tasksKilled;
      agg.totalEvacuations += out->evacuations;
      agg.totalRetries += out->retries;
      agg.greedyWins += out->greedyWins;
      agg.searchWins += out->searchWins;
      agg.unrecovered += out->unrecovered;
      if (out->meanAwareSlowdown > 0.0) {
        aware.push_back(out->meanAwareSlowdown);
        greedy.push_back(out->meanGreedySlowdown);
      }
      if (out->faultyRuns > 0) recovered.push_back(out->meanRecoveredFraction);
    }
    agg.geomeanAwareSlowdown = support::geometricMean(aware);
    agg.geomeanGreedySlowdown = support::geometricMean(greedy);
    if (agg.geomeanAwareSlowdown > 0.0) {
      agg.improvement = agg.geomeanGreedySlowdown / agg.geomeanAwareSlowdown;
    }
    agg.meanRecoveredFraction = support::mean(recovered);
    result[key] = agg;
  }
  return result;
}

CsvColumns<FaultOutcome> faultRecoveryCsvColumns() {
  using O = FaultOutcome;
  return {
      {"level", [](const O& o) { return o.level; }},
      {"scheduler", [](const O& o) { return o.scheduler; }},
      {"instance", [](const O& o) { return o.instance; }},
      {"band", [](const O& o) { return workflows::sizeBandName(o.band); }},
      {"family", [](const O& o) { return o.family; }},
      {"tasks", [](const O& o) { return std::to_string(o.numTasks); }},
      {"ok", [](const O& o) { return formatFlag(o.ok); }},
      {"static_makespan",
       [](const O& o) { return formatG6(o.staticMakespan); }},
      {"mean_aware_makespan",
       [](const O& o) { return formatG6(o.meanAware); }},
      {"mean_greedy_makespan",
       [](const O& o) { return formatG6(o.meanGreedy); }},
      {"mean_aware_slowdown",
       [](const O& o) { return formatG6(o.meanAwareSlowdown); }},
      {"mean_greedy_slowdown",
       [](const O& o) { return formatG6(o.meanGreedySlowdown); }},
      {"recovered_fraction",
       [](const O& o) { return formatG6(o.meanRecoveredFraction); }},
      {"faulty_runs", [](const O& o) { return std::to_string(o.faultyRuns); }},
      {"fail_stops", [](const O& o) { return std::to_string(o.failStops); }},
      {"crashes", [](const O& o) { return std::to_string(o.crashes); }},
      {"tasks_killed",
       [](const O& o) { return std::to_string(o.tasksKilled); }},
      {"evacuations",
       [](const O& o) { return std::to_string(o.evacuations); }},
      {"retries", [](const O& o) { return std::to_string(o.retries); }},
      {"greedy_wins", [](const O& o) { return std::to_string(o.greedyWins); }},
      {"search_wins", [](const O& o) { return std::to_string(o.searchWins); }},
      {"unrecovered",
       [](const O& o) { return std::to_string(o.unrecovered); }},
      {"replications",
       [](const O& o) { return std::to_string(o.replications); }},
  };
}

support::JsonArray faultRecoveryJsonRows(
    const std::vector<FaultOutcome>& outcomes) {
  support::JsonArray rows;
  for (const auto& [key, agg] : aggregateFaultRecovery(outcomes)) {
    support::JsonObject row;
    row["level"] = support::JsonValue(key.first);
    row["scheduler"] = support::JsonValue(key.second);
    row["instances"] = support::JsonValue(static_cast<double>(agg.instances));
    row["replications"] =
        support::JsonValue(static_cast<double>(agg.replications));
    row["faulty_runs"] =
        support::JsonValue(static_cast<double>(agg.faultyRuns));
    // Exact-integer fault tallies: the CI checker matches these suffixes at
    // zero tolerance (a drifted fault count is a determinism bug, not noise).
    row["total_fail_stops"] =
        support::JsonValue(static_cast<double>(agg.totalFailStops));
    row["total_crashes"] =
        support::JsonValue(static_cast<double>(agg.totalCrashes));
    row["total_tasks_killed"] =
        support::JsonValue(static_cast<double>(agg.totalTasksKilled));
    row["total_retries"] =
        support::JsonValue(static_cast<double>(agg.totalRetries));
    row["evacuations"] =
        support::JsonValue(static_cast<double>(agg.totalEvacuations));
    row["greedy_wins"] =
        support::JsonValue(static_cast<double>(agg.greedyWins));
    row["search_wins"] =
        support::JsonValue(static_cast<double>(agg.searchWins));
    row["unrecovered"] =
        support::JsonValue(static_cast<double>(agg.unrecovered));
    row["geomean_aware_slowdown"] =
        support::JsonValue(agg.geomeanAwareSlowdown);
    row["geomean_greedy_slowdown"] =
        support::JsonValue(agg.geomeanGreedySlowdown);
    row["improvement"] = support::JsonValue(agg.improvement);
    row["recovered_fraction"] =
        support::JsonValue(agg.meanRecoveredFraction);
    rows.push_back(support::JsonValue(std::move(row)));
  }
  return rows;
}

}  // namespace dagpm::experiments
