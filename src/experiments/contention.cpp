#include "experiments/contention.hpp"

#include <algorithm>
#include <sstream>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "experiments/export.hpp"
#include "memory/oracle.hpp"
#include "scheduler/solution.hpp"
#include "sim/engine.hpp"
#include "support/stats.hpp"

namespace dagpm::experiments {

namespace {

/// Fair-share simulated makespan of a feasible schedule (the ground truth
/// both cost models are judged against). Deterministic: no perturbation.
double simulateContended(const graph::Dag& g, const platform::Cluster& cluster,
                         const scheduler::ScheduleResult& schedule,
                         const memory::MemDagOracle& oracle) {
  sim::SimOptions options;
  options.comm = sim::CommModel::kBlockSynchronous;
  options.contention = true;
  options.trackMemory = false;  // feasibility was validated statically
  const sim::SimResult result =
      sim::simulateSchedule(g, cluster, schedule, oracle, options);
  return result.ok ? result.makespan : 0.0;
}

}  // namespace

std::vector<ContentionOutcome> runContention(
    const std::vector<Instance>& instances, const platform::Cluster& cluster,
    const std::vector<double>& ccrLadder,
    const ContentionRunnerOptions& options) {
  // Fixed slot layout (instance-major, then rung) keeps the result order
  // independent of thread scheduling.
  std::vector<ContentionOutcome> slots(instances.size() * ccrLadder.size());

  auto runOne = [&](std::size_t slot) {
    const std::size_t i = slot / ccrLadder.size();
    const std::size_t r = slot % ccrLadder.size();
    const Instance& inst = instances[i];
    const double ccr = ccrLadder[r];

    ContentionOutcome& out = slots[slot];
    std::ostringstream config;
    config << "ccr" << ccr;
    out.config = config.str();
    out.instance = inst.name;
    out.band = inst.band;
    out.family = inst.family;
    out.numTasks = inst.numTasks;
    out.ccr = ccr;

    platform::Cluster scaled = cluster;
    scaled.scaleMemoriesToFit(inst.dag.maxTaskMemoryRequirement());
    scaled.setBandwidth(1.0 / ccr);

    scheduler::DagHetPartConfig cfg = options.part;
    // The (instance, rung) loop already saturates the cores.
    cfg.parallelSweep = !options.parallelInstances;
    cfg.options.contentionAware = false;
    const scheduler::ScheduleResult oblivious =
        scheduler::dagHetPart(inst.dag, scaled, cfg);
    cfg.options.contentionAware = true;
    const scheduler::ScheduleResult aware =
        scheduler::dagHetPart(inst.dag, scaled, cfg);

    const memory::MemDagOracle oracle(inst.dag, options.part.oracle);
    const comm::CommCostModel& fairShare = comm::fairShareCommModel();
    out.obliviousFeasible = oblivious.feasible;
    if (oblivious.feasible) {
      out.obliviousStatic = scheduler::staticMakespan(inst.dag, scaled,
                                                      oblivious);
      out.obliviousPredicted =
          scheduler::modelMakespan(inst.dag, scaled, oblivious, fairShare)
              .value_or(0.0);
      out.obliviousSimulated =
          simulateContended(inst.dag, scaled, oblivious, oracle);
    }
    out.awareFeasible = aware.feasible;
    if (aware.feasible) {
      out.awareStatic = scheduler::staticMakespan(inst.dag, scaled, aware);
      out.awarePredicted =
          scheduler::modelMakespan(inst.dag, scaled, aware, fairShare)
              .value_or(0.0);
      out.awareSimulated = simulateContended(inst.dag, scaled, aware, oracle);
    }
  };

#ifdef _OPENMP
  if (options.parallelInstances) {
#pragma omp parallel for schedule(dynamic)
    for (std::size_t s = 0; s < slots.size(); ++s) runOne(s);
  } else {
    for (std::size_t s = 0; s < slots.size(); ++s) runOne(s);
  }
#else
  for (std::size_t s = 0; s < slots.size(); ++s) runOne(s);
#endif
  return slots;
}

std::map<std::pair<std::string, std::string>, ContentionAggregate>
aggregateContention(const std::vector<ContentionOutcome>& outcomes) {
  std::map<std::pair<std::string, std::string>,
           std::vector<const ContentionOutcome*>>
      groups;
  for (const ContentionOutcome& out : outcomes) {
    groups[{out.config, workflows::sizeBandName(out.band)}].push_back(&out);
    groups[{out.config, "all"}].push_back(&out);
  }
  std::map<std::pair<std::string, std::string>, ContentionAggregate> result;
  for (const auto& [key, group] : groups) {
    ContentionAggregate agg;
    std::vector<double> statics, oblSims, awareSims, gaps, gains, recovered;
    for (const ContentionOutcome* out : group) {
      ++agg.total;
      if (!out->obliviousFeasible || !out->awareFeasible) continue;
      ++agg.comparable;
      // Degenerate zero-makespan schedules cannot enter a geometric mean.
      if (out->obliviousStatic <= 0.0 || out->obliviousSimulated <= 0.0 ||
          out->awareSimulated <= 0.0) {
        continue;
      }
      statics.push_back(out->obliviousStatic);
      oblSims.push_back(out->obliviousSimulated);
      awareSims.push_back(out->awareSimulated);
      gaps.push_back(out->obliviousSimulated / out->obliviousStatic);
      gains.push_back(out->obliviousSimulated / out->awareSimulated);
      const double tol = 1e-9 * out->obliviousSimulated;
      if (out->awareSimulated < out->obliviousSimulated - tol) {
        ++agg.awareWins;
      } else if (out->awareSimulated > out->obliviousSimulated + tol) {
        ++agg.awareLosses;
      }
      const double gap = out->obliviousSimulated - out->obliviousStatic;
      if (gap > tol) {
        const double share =
            (out->obliviousSimulated - out->awareSimulated) / gap;
        recovered.push_back(std::clamp(share, 0.0, 1.0));
      }
    }
    agg.geomeanObliviousStatic = support::geometricMean(statics);
    agg.geomeanObliviousSimulated = support::geometricMean(oblSims);
    agg.geomeanAwareSimulated = support::geometricMean(awareSims);
    agg.geomeanOptimismGap = support::geometricMean(gaps);
    agg.geomeanAwareGain = support::geometricMean(gains);
    agg.meanRecoveredFraction = support::mean(recovered);
    result[key] = agg;
  }
  return result;
}

CsvColumns<ContentionOutcome> contentionCsvColumns() {
  using O = ContentionOutcome;
  return {
      {"config", [](const O& o) { return o.config; }},
      {"instance", [](const O& o) { return o.instance; }},
      {"band", [](const O& o) { return workflows::sizeBandName(o.band); }},
      {"family", [](const O& o) { return o.family; }},
      {"tasks", [](const O& o) { return std::to_string(o.numTasks); }},
      {"ccr", [](const O& o) { return formatG6(o.ccr); }},
      {"oblivious_feasible",
       [](const O& o) { return formatFlag(o.obliviousFeasible); }},
      {"aware_feasible",
       [](const O& o) { return formatFlag(o.awareFeasible); }},
      {"oblivious_static",
       [](const O& o) { return formatG6(o.obliviousStatic); }},
      {"oblivious_predicted",
       [](const O& o) { return formatG6(o.obliviousPredicted); }},
      {"oblivious_simulated",
       [](const O& o) { return formatG6(o.obliviousSimulated); }},
      {"aware_static", [](const O& o) { return formatG6(o.awareStatic); }},
      {"aware_predicted",
       [](const O& o) { return formatG6(o.awarePredicted); }},
      {"aware_simulated",
       [](const O& o) { return formatG6(o.awareSimulated); }},
  };
}

support::JsonArray contentionJsonRows(
    const std::vector<ContentionOutcome>& outcomes) {
  support::JsonArray rows;
  for (const auto& [key, agg] : aggregateContention(outcomes)) {
    support::JsonObject row;
    row["config"] = support::JsonValue(key.first);
    row["band"] = support::JsonValue(key.second);
    row["workflows"] = support::JsonValue(static_cast<double>(agg.total));
    row["comparable"] =
        support::JsonValue(static_cast<double>(agg.comparable));
    row["aware_wins"] = support::JsonValue(static_cast<double>(agg.awareWins));
    row["aware_losses"] =
        support::JsonValue(static_cast<double>(agg.awareLosses));
    row["geomean_oblivious_static"] =
        support::JsonValue(agg.geomeanObliviousStatic);
    row["geomean_oblivious_simulated"] =
        support::JsonValue(agg.geomeanObliviousSimulated);
    row["geomean_aware_simulated"] =
        support::JsonValue(agg.geomeanAwareSimulated);
    row["geomean_optimism_gap"] = support::JsonValue(agg.geomeanOptimismGap);
    row["geomean_aware_gain"] = support::JsonValue(agg.geomeanAwareGain);
    row["recovered_fraction"] =
        support::JsonValue(agg.meanRecoveredFraction);
    rows.push_back(support::JsonValue(std::move(row)));
  }
  return rows;
}

}  // namespace dagpm::experiments
