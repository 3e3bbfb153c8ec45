#include "experiments/resched.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "experiments/export.hpp"
#include "support/stats.hpp"

namespace dagpm::experiments {

std::vector<PolicyConfig> defaultPolicyLadder() {
  std::vector<PolicyConfig> policies;
  {
    PolicyConfig none;
    none.name = "none";
    none.policy.trigger = resched::TriggerPolicy::kNone;
    policies.push_back(std::move(none));
  }
  {
    PolicyConfig interval;
    interval.name = "interval";
    interval.policy.trigger = resched::TriggerPolicy::kInterval;
    policies.push_back(std::move(interval));
  }
  {
    PolicyConfig lateness;
    lateness.name = "lateness";
    lateness.policy.trigger = resched::TriggerPolicy::kLateness;
    policies.push_back(std::move(lateness));
  }
  return policies;
}

std::vector<NoiseLevel> stragglerLadder(
    const std::vector<double>& probabilities, double factor) {
  std::vector<NoiseLevel> levels;
  levels.reserve(probabilities.size());
  for (const double p : probabilities) {
    NoiseLevel level;
    if (p <= 0.0) {
      level.spec.kind = sim::PerturbationKind::kDeterministic;
      level.config = "deterministic";
    } else {
      level.spec.kind = sim::PerturbationKind::kStraggler;
      level.spec.stragglerProbability = p;
      level.spec.stragglerFactor = factor;
      std::ostringstream name;
      name << "straggler" << p << "x" << factor;
      level.config = name.str();
    }
    levels.push_back(std::move(level));
  }
  return levels;
}

std::vector<ReschedOutcome> runRescheduling(
    const std::vector<Instance>& instances, const platform::Cluster& cluster,
    const std::vector<NoiseLevel>& levels,
    const ReschedulingRunnerOptions& options) {
  const std::size_t numLevels = levels.size();
  const std::size_t numPolicies = options.policies.size();
  const int replications = std::max(options.replications, 0);
  // Fixed slot layout keeps result order and every derived seed independent
  // of the parallel schedule (cf. runRobustness).
  std::vector<ReschedOutcome> slots(instances.size() * numLevels *
                                    numPolicies * 2);
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
      // Replication seeds depend on (instance, level, replication) only, so
      // every policy and both schedulers face the identical noise draw.
      std::vector<std::uint64_t> seeds(static_cast<std::size_t>(replications));
      for (std::size_t r = 0; r < seeds.size(); ++r) {
        seeds[r] = sim::mixSeed(options.seed,
                                (i * numLevels + l) * 1000003ULL + r);
      }
      for (std::size_t p = 0; p < numPolicies; ++p) {
        for (int s = 0; s < 2; ++s) {
          const scheduler::ScheduleResult& schedule = s == 0 ? part : mem;
          if (!schedule.feasible) continue;
          const std::size_t slot =
              ((i * numLevels + l) * numPolicies + p) * 2 +
              static_cast<std::size_t>(s);
          ReschedOutcome& out = slots[slot];
          out.config = levels[l].config;
          out.policy = options.policies[p].name;
          out.scheduler = s == 0 ? "part" : "mem";
          out.instance = inst.name;
          out.band = inst.band;
          out.family = inst.family;
          out.numTasks = inst.numTasks;
          out.replications = replications;
          out.ok = true;

          double accepted = 0.0;
          double triggers = 0.0;
          for (std::size_t r = 0; r < seeds.size(); ++r) {
            resched::RescheduleOptions ro;
            ro.policy = options.policies[p].policy;
            ro.perturbation = levels[l].spec;
            ro.seed = seeds[r];
            ro.contention = options.contention;
            const resched::RescheduleResult run = resched::runOnline(
                inst.dag, scaled, schedule, s == 0 ? partOracle : memOracle,
                ro);
            if (!run.ok) {
              out.ok = false;
              out.error = run.error;
              break;
            }
            out.staticMakespan = run.staticMakespan;
            out.finalMakespans.push_back(run.finalMakespan);
            out.unrepairedMakespans.push_back(run.unrepairedMakespan);
            accepted += run.reschedulesAccepted;
            triggers += run.triggersFired;
            if (run.guardTripped) ++out.guardTrips;
          }
          if (out.ok && !out.finalMakespans.empty()) {
            const double n =
                static_cast<double>(out.finalMakespans.size());
            out.meanFinal = support::mean(out.finalMakespans);
            out.p95Final = support::percentile(out.finalMakespans, 0.95);
            out.meanUnrepaired = support::mean(out.unrepairedMakespans);
            if (out.staticMakespan > 0.0) {
              out.meanSlowdown = out.meanFinal / out.staticMakespan;
              out.p95Slowdown = out.p95Final / out.staticMakespan;
              out.meanUnrepairedSlowdown =
                  out.meanUnrepaired / out.staticMakespan;
            }
            out.meanReschedules = accepted / n;
            out.meanTriggers = triggers / n;
          }
          filled[slot] = 1;
        }
      }
    }
      });

  std::vector<ReschedOutcome> outcomes;
  outcomes.reserve(slots.size());
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (filled[i] != 0) outcomes.push_back(std::move(slots[i]));
  }
  return outcomes;
}

std::map<ReschedKey, ReschedAggregate> aggregateRescheduling(
    const std::vector<ReschedOutcome>& outcomes) {
  std::map<ReschedKey, std::vector<const ReschedOutcome*>> groups;
  for (const ReschedOutcome& out : outcomes) {
    groups[{out.config, out.policy, out.scheduler}].push_back(&out);
  }
  std::map<ReschedKey, ReschedAggregate> result;
  for (const auto& [key, group] : groups) {
    ReschedAggregate agg;
    std::vector<double> statics, finals, p95s, slow, p95Slow, unrepSlow;
    std::vector<double> recoveries;
    double rescheds = 0.0;
    double triggers = 0.0;
    long totalReplications = 0;
    long totalGuardTrips = 0;
    for (const ReschedOutcome* out : group) {
      if (!out->ok || out->finalMakespans.empty()) continue;
      ++agg.instances;
      agg.replications = out->replications;
      totalReplications += out->replications;
      totalGuardTrips += out->guardTrips;
      rescheds += out->meanReschedules;
      triggers += out->meanTriggers;
      if (out->staticMakespan > 0.0) {
        statics.push_back(out->staticMakespan);
        slow.push_back(out->meanSlowdown);
        p95Slow.push_back(out->p95Slowdown);
        unrepSlow.push_back(out->meanUnrepairedSlowdown);
      }
      if (out->meanFinal > 0.0) finals.push_back(out->meanFinal);
      if (out->p95Final > 0.0) p95s.push_back(out->p95Final);
      const double degradation = out->meanUnrepaired - out->staticMakespan;
      if (degradation > 1e-9 * std::max(1.0, out->staticMakespan)) {
        recoveries.push_back((out->meanUnrepaired - out->meanFinal) /
                             degradation);
      }
    }
    agg.geomeanStaticMakespan = support::geometricMean(statics);
    agg.geomeanMeanMakespan = support::geometricMean(finals);
    agg.geomeanP95Makespan = support::geometricMean(p95s);
    agg.geomeanMeanSlowdown = support::geometricMean(slow);
    agg.geomeanP95Slowdown = support::geometricMean(p95Slow);
    agg.geomeanUnrepairedSlowdown = support::geometricMean(unrepSlow);
    if (agg.instances > 0) {
      agg.meanReschedules = rescheds / agg.instances;
      agg.meanTriggers = triggers / agg.instances;
    }
    agg.recoveredFraction = support::mean(recoveries);
    agg.guardTripFraction =
        totalReplications > 0
            ? static_cast<double>(totalGuardTrips) /
                  static_cast<double>(totalReplications)
            : 0.0;
    result[key] = agg;
  }
  return result;
}

CsvColumns<ReschedOutcome> reschedulingCsvColumns() {
  using O = ReschedOutcome;
  return {
      {"config", [](const O& o) { return o.config; }},
      {"policy", [](const O& o) { return o.policy; }},
      {"scheduler", [](const O& o) { return o.scheduler; }},
      {"instance", [](const O& o) { return o.instance; }},
      {"band", [](const O& o) { return workflows::sizeBandName(o.band); }},
      {"family", [](const O& o) { return o.family; }},
      {"tasks", [](const O& o) { return std::to_string(o.numTasks); }},
      {"ok", [](const O& o) { return formatFlag(o.ok); }},
      {"static_makespan",
       [](const O& o) { return formatG6(o.staticMakespan); }},
      {"mean_final_makespan",
       [](const O& o) { return formatG6(o.meanFinal); }},
      {"p95_final_makespan", [](const O& o) { return formatG6(o.p95Final); }},
      {"mean_unrepaired_makespan",
       [](const O& o) { return formatG6(o.meanUnrepaired); }},
      {"mean_slowdown", [](const O& o) { return formatG6(o.meanSlowdown); }},
      {"p95_slowdown", [](const O& o) { return formatG6(o.p95Slowdown); }},
      {"mean_unrepaired_slowdown",
       [](const O& o) { return formatG6(o.meanUnrepairedSlowdown); }},
      {"mean_reschedules",
       [](const O& o) { return formatG6(o.meanReschedules); }},
      {"mean_triggers", [](const O& o) { return formatG6(o.meanTriggers); }},
      {"guard_trips", [](const O& o) { return std::to_string(o.guardTrips); }},
      {"replications",
       [](const O& o) { return std::to_string(o.replications); }},
  };
}

support::JsonArray reschedulingJsonRows(
    const std::vector<ReschedOutcome>& outcomes) {
  support::JsonArray rows;
  for (const auto& [key, agg] : aggregateRescheduling(outcomes)) {
    support::JsonObject row;
    row["config"] = support::JsonValue(std::get<0>(key));
    row["policy"] = support::JsonValue(std::get<1>(key));
    row["scheduler"] = support::JsonValue(std::get<2>(key));
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
    row["geomean_unrepaired_slowdown"] =
        support::JsonValue(agg.geomeanUnrepairedSlowdown);
    row["mean_reschedules"] = support::JsonValue(agg.meanReschedules);
    row["mean_triggers"] = support::JsonValue(agg.meanTriggers);
    row["recovered_fraction"] = support::JsonValue(agg.recoveredFraction);
    row["guard_trip_fraction"] = support::JsonValue(agg.guardTripFraction);
    rows.push_back(support::JsonValue(std::move(row)));
  }
  return rows;
}

}  // namespace dagpm::experiments
