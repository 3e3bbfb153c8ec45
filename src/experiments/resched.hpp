#pragma once
// Online-rescheduling experiments: how much of the noise-induced degradation
// that the robustness experiments quantify can runtime repair win back? For
// every instance, both schedulers produce their static schedule; each
// feasible schedule is then executed through the online rescheduling driver
// under a ladder of perturbation strengths crossed with a ladder of trigger
// policies (always including the no-resched baseline), with the noise draw
// shared across policies so the comparison is paired. Aggregates export
// through the same DAGPM_JSON_OUT / DAGPM_CSV channels as the other benches.

#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "experiments/export.hpp"
#include "experiments/harness.hpp"
#include "experiments/robustness.hpp"
#include "resched/resched.hpp"
#include "support/json.hpp"

namespace dagpm::experiments {

/// One rung of the trigger-policy ladder, e.g. {"lateness0.05", ...}.
struct PolicyConfig {
  std::string name;
  resched::ReschedulePolicy policy;
};

/// The bench ladder: "none" (baseline), "interval" (fixed fractions of the
/// predicted makespan), "lateness" (event-triggered on late task finishes).
std::vector<PolicyConfig> defaultPolicyLadder();

/// Straggler ladder named "straggler<p>x<factor>". Unlike the lognormal
/// ladder, straggler draws involve no transcendental functions, so the whole
/// execution is bit-stable across compilers and libms — which is what lets
/// the resched bench be regression-gated against a recorded baseline.
std::vector<NoiseLevel> stragglerLadder(
    const std::vector<double>& probabilities, double factor);

/// Outcome of one (noise level, policy, scheduler, instance) tuple,
/// aggregated over the replications.
struct ReschedOutcome {
  std::string config;     // NoiseLevel::config
  std::string policy;     // PolicyConfig::name
  std::string scheduler;  // "part" | "mem"
  std::string instance;
  workflows::SizeBand band = workflows::SizeBand::kSmall;
  std::string family;
  int numTasks = 0;
  bool ok = false;
  std::string error;
  double staticMakespan = 0.0;
  int replications = 0;
  /// Per-replication results in replication order (reproducibility checks).
  std::vector<double> finalMakespans;
  std::vector<double> unrepairedMakespans;
  double meanFinal = 0.0;
  double p95Final = 0.0;
  double meanUnrepaired = 0.0;
  double meanSlowdown = 0.0;            // meanFinal / static
  double p95Slowdown = 0.0;
  double meanUnrepairedSlowdown = 0.0;  // meanUnrepaired / static
  double meanReschedules = 0.0;         // accepted splices per replication
  double meanTriggers = 0.0;
  int guardTrips = 0;  // replications where the hindsight guard fell back
};

struct ReschedulingRunnerOptions {
  scheduler::DagHetPartConfig part;
  scheduler::DagHetMemConfig mem;
  std::vector<PolicyConfig> policies = defaultPolicyLadder();
  int replications = 8;
  std::uint64_t seed = 1;
  bool contention = false;
  bool parallelInstances = true;  // OpenMP across instances
};

/// Schedules every instance with DagHetPart and DagHetMem (cluster memories
/// scaled per Sec. 5.1.2) and runs every feasible schedule through the
/// online driver at every (noise level, policy). Replication seeds depend
/// only on (instance, level, replication) — policies and schedulers see the
/// identical noise draw — and results are independent of thread count.
std::vector<ReschedOutcome> runRescheduling(
    const std::vector<Instance>& instances, const platform::Cluster& cluster,
    const std::vector<NoiseLevel>& levels,
    const ReschedulingRunnerOptions& options);

/// Per-(config, policy, scheduler) aggregate: the bench table / JSON rows.
struct ReschedAggregate {
  int instances = 0;
  int replications = 0;
  double geomeanStaticMakespan = 0.0;
  double geomeanMeanMakespan = 0.0;   // over instances, of meanFinal
  double geomeanP95Makespan = 0.0;
  double geomeanMeanSlowdown = 0.0;   // of meanFinal / static
  double geomeanP95Slowdown = 0.0;
  double geomeanUnrepairedSlowdown = 0.0;
  double meanReschedules = 0.0;       // arithmetic mean over instances
  double meanTriggers = 0.0;
  /// Mean over degraded instances of (unrepaired - final) /
  /// (unrepaired - static): 1 = repaired back to the static prediction,
  /// 0 = no recovery. Instances without degradation are skipped.
  double recoveredFraction = 0.0;
  double guardTripFraction = 0.0;
};

using ReschedKey = std::tuple<std::string, std::string, std::string>;

std::map<ReschedKey, ReschedAggregate> aggregateRescheduling(
    const std::vector<ReschedOutcome>& outcomes);

/// The DAGPM_CSV columns, one row per outcome.
CsvColumns<ReschedOutcome> reschedulingCsvColumns();

/// The DAGPM_JSON_OUT rows, one per (config, policy, scheduler) aggregate.
support::JsonArray reschedulingJsonRows(
    const std::vector<ReschedOutcome>& outcomes);

}  // namespace dagpm::experiments
