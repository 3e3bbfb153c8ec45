#pragma once
// Monte-Carlo fault-recovery experiments: when processors die mid-execution,
// how much of the damage does recovery-aware rescheduling undo? For every
// instance, both schedulers produce their static schedule; each feasible
// schedule is executed through the online driver under a ladder of fault
// rates (fail-stop and transient-crash probabilities per processor), on a
// cluster augmented with spare processors so evacuations have somewhere to
// go. The driver races the recovery-aware repair against naive greedy
// re-execution under the identical fault draw (resched/resched.hpp), so each
// replication yields a paired (aware, greedy) makespan and the aggregate
// "recovered fraction" measures what the repair search adds on top of bare
// evacuation. All draws are SplitMix64 uniforms — no transcendental
// functions — so the whole bench is bit-stable across compilers and OpenMP
// thread counts and can be regression-gated like resched_recovery.

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "experiments/export.hpp"
#include "experiments/harness.hpp"
#include "resched/resched.hpp"
#include "sim/fault.hpp"
#include "support/json.hpp"

namespace dagpm::experiments {

/// One rung of the fault ladder. Probabilities are per processor and per
/// run; horizon and downtime are derived per schedule (fractions of its
/// static makespan) so faults land mid-execution at every instance size.
struct FaultLevel {
  std::string name;  // "nofault", "fail0.15", "fail0.3+crash0.3", ...
  double failStopProbability = 0.0;
  double crashProbability = 0.0;
  double downtimeFraction = 0.05;  // crash downtime / static makespan
};

/// The bench ladder: a zero-rate control rung (bit-identical to the
/// fault-free driver by construction) and fail-stop rungs of increasing
/// severity, the last one mixed with transient crashes.
std::vector<FaultLevel> defaultFaultLadder();

/// Clones the `spares` largest-memory processors of `cluster` (kind suffix
/// "-spare") so lost blocks have guaranteed evacuation targets; existing
/// processor ids are unchanged, so schedules built for `cluster` stay valid.
platform::Cluster addSpareProcessors(const platform::Cluster& cluster,
                                     int spares);

/// Outcome of one (fault level, scheduler, instance) cell, aggregated over
/// the Monte-Carlo replications. Aware = the driver's finalMakespan (never
/// worse than greedy by construction); greedy = naive re-execution.
struct FaultOutcome {
  std::string level;      // FaultLevel::name
  std::string scheduler;  // "part" | "mem"
  std::string instance;
  workflows::SizeBand band = workflows::SizeBand::kSmall;
  std::string family;
  int numTasks = 0;
  bool ok = false;
  std::string error;
  double staticMakespan = 0.0;
  int replications = 0;
  int faultyRuns = 0;    // replications with >= 1 applied fault event
  int failStops = 0;     // applied fail-stop events (winning executions)
  int crashes = 0;       // applied transient crashes
  int tasksKilled = 0;   // running tasks killed at a fault instant
  int evacuations = 0;   // lost blocks moved off dead processors
  int retries = 0;       // evacuation re-attempts after backoff
  int greedyWins = 0;    // replications where greedy beat the search repair
  int searchWins = 0;    // replications where the search beat greedy strictly
  int unrecovered = 0;   // replications neither mode could recover
  /// Paired per-replication makespans (replication order), finite runs only.
  std::vector<double> awareMakespans;
  std::vector<double> greedyMakespans;
  double meanAware = 0.0;
  double meanGreedy = 0.0;
  double meanAwareSlowdown = 0.0;   // meanAware / static
  double meanGreedySlowdown = 0.0;  // meanGreedy / static
  /// Mean over faulty replications of (greedy - aware) / (greedy - static):
  /// 1 = the repair recovered all of the greedy re-execution's degradation,
  /// 0 = it added nothing. Replications where greedy failed outright but the
  /// aware repair recovered count as 1.
  double meanRecoveredFraction = 0.0;
};

struct FaultRunnerOptions {
  scheduler::DagHetPartConfig part;
  scheduler::DagHetMemConfig mem;
  /// Policy of the search repair; the fault trigger must stay enabled. The
  /// greedy baseline is derived from it inside the driver (trigger = none,
  /// evacuation-only repairs).
  resched::ReschedulePolicy policy;
  int replications = 8;
  std::uint64_t seed = 1;
  /// Spare processors appended to every scaled cluster (evacuation targets).
  int spareProcessors = 2;
  /// Fault instants are uniform over [0, horizonFraction x static makespan).
  double horizonFraction = 0.75;
  std::uint32_t maxCrashesPerProcessor = 2;
  bool parallelInstances = true;  // OpenMP across instances
};

/// Runs every feasible schedule through the fault-injecting online driver at
/// every fault level. Replication seeds depend only on (instance, level,
/// replication) — both schedulers face the identical fault draw — and the
/// fixed slot layout keeps results independent of thread count.
std::vector<FaultOutcome> runFaultRecovery(
    const std::vector<Instance>& instances, const platform::Cluster& cluster,
    const std::vector<FaultLevel>& levels, const FaultRunnerOptions& options);

/// Per-(level, scheduler) aggregate: the bench table / JSON rows. The fault
/// tallies are exact-integer columns the CI checker gates at zero tolerance.
struct FaultAggregate {
  int instances = 0;
  int replications = 0;  // per instance
  long faultyRuns = 0;
  long totalFailStops = 0;
  long totalCrashes = 0;
  long totalTasksKilled = 0;
  long totalEvacuations = 0;
  long totalRetries = 0;
  long greedyWins = 0;
  long searchWins = 0;
  long unrecovered = 0;
  double geomeanAwareSlowdown = 0.0;
  double geomeanGreedySlowdown = 0.0;
  /// geomeanGreedySlowdown / geomeanAwareSlowdown: > 1 means the
  /// recovery-aware repair strictly beats naive re-execution in aggregate.
  double improvement = 0.0;
  double meanRecoveredFraction = 0.0;
};

using FaultKey = std::pair<std::string, std::string>;  // (level, scheduler)

std::map<FaultKey, FaultAggregate> aggregateFaultRecovery(
    const std::vector<FaultOutcome>& outcomes);

/// The DAGPM_CSV columns, one row per outcome.
CsvColumns<FaultOutcome> faultRecoveryCsvColumns();

/// The DAGPM_JSON_OUT rows, one per (level, scheduler) aggregate.
support::JsonArray faultRecoveryJsonRows(
    const std::vector<FaultOutcome>& outcomes);

}  // namespace dagpm::experiments
