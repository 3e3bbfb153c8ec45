#pragma once
// Robustness experiments: how well do static schedules survive execution
// noise? For every instance, both schedulers produce their schedule, and
// each feasible schedule is replayed through the discrete-event simulator
// under a ladder of perturbation strengths. Aggregates (geomean slowdown vs.
// the static Eq. (1)-(2) prediction, tail slowdown, memory-overflow rates)
// export through the same DAGPM_JSON_OUT / DAGPM_CSV channels as the
// makespan benches, so the robustness trajectory is machine-readable too.

#include <map>
#include <string>
#include <vector>

#include "experiments/export.hpp"
#include "experiments/harness.hpp"
#include "sim/robustness.hpp"
#include "support/json.hpp"

namespace dagpm::experiments {

/// One rung of the perturbation ladder, e.g. {"sigma0.2", lognormal(0.2)}.
struct NoiseLevel {
  std::string config;
  sim::PerturbationSpec spec;
};

/// Lognormal ladder named "sigma<value>"; sigma 0 degenerates to the
/// deterministic model (exact replay).
std::vector<NoiseLevel> lognormalLadder(const std::vector<double>& sigmas);

/// Simulation outcome of one (noise level, scheduler, instance) triple.
struct RobustnessOutcome {
  std::string config;     // NoiseLevel::config
  std::string scheduler;  // "part" | "mem"
  std::string instance;
  workflows::SizeBand band = workflows::SizeBand::kSmall;
  std::string family;
  int numTasks = 0;
  sim::RobustnessSummary summary;
};

struct RobustnessRunnerOptions {
  scheduler::DagHetPartConfig part;
  scheduler::DagHetMemConfig mem;
  /// Replication count, engine semantics (comm model, contention) and base
  /// seed. Per-triple seeds are derived deterministically, so results do not
  /// depend on the parallel schedule.
  sim::RobustnessOptions robustness;
  bool parallelInstances = true;  // OpenMP across instances
};

/// Schedules every instance with DagHetPart and DagHetMem (cluster memories
/// scaled per Sec. 5.1.2) and evaluates every feasible schedule at every
/// noise level. Infeasible (instance, scheduler) pairs are skipped.
std::vector<RobustnessOutcome> runRobustness(
    const std::vector<Instance>& instances, const platform::Cluster& cluster,
    const std::vector<NoiseLevel>& levels,
    const RobustnessRunnerOptions& options);

/// Per-(noise level, scheduler) aggregate: the columns of the bench table
/// and of the exported JSON rows.
struct RobustnessAggregate {
  int instances = 0;       // simulated (feasible) instances in the group
  int replications = 0;    // per instance
  double geomeanStaticMakespan = 0.0;
  double geomeanMeanMakespan = 0.0;
  double geomeanP95Makespan = 0.0;
  double geomeanMeanSlowdown = 0.0;  // geomean over instances of mean/static
  double geomeanP95Slowdown = 0.0;
  double maxSlowdown = 0.0;          // worst replication across the group
  int overflowRuns = 0;              // replications with memory overflows
  double overflowFraction = 0.0;     // overflowRuns / total replications
};

/// Groups outcomes by (config, scheduler), sorted lexicographically.
std::map<std::pair<std::string, std::string>, RobustnessAggregate>
aggregateRobustness(const std::vector<RobustnessOutcome>& outcomes);

/// The DAGPM_CSV columns, one row per outcome.
CsvColumns<RobustnessOutcome> robustnessCsvColumns();

/// The DAGPM_JSON_OUT rows, one per (config, scheduler) aggregate.
support::JsonArray robustnessJsonRows(
    const std::vector<RobustnessOutcome>& outcomes);

}  // namespace dagpm::experiments
