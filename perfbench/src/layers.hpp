#pragma once
// The layers every workload drives, each reached through its public call and
// timed from the benchmark: the step-by-step DagHetPart replay, execution
// under noise and faults (sim + resched), and the scheduling service. Also
// the per-layer metric table a traced run prints.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "graph/dag.hpp"
#include "inputs.hpp"
#include "platform/cluster.hpp"
#include "resched/resched.hpp"
#include "scheduler/daghetpart.hpp"

namespace perfbench {

// ---- obs counters ----------------------------------------------------------

using Counters = std::map<std::string, std::uint64_t>;
/// obs::counterSnapshot() as a name -> value map.
Counters counterSnapshot();
/// after - before, per counter.
Counters counterDelta(const Counters& before, const Counters& after);
/// Names of counters whose values differ, ignoring the ones that describe
/// how the work was driven rather than the work (sweep arms, span depth).
std::vector<std::string> counterMismatches(const Counters& a, const Counters& b);

// ---- DagHetPart replayed step by step --------------------------------------

struct ReplayTimes {
  double step1 = 0.0;   // partition::partitionAcyclic
  double step2 = 0.0;   // scheduler::biggestAssign
  double step3 = 0.0;   // quotient::QuotientGraph build + merge step
  double step4 = 0.0;   // scheduler::improveBySwaps
  double arms = 0.0;    // whole arms, extraction included
  std::uint64_t armCount = 0;
  std::uint64_t splits = 0;
  std::uint64_t oracleEvals = 0;  // MemDagOracle::evaluations() summed
};

/// Runs DagHetPart's k' sweep (and its memory-balance fallback) arm by arm
/// through the step functions, sequentially, accumulating per-step times.
dagpm::scheduler::ScheduleResult replayDagHetPart(
    const dagpm::graph::Dag& g, const dagpm::platform::Cluster& cluster,
    const dagpm::scheduler::DagHetPartConfig& cfg, ReplayTimes& times);

// ---- execution under noise and faults --------------------------------------

/// Clones four largest-memory processors as spares for evacuations.
dagpm::platform::Cluster withSpares(const dagpm::platform::Cluster& cluster);

/// Executes a static schedule online (resched::runOnline) under seeded
/// lognormal runtime noise and a seeded fail-stop/crash fault model on
/// `augmented` (the cluster plus spares).
dagpm::resched::RescheduleResult executeSchedule(
    const dagpm::graph::Dag& g, const dagpm::platform::Cluster& augmented,
    const dagpm::scheduler::ScheduleResult& schedule, std::uint64_t seed);

/// The same noise draw replayed by the simulator alone (no faults, no
/// repair); returns its makespan and adds its wall time to *seconds.
double simulateNoisy(const dagpm::graph::Dag& g,
                     const dagpm::platform::Cluster& augmented,
                     const dagpm::scheduler::ScheduleResult& schedule,
                     std::uint64_t seed, double* seconds);

/// Output checks of one execution; empty when it passes. Every task
/// finishes once, no task starts before its predecessors finish, the
/// makespan is the latest finish and equals finalMakespan, finalMakespan <=
/// unrepairedMakespan, and finalMakespan <= greedyMakespan when faults fired.
std::string checkExecution(const dagpm::graph::Dag& g,
                           const dagpm::resched::RescheduleResult& run);

/// A zero-noise, fault-free simulation must reproduce the static makespan
/// within a relative 1e-9; empty when it does.
std::string checkStaticReplay(const dagpm::graph::Dag& g,
                              const dagpm::platform::Cluster& cluster,
                              const dagpm::scheduler::ScheduleResult& schedule);

// ---- per-layer metrics of a traced run -------------------------------------

struct LayerMetrics {
  double parseSeconds = 0.0;
  ReplayTimes replay;
  std::uint64_t replayMismatches = 0;  // instances where replay != dagHetPart
  double traversalSeconds = 0.0;
  double simulateSeconds = 0.0;
  double onlineSeconds = 0.0;
  double fingerprintSeconds = 0.0;
  double queueWaitP50 = 0.0;
  std::uint64_t serviceSolves = 0;
  std::uint64_t serviceCacheHits = 0;
  std::uint64_t serviceCoalesced = 0;
  Counters solverCounters;     // counter delta over the replay
  Counters executionCounters;  // counter delta over the executions
};

/// Writes every per-layer metric into the report.
void emitLayerMetrics(const LayerMetrics& m, Report& report);

}  // namespace perfbench
