#pragma once
// Output checks and quality figures shared by the workloads: every schedule
// goes through the independent checker, DagHetMem runs beside DagHetPart
// for the speedup, and (solver workloads) every schedule is executed under
// noise and faults.

#include <cstdint>
#include <vector>

#include "common.hpp"
#include "inputs.hpp"
#include "layers.hpp"
#include "scheduler/daghetpart.hpp"

namespace perfbench {

struct ScheduleQuality {
  double makespanGeomean = 0.0;      // DagHetPart, feasible instances
  double speedupVsDagHetMem = 0.0;   // geomean mem / part, both feasible
  double executedGeomean = 0.0;      // finalMakespan of the executions
};

/// For every instance (one operation each): checks the DagHetPart schedule
/// and a DagHetMem schedule with the independent checker, checks the
/// zero-noise replay, and, when `execute`, runs the DagHetPart schedule
/// under noise and faults and checks the execution. With `layers`, the
/// oracle traversals, executions and noise-only simulations are timed into
/// it.
ScheduleQuality checkAndExecute(
    const std::vector<Instance>& instances,
    const std::vector<dagpm::scheduler::ScheduleResult>& schedules,
    std::uint64_t seed, Report& report, LayerMetrics* layers,
    bool execute = true);

/// Traced runs: replays DagHetPart step by step on one thread, then runs
/// dagHetPart with one OpenMP thread per core, both with counters on. The
/// replay's per-step times and counters go into `layers`; schedules that
/// differ mark the replay invalid (replay.mismatches), and counters that
/// differ between the two thread counts fail the run. Returns the
/// dagHetPart schedules.
std::vector<dagpm::scheduler::ScheduleResult> replayAndSolve(
    const std::vector<Instance>& instances,
    const dagpm::scheduler::DagHetPartConfig& config, int threads,
    LayerMetrics& layers, Report& report);

/// Traced runs: fingerprints every request and serves every instance once
/// through a SchedulerService with one worker per core; each served
/// schedule must equal the direct solve bit for bit.
void serveAll(const std::vector<Instance>& instances,
              const std::vector<dagpm::scheduler::ScheduleResult>& schedules,
              const dagpm::scheduler::DagHetPartConfig& config,
              LayerMetrics& layers, Report& report);

/// Runs the checker self-test on the workload's schedules (three
/// operations).
void selfTest(const std::vector<Instance>& instances,
              const std::vector<dagpm::scheduler::ScheduleResult>& schedules,
              Report& report);

}  // namespace perfbench
