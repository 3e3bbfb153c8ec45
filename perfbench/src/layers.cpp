#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>

#include "experiments/faults.hpp"
#include "memory/oracle.hpp"
#include "obs/obs.hpp"
#include "partition/partitioner.hpp"
#include "quotient/quotient.hpp"
#include "scheduler/assignment.hpp"
#include "scheduler/merge_step.hpp"
#include "scheduler/swap_step.hpp"
#include "sim/engine.hpp"
#include "sim/fault.hpp"
#include "sim/perturbation.hpp"

namespace perfbench {

namespace sched = dagpm::scheduler;
using dagpm::graph::Dag;
using dagpm::graph::EdgeId;
using dagpm::graph::VertexId;
using dagpm::platform::Cluster;
using sched::ScheduleResult;

// ---- obs counters ----------------------------------------------------------

Counters counterSnapshot() {
  Counters out;
  for (const dagpm::obs::CounterValue& c : dagpm::obs::counterSnapshot()) {
    out[c.name] = c.value;
  }
  return out;
}

Counters counterDelta(const Counters& before, const Counters& after) {
  Counters out;
  for (const auto& [name, value] : after) {
    const auto it = before.find(name);
    out[name] = value - (it == before.end() ? 0 : it->second);
  }
  return out;
}

std::vector<std::string> counterMismatches(const Counters& a, const Counters& b) {
  std::vector<std::string> out;
  for (const auto& [name, value] : a) {
    if (name == "sweep.arms" || name == "span.peak_depth") continue;
    const auto it = b.find(name);
    if (it == b.end() || it->second != value) out.push_back(name);
  }
  return out;
}

// ---- DagHetPart replayed step by step --------------------------------------

namespace {

ScheduleResult replayArm(const Dag& g, const Cluster& cluster,
                         std::uint32_t kPrime, const sched::DagHetPartConfig& cfg,
                         ReplayTimes& times) {
  const Stopwatch armWatch;
  ScheduleResult result;
  result.stats.kPrime = kPrime;
  ++times.armCount;
  const dagpm::memory::MemDagOracle oracle(g, cfg.oracle);

  dagpm::partition::PartitionConfig pcfg;
  pcfg.numParts = kPrime;
  pcfg.epsilon = cfg.step1Epsilon;
  pcfg.seed = cfg.seed;
  pcfg.balance = cfg.step1Balance;
  Stopwatch watch;
  const dagpm::partition::PartitionResult initial =
      dagpm::partition::partitionAcyclic(g, pcfg);
  times.step1 += watch.seconds();

  std::vector<std::vector<VertexId>> blocks(initial.numBlocks);
  for (VertexId v = 0; v < g.numVertices(); ++v) {
    blocks[initial.blockOf[v]].push_back(v);
  }
  sched::AssignmentConfig acfg;
  acfg.seed = cfg.seed;
  watch = Stopwatch();
  const sched::AssignmentResult assignment =
      sched::biggestAssign(g, cluster, oracle, std::move(blocks), acfg);
  times.step2 += watch.seconds();
  times.splits += assignment.splitsPerformed;
  result.stats.splitsPerformed = assignment.splitsPerformed;

  watch = Stopwatch();
  std::vector<std::uint32_t> blockOf(g.numVertices(), 0);
  for (std::uint32_t b = 0; b < assignment.blocks.size(); ++b) {
    for (const VertexId v : assignment.blocks[b].vertices) blockOf[v] = b;
  }
  dagpm::quotient::QuotientGraph q(
      g, blockOf, static_cast<std::uint32_t>(assignment.blocks.size()));
  for (std::uint32_t b = 0; b < assignment.blocks.size(); ++b) {
    q.setProcessor(b, assignment.blocks[b].proc);
    q.setMemReq(b, assignment.blocks[b].memReq);
  }
  sched::MergeStepConfig mcfg;
  mcfg.preferOffCriticalPath = cfg.preferOffCriticalPath;
  mcfg.anyHostFallback = cfg.anyHostFallback;
  mcfg.comm = sched::commModelFor(cfg.options);
  mcfg.fullReevaluation = sched::useFullReevaluation(cfg.options);
  const sched::MergeStepResult merge =
      sched::mergeUnassignedToAssigned(q, cluster, oracle, mcfg);
  times.step3 += watch.seconds();
  times.oracleEvals += oracle.evaluations();
  result.stats.mergesCommitted = merge.mergesCommitted;
  if (!merge.success) {
    times.arms += armWatch.seconds();
    return result;
  }

  sched::SwapStepConfig scfg;
  scfg.enableSwaps = cfg.enableSwaps;
  scfg.enableIdleMoves = cfg.enableIdleMoves;
  scfg.comm = mcfg.comm;
  scfg.fullReevaluation = mcfg.fullReevaluation;
  watch = Stopwatch();
  const sched::SwapStepResult swaps = sched::improveBySwaps(q, cluster, scfg);
  times.step4 += watch.seconds();

  const std::vector<dagpm::quotient::BlockId> alive = q.aliveNodes();
  result.procOfBlock.resize(alive.size());
  result.blockOf.assign(g.numVertices(), 0);
  for (std::uint32_t compact = 0; compact < alive.size(); ++compact) {
    const dagpm::quotient::QNode& node = q.node(alive[compact]);
    result.procOfBlock[compact] = node.proc;
    for (const VertexId v : node.members) result.blockOf[v] = compact;
  }
  result.makespan = swaps.makespan;
  result.feasible = true;
  result.stats.numBlocks = static_cast<std::uint32_t>(alive.size());
  times.arms += armWatch.seconds();
  return result;
}

ScheduleResult replaySweep(const Dag& g, const Cluster& cluster,
                           const sched::DagHetPartConfig& cfg,
                           ReplayTimes& times) {
  ScheduleResult best;
  for (const std::uint32_t kPrime : sched::sweepCandidates(
           cfg.sweep, static_cast<std::uint32_t>(cluster.numProcessors()))) {
    ScheduleResult r = replayArm(g, cluster, kPrime, cfg, times);
    if (r.feasible && (!best.feasible || r.makespan < best.makespan)) {
      best = std::move(r);
    }
  }
  return best;
}

}  // namespace

ScheduleResult replayDagHetPart(const Dag& g, const Cluster& cluster,
                                const sched::DagHetPartConfig& cfg,
                                ReplayTimes& times) {
  if (g.numVertices() == 0 || cluster.numProcessors() == 0) return {};
  ScheduleResult best = replaySweep(g, cluster, cfg, times);
  if (!best.feasible && cfg.memoryBalanceFallback &&
      cfg.step1Balance == dagpm::partition::PartitionConfig::BalanceWeight::kWork) {
    sched::DagHetPartConfig fallback = cfg;
    fallback.step1Balance =
        dagpm::partition::PartitionConfig::BalanceWeight::kMemoryFootprint;
    best = replaySweep(g, cluster, fallback, times);
  }
  return best;
}

// ---- execution under noise and faults --------------------------------------

namespace {

constexpr double kNoiseSigma = 0.2;
// Expected fail-stops and transient crashes per execution, whatever the
// cluster size: the per-processor probabilities are these over the number
// of processors (spares included).
constexpr double kExpectedFailStops = 1.5;
constexpr double kExpectedCrashes = 1.5;
constexpr double kDowntimeFraction = 0.05;
constexpr int kSpares = 4;

dagpm::sim::PerturbationSpec noise() {
  dagpm::sim::PerturbationSpec spec;
  spec.kind = dagpm::sim::PerturbationKind::kLognormal;
  spec.sigma = kNoiseSigma;
  return spec;
}

bool close(double a, double b) {
  return std::abs(a - b) <= 1e-9 * std::max({1.0, std::abs(a), std::abs(b)});
}

std::string num(double x) {
  std::ostringstream oss;
  oss.precision(17);
  oss << x;
  return oss.str();
}

}  // namespace

Cluster withSpares(const Cluster& cluster) {
  return dagpm::experiments::addSpareProcessors(cluster, kSpares);
}

dagpm::resched::RescheduleResult executeSchedule(const Dag& g,
                                                 const Cluster& augmented,
                                                 const ScheduleResult& schedule,
                                                 std::uint64_t seed) {
  const dagpm::memory::MemDagOracle oracle(g);
  dagpm::sim::FaultSpec spec;
  const double processors = static_cast<double>(augmented.numProcessors());
  spec.failStopProbability = kExpectedFailStops / processors;
  spec.crashProbability = kExpectedCrashes / processors;
  spec.horizon = std::max(schedule.makespan, 1e-9);
  spec.downtime = schedule.makespan * kDowntimeFraction;
  dagpm::sim::FaultModel faults(spec, augmented.numProcessors());
  dagpm::resched::RescheduleOptions options;
  options.perturbation = noise();
  options.seed = seed;
  options.faults = &faults;
  return dagpm::resched::runOnline(g, augmented, schedule, oracle, options);
}

double simulateNoisy(const Dag& g, const Cluster& augmented,
                     const ScheduleResult& schedule, std::uint64_t seed,
                     double* seconds) {
  const dagpm::memory::MemDagOracle oracle(g);
  const std::unique_ptr<dagpm::sim::PerturbationModel> model =
      dagpm::sim::makePerturbation(noise(), augmented.numProcessors());
  dagpm::sim::SimOptions options;
  options.perturbation = model.get();
  options.seed = seed;
  const Stopwatch watch;
  const dagpm::sim::SimResult run =
      dagpm::sim::simulateSchedule(g, augmented, schedule, oracle, options);
  *seconds += watch.seconds();
  return run.ok ? run.makespan : -1.0;
}

std::string checkExecution(const Dag& g,
                           const dagpm::resched::RescheduleResult& run) {
  if (!run.ok) return "execution failed: " + run.error;
  const std::vector<dagpm::sim::TaskEvent>& events = run.execution.events;
  if (events.size() != g.numVertices()) return "execution lacks task records";
  double latest = 0.0;
  for (VertexId v = 0; v < g.numVertices(); ++v) {
    const dagpm::sim::TaskEvent& e = events[v];
    if (e.proc == dagpm::platform::kNoProcessor || !(e.start >= 0.0) ||
        !(e.finish >= e.start) || !std::isfinite(e.finish)) {
      return "task " + std::to_string(v) + " did not finish exactly once";
    }
    latest = std::max(latest, e.finish);
  }
  const double tol = 1e-9 * std::max(1.0, latest);
  for (EdgeId e = 0; e < g.numEdges(); ++e) {
    const VertexId u = g.edge(e).src;
    const VertexId v = g.edge(e).dst;
    if (events[v].start < events[u].finish - tol) {
      return "task " + std::to_string(v) + " starts at " + num(events[v].start) +
             " before predecessor " + std::to_string(u) + " finishes at " +
             num(events[u].finish);
    }
  }
  if (!close(latest, run.execution.makespan) ||
      !close(run.execution.makespan, run.finalMakespan)) {
    return "executed makespan " + num(run.execution.makespan) +
           " / final " + num(run.finalMakespan) + " != latest finish " +
           num(latest);
  }
  if (run.finalMakespan > run.unrepairedMakespan * (1.0 + 1e-9)) {
    return "final makespan " + num(run.finalMakespan) + " > unrepaired " +
           num(run.unrepairedMakespan);
  }
  if (run.faultsInjected > 0 &&
      run.finalMakespan > run.greedyMakespan * (1.0 + 1e-9)) {
    return "final makespan " + num(run.finalMakespan) + " > greedy " +
           num(run.greedyMakespan);
  }
  return {};
}

std::string checkStaticReplay(const Dag& g, const Cluster& cluster,
                              const ScheduleResult& schedule) {
  const dagpm::memory::MemDagOracle oracle(g);
  const dagpm::sim::SimResult run =
      dagpm::sim::simulateSchedule(g, cluster, schedule, oracle);
  if (!run.ok) return "zero-noise replay failed: " + run.error;
  if (!close(run.makespan, schedule.makespan)) {
    return "zero-noise replay makespan " + num(run.makespan) +
           " != static " + num(schedule.makespan);
  }
  return {};
}

// ---- per-layer metrics -----------------------------------------------------

void emitLayerMetrics(const LayerMetrics& m, Report& report) {
  const auto count = [&](const char* name, std::uint64_t v) {
    report.set(name, static_cast<double>(v), "count");
  };
  const auto counter = [&](const Counters& from, const char* name) {
    const auto it = from.find(name);
    count(name, it == from.end() ? 0 : it->second);
  };
  report.set("workflows.parse_s", m.parseSeconds, "s");
  report.set("partition.step1_s", m.replay.step1, "s");
  counter(m.solverCounters, "coarsen.levels");
  report.set("scheduler.step2_assign_s", m.replay.step2, "s");
  count("scheduler.step2_splits", m.replay.splits);
  report.set("scheduler.step3_merge_s", m.replay.step3, "s");
  for (const char* name :
       {"merge.probes", "merge.committed", "merge.memo.hits", "merge.memo.misses",
        "eval.probes.merged", "eval.rebuilds", "eval.cycle_checks"}) {
    counter(m.solverCounters, name);
  }
  count("memory.oracle_evals", m.replay.oracleEvals);
  report.set("memory.traversal_s", m.traversalSeconds, "s");
  report.set("scheduler.step4_swap_s", m.replay.step4, "s");
  for (const char* name :
       {"swap.pairs_probed", "swap.rounds", "swap.committed", "swap.idle_moves",
        "eval.probes.assign", "eval.repair_pushes"}) {
    counter(m.solverCounters, name);
  }
  count("scheduler.sweep_arms", m.replay.armCount);
  report.set("scheduler.arm_s", m.replay.arms, "s");
  count("replay.mismatches", m.replayMismatches);

  report.set("sim.simulate_s", m.simulateSeconds, "s");
  for (const char* name : {"sim.tasks_executed", "sim.transfers",
                           "fault.fail_stops", "fault.tasks_killed"}) {
    counter(m.executionCounters, name);
  }
  report.set("resched.online_s", m.onlineSeconds, "s");
  for (const char* name :
       {"resched.triggers", "resched.accepted", "resched.rejected",
        "resched.fault.evacuations", "resched.fault.greedy_wins",
        "resched.memo.hits", "resched.memo.misses"}) {
    counter(m.executionCounters, name);
  }
  report.set("service.fingerprint_s", m.fingerprintSeconds, "s");
  report.set("service.queue_wait_p50_s", m.queueWaitP50, "s");
  count("service.solves", m.serviceSolves);
  count("service.cache_hits", m.serviceCacheHits);
  count("service.coalesced", m.serviceCoalesced);
}

}  // namespace perfbench
