// Fuzz-style property tests: random operation sequences exercising the
// quotient merge/rollback machinery and the full scheduling pipeline across
// randomized instances, asserting the library's core invariants throughout.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <numeric>

#include <cmath>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "anchor/annealing.hpp"
#include "anchor/bnb.hpp"
#include "comm/cost_model.hpp"
#include "experiments/faults.hpp"
#include "graph/generators.hpp"
#include "graph/topology.hpp"
#include "memory/oracle.hpp"
#include "obs/obs.hpp"
#include "partition/partitioner.hpp"
#include "quotient/incremental.hpp"
#include "quotient/quotient.hpp"
#include "quotient/timeline.hpp"
#include "resched/resched.hpp"
#include "scheduler/daghetmem.hpp"
#include "scheduler/daghetpart.hpp"
#include "scheduler/solution.hpp"
#include "scheduler/swap_step.hpp"
#include "sim/engine.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"

namespace dagpm {
namespace {

using graph::Dag;
using graph::VertexId;
using quotient::BlockId;

/// Seeds 1..n, where n defaults to `defaultCount` and can be raised (or
/// lowered) via DAGPM_FUZZ_ITERS so nightly CI can crank up the coverage.
std::vector<std::uint64_t> fuzzSeeds(int defaultCount) {
  int count = defaultCount;
  if (const char* iters = std::getenv("DAGPM_FUZZ_ITERS");
      iters != nullptr && *iters != '\0') {
    // A malformed value keeps the default rather than silently collapsing
    // coverage to one seed (atoi returns 0 on garbage).
    if (const int parsed = std::atoi(iters); parsed > 0) count = parsed;
  }
  std::vector<std::uint64_t> seeds(static_cast<std::size_t>(count));
  std::iota(seeds.begin(), seeds.end(), std::uint64_t{1});
  return seeds;
}

/// Deep-compares the mutable state of two quotient graphs.
void expectQuotientsEqual(const quotient::QuotientGraph& a,
                          const quotient::QuotientGraph& b) {
  ASSERT_EQ(a.numSlots(), b.numSlots());
  ASSERT_EQ(a.numAlive(), b.numAlive());
  for (BlockId i = 0; i < a.numSlots(); ++i) {
    const quotient::QNode& na = a.node(i);
    const quotient::QNode& nb = b.node(i);
    ASSERT_EQ(na.alive, nb.alive) << "node " << i;
    if (!na.alive) continue;
    EXPECT_DOUBLE_EQ(na.work, nb.work) << "node " << i;
    EXPECT_EQ(na.members, nb.members) << "node " << i;
    EXPECT_EQ(a.out(i), b.out(i)) << "node " << i;
    EXPECT_EQ(a.in(i), b.in(i)) << "node " << i;
  }
}

class QuotientFuzz : public testing::TestWithParam<std::uint64_t> {};

TEST_P(QuotientFuzz, RandomMergeRollbackSequencesRestoreState) {
  const std::uint64_t seed = GetParam();
  const Dag g = test::randomLayeredDag(8, 6, 3, seed);
  // Partition into ~8 blocks to get a non-trivial quotient.
  partition::PartitionConfig pcfg;
  pcfg.numParts = 8;
  pcfg.seed = seed;
  const auto pr = partition::partitionAcyclic(g, pcfg);
  quotient::QuotientGraph q(g, pr.blockOf, pr.numBlocks);
  const quotient::QuotientGraph snapshot(g, pr.blockOf, pr.numBlocks);

  support::Rng rng(seed * 31 + 7);
  // Random nested merges followed by LIFO rollbacks, repeated.
  for (int round = 0; round < 20; ++round) {
    std::vector<quotient::MergeTransaction> stack;
    const int depth = 1 + static_cast<int>(rng.uniformInt(0, 3));
    for (int d = 0; d < depth; ++d) {
      const auto alive = q.aliveNodes();
      if (alive.size() < 2) break;
      const BlockId a = alive[static_cast<std::size_t>(
          rng.uniformInt(0, static_cast<std::int64_t>(alive.size()) - 1))];
      BlockId b = a;
      while (b == a) {
        b = alive[static_cast<std::size_t>(rng.uniformInt(
            0, static_cast<std::int64_t>(alive.size()) - 1))];
      }
      stack.push_back(q.merge(a, b));
    }
    while (!stack.empty()) {
      q.rollback(std::move(stack.back()));
      stack.pop_back();
    }
    expectQuotientsEqual(q, snapshot);
  }
}

TEST_P(QuotientFuzz, CommittedMergesKeepTaskCoverage) {
  const std::uint64_t seed = GetParam();
  const Dag g = test::randomLayeredDag(7, 5, 3, seed);
  partition::PartitionConfig pcfg;
  pcfg.numParts = 10;
  pcfg.seed = seed;
  const auto pr = partition::partitionAcyclic(g, pcfg);
  quotient::QuotientGraph q(g, pr.blockOf, pr.numBlocks);

  support::Rng rng(seed ^ 0xabcdef);
  // Commit random merges until two nodes remain; coverage must hold at
  // every step, and work must be conserved.
  const double totalWork = g.totalWork();
  while (q.numAlive() > 2) {
    const auto alive = q.aliveNodes();
    const BlockId a = alive[static_cast<std::size_t>(
        rng.uniformInt(0, static_cast<std::int64_t>(alive.size()) - 1))];
    BlockId b = a;
    while (b == a) {
      b = alive[static_cast<std::size_t>(rng.uniformInt(
          0, static_cast<std::int64_t>(alive.size()) - 1))];
    }
    q.merge(a, b);

    std::vector<int> seen(g.numVertices(), 0);
    double work = 0.0;
    for (const BlockId node : q.aliveNodes()) {
      for (const VertexId v : q.node(node).members) ++seen[v];
      work += q.node(node).work;
    }
    for (const int s : seen) ASSERT_EQ(s, 1);
    ASSERT_NEAR(work, totalWork, 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QuotientFuzz,
                         testing::ValuesIn(fuzzSeeds(12)));

class PipelineFuzz : public testing::TestWithParam<std::uint64_t> {};

TEST_P(PipelineFuzz, RandomInstancesAlwaysValidOrInfeasible) {
  const std::uint64_t seed = GetParam();
  support::Rng rng(seed);
  // Randomized workflow shape and cluster tightness.
  graph::LayeredDagConfig gcfg;
  gcfg.layers = 3 + static_cast<int>(rng.uniformInt(0, 6));
  gcfg.maxWidth = 2 + static_cast<int>(rng.uniformInt(0, 8));
  gcfg.maxInDegree = 1 + static_cast<int>(rng.uniformInt(0, 3));
  gcfg.seed = seed * 977;
  const Dag g = graph::randomLayeredDag(gcfg);

  std::vector<platform::Processor> procs;
  const int k = 2 + static_cast<int>(rng.uniformInt(0, 10));
  for (int p = 0; p < k; ++p) {
    procs.push_back({"p" + std::to_string(p),
                     static_cast<double>(rng.uniformInt(1, 32)),
                     static_cast<double>(rng.uniformInt(8, 256))});
  }
  platform::Cluster cluster(std::move(procs),
                            0.5 + rng.uniformReal() * 4.0);
  // Intentionally do NOT always scale memories: roughly half the cases stay
  // memory-tight and must either fail cleanly or produce valid schedules.
  if (rng.bernoulli(0.5)) {
    cluster.scaleMemoriesToFit(g.maxTaskMemoryRequirement());
  }

  const memory::MemDagOracle oracle(g);
  scheduler::DagHetPartConfig cfg;
  cfg.seed = seed;
  cfg.parallelSweep = false;
  const scheduler::ScheduleResult part = scheduler::dagHetPart(g, cluster, cfg);
  if (part.feasible) {
    const auto report = scheduler::validateSchedule(g, cluster, oracle, part);
    EXPECT_TRUE(report.valid) << "seed " << seed << ": " << report.error;
  }
  const scheduler::ScheduleResult mem = scheduler::dagHetMem(g, cluster);
  if (mem.feasible) {
    const auto report = scheduler::validateSchedule(g, cluster, oracle, mem);
    EXPECT_TRUE(report.valid) << "seed " << seed << ": " << report.error;
  }
  if (part.feasible && mem.feasible) {
    // Per-instance dominance is not guaranteed (DagHetPart is a heuristic;
    // on adversarial random clusters it can lose a few percent, e.g. seed
    // 26 loses 8.6%). Guard against gross regressions only; the aggregate
    // win is asserted by the Headline integration tests.
    EXPECT_LE(part.makespan, mem.makespan * 1.2 + 1e-9) << "seed " << seed;
  }
}

TEST_P(PipelineFuzz, TracingNeverChangesSchedules) {
  const std::uint64_t seed = GetParam();
  support::Rng rng(seed * 53 + 5);
  graph::LayeredDagConfig gcfg;
  gcfg.layers = 3 + static_cast<int>(rng.uniformInt(0, 5));
  gcfg.maxWidth = 2 + static_cast<int>(rng.uniformInt(0, 6));
  gcfg.seed = seed * 613;
  const Dag g = graph::randomLayeredDag(gcfg);
  platform::Cluster cluster = platform::makeCluster(
      platform::Heterogeneity::kDefault, platform::ClusterSize::kSmall);
  cluster.scaleMemoriesToFit(g.maxTaskMemoryRequirement());

  scheduler::DagHetPartConfig cfg;
  cfg.seed = seed;

  const bool countersWere = obs::countersEnabled();
  const bool tracingWas = obs::tracingEnabled();
  obs::enableCounters(false);
  obs::enableTracing(false);
  const scheduler::ScheduleResult plain = scheduler::dagHetPart(g, cluster, cfg);
  obs::enableCounters(true);
  obs::enableTracing(true);
  const scheduler::ScheduleResult traced =
      scheduler::dagHetPart(g, cluster, cfg);
  obs::enableCounters(countersWere);
  obs::enableTracing(tracingWas);
  obs::resetForTest();

  // Observability must be a pure observer: enabling it cannot perturb the
  // search. Bit-wise equality, not tolerance.
  ASSERT_EQ(plain.feasible, traced.feasible) << "seed " << seed;
  if (plain.feasible) {
    EXPECT_EQ(plain.makespan, traced.makespan) << "seed " << seed;
    EXPECT_EQ(plain.blockOf, traced.blockOf) << "seed " << seed;
    EXPECT_EQ(plain.procOfBlock, traced.procOfBlock) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineFuzz,
                         testing::ValuesIn(fuzzSeeds(32)));

/// Differential harness for the rescheduling splice: fuzzed instances on a
/// memory-tight cluster (so schedules are genuinely multi-block), the
/// block-synchronous replay chopped up by observer pauses and mid-run
/// splices, cross-validated against quotient::computeTimeline (via
/// scheduler::staticMakespan).
using SpliceCase = test::ScheduledFuzzCase;

SpliceCase makeSpliceCase(std::uint64_t seed) {
  return test::makeTightFuzzCase(seed * 131 + 17, seed);
}

class SpliceFuzz : public testing::TestWithParam<std::uint64_t> {};

TEST_P(SpliceFuzz, ChoppedDeterministicReplayMatchesComputeTimeline) {
  const SpliceCase sc = makeSpliceCase(GetParam());
  const memory::MemDagOracle oracle(sc.dag);
  int checked = 0;
  for (const scheduler::ScheduleResult* schedule : {&sc.part, &sc.mem}) {
    if (!schedule->feasible) continue;
    ++checked;
    const double expected =
        scheduler::staticMakespan(sc.dag, sc.cluster, *schedule);
    const sim::SimPlan plan =
        sim::prepareSimulation(sc.dag, sc.cluster, *schedule, oracle);
    ASSERT_TRUE(plan.ok()) << plan.error();
    test::PauseEveryNthFinish pacer(2);
    sim::SimOptions opts;
    opts.observer = &pacer;
    sim::SimCheckpoint checkpoint;
    sim::SimResult run = sim::simulateSchedule(plan, opts);
    while (run.ok && run.paused) {
      checkpoint = std::move(run.checkpoint);
      opts.resume = &checkpoint;
      run = sim::simulateSchedule(plan, opts);
    }
    ASSERT_TRUE(run.ok) << run.error;
    EXPECT_NEAR(run.makespan, expected, 1e-9 * std::max(1.0, expected))
        << "seed " << GetParam();
  }
  if (checked == 0) GTEST_SKIP() << "no feasible schedule";
}

TEST_P(SpliceFuzz, ForcedSplicesStayConsistentWithTheStaticModel) {
  const SpliceCase sc = makeSpliceCase(GetParam());
  const memory::MemDagOracle oracle(sc.dag);
  for (const scheduler::ScheduleResult* schedule : {&sc.part, &sc.mem}) {
    if (!schedule->feasible) continue;
    const double expected =
        scheduler::staticMakespan(sc.dag, sc.cluster, *schedule);
    // Deterministic execution with forced repair attempts: every splice's
    // residual projection must be realized exactly (no noise), so the final
    // makespan equals the last accepted projection and never exceeds the
    // static Eq. (1)-(2) prediction.
    resched::RescheduleOptions options;
    options.policy.trigger = resched::TriggerPolicy::kInterval;
    options.policy.intervalFraction = 0.2;
    options.policy.driftTolerance = -1.0;
    options.policy.minGain = 1e-6;
    options.policy.hindsightGuard = false;
    const resched::RescheduleResult run =
        resched::runOnline(sc.dag, sc.cluster, *schedule, oracle, options);
    ASSERT_TRUE(run.ok) << run.error;
    const double tol = 1e-9 * std::max(1.0, expected);
    EXPECT_NEAR(run.unrepairedMakespan, expected, tol);
    EXPECT_LE(run.finalMakespan, expected + tol);
    double lastProjection = expected;
    for (const resched::RepairRecord& repair : run.repairs) {
      if (!repair.accepted) continue;
      EXPECT_NEAR(repair.resumedProjection, repair.projectedAfter,
                  1e-9 * std::max(1.0, repair.projectedAfter));
      lastProjection = repair.resumedProjection;
    }
    EXPECT_NEAR(run.finalMakespan, lastProjection,
                1e-9 * std::max(1.0, lastProjection));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpliceFuzz,
                         testing::ValuesIn(fuzzSeeds(16)));

/// Fault-injection fuzz: fuzzed fault schedules (rates, downtimes and event
/// instants all derived from the seed) driven through the recovery-aware
/// rescheduler on a spare-augmented tight cluster. Whenever recovery
/// succeeds, the final schedule must be valid: acyclic quotient, every
/// block's memory requirement within its processor, and no task executing
/// on a processor past its fail-stop instant.
class FaultFuzz : public testing::TestWithParam<std::uint64_t> {};

TEST_P(FaultFuzz, RecoveryYieldsValidSchedulesOrFailsHonestly) {
  const std::uint64_t seed = GetParam();
  const SpliceCase sc = makeSpliceCase(seed);
  const memory::MemDagOracle oracle(sc.dag);
  const platform::Cluster augmented =
      experiments::addSpareProcessors(sc.cluster, 2);
  support::Rng rates(sim::mixSeed(seed, 0xfa17));
  int recovered = 0;
  for (const scheduler::ScheduleResult* schedule : {&sc.part, &sc.mem}) {
    if (!schedule->feasible) continue;
    sim::FaultSpec spec;
    spec.failStopProbability = 0.2 + 0.5 * rates.uniformReal();
    spec.crashProbability = 0.5 * rates.uniformReal();
    spec.horizon = std::max(schedule->makespan * 0.8, 1e-9);
    spec.downtime = schedule->makespan * 0.05;
    spec.maxCrashesPerProcessor = 2;
    sim::FaultModel faults(spec, augmented.numProcessors());
    resched::RescheduleOptions options;
    options.seed = seed * 977 + 5;
    options.faults = &faults;
    const resched::RescheduleResult run =
        resched::runOnline(sc.dag, augmented, *schedule, oracle, options);
    if (!run.ok) continue;  // unrecoverable draw: an honest error, not a bug
    ++recovered;
    const scheduler::ScheduleResult& fin = run.finalSchedule;
    ASSERT_EQ(fin.blockOf.size(), sc.dag.numVertices());
    // Acyclic quotient (modelMakespan is nullopt on a cyclic one).
    EXPECT_TRUE(scheduler::modelMakespan(sc.dag, augmented, fin,
                                         comm::uncontendedCommModel())
                    .has_value())
        << "seed " << seed;
    // Memory feasibility of every block on its final processor.
    std::vector<std::vector<graph::VertexId>> members(fin.numBlocks());
    for (VertexId v = 0; v < sc.dag.numVertices(); ++v) {
      members[fin.blockOf[v]].push_back(v);
    }
    for (BlockId b = 0; b < fin.numBlocks(); ++b) {
      if (members[b].empty()) continue;
      EXPECT_LE(oracle.blockRequirement(members[b]),
                augmented.memory(fin.procOfBlock[b]) * (1.0 + 1e-9))
          << "seed " << seed << " block " << b;
    }
    // No task event on a processor at or past its fail-stop instant, and
    // every killed task re-executed to completion somewhere.
    const double tol = 1e-9 * std::max(1.0, run.finalMakespan);
    for (const sim::FaultEvent& fault : run.faultLog) {
      if (fault.kind != sim::FaultKind::kFailStop) continue;
      for (VertexId v = 0; v < sc.dag.numVertices(); ++v) {
        const sim::TaskEvent& ev = run.execution.events[v];
        EXPECT_FALSE(ev.proc == fault.proc && ev.finish > fault.time + tol)
            << "seed " << seed << " task " << v << " survived on processor "
            << fault.proc << " dead since t=" << fault.time;
      }
      if (fault.killedTask != graph::kInvalidVertex) {
        EXPECT_NE(run.execution.events[fault.killedTask].proc, fault.proc)
            << "seed " << seed;
      }
    }
    // The driver's never-worse-than-greedy guarantee.
    if (run.greedyMakespan !=
        std::numeric_limits<double>::infinity()) {
      EXPECT_LE(run.finalMakespan,
                run.greedyMakespan * (1.0 + 1e-12))
          << "seed " << seed;
    }
  }
  if (recovered == 0) GTEST_SKIP() << "no feasible schedule recovered";
}

TEST_P(FaultFuzz, ZeroRateFaultModelIsBitExactNoop) {
  const std::uint64_t seed = GetParam();
  const SpliceCase sc = makeSpliceCase(seed);
  const memory::MemDagOracle oracle(sc.dag);
  int checked = 0;
  for (const scheduler::ScheduleResult* schedule : {&sc.part, &sc.mem}) {
    if (!schedule->feasible) continue;
    ++checked;
    // Online driver under straggler noise: an attached-but-inactive fault
    // model must replay the exact legacy path.
    resched::RescheduleOptions base;
    base.seed = seed * 31 + 7;
    base.perturbation.kind = sim::PerturbationKind::kStraggler;
    base.perturbation.stragglerProbability = 0.25;
    base.perturbation.stragglerFactor = 3.0;
    const resched::RescheduleResult plain =
        resched::runOnline(sc.dag, sc.cluster, *schedule, oracle, base);
    sim::FaultModel inactive(sim::FaultSpec{}, sc.cluster.numProcessors());
    resched::RescheduleOptions withModel = base;
    withModel.faults = &inactive;
    const resched::RescheduleResult faulted =
        resched::runOnline(sc.dag, sc.cluster, *schedule, oracle, withModel);
    ASSERT_EQ(plain.ok, faulted.ok);
    if (!plain.ok) continue;
    EXPECT_EQ(plain.finalMakespan, faulted.finalMakespan);
    EXPECT_EQ(plain.unrepairedMakespan, faulted.unrepairedMakespan);
    EXPECT_EQ(plain.repairs.size(), faulted.repairs.size());
    EXPECT_TRUE(faulted.faultLog.empty());
    EXPECT_EQ(faulted.faultsInjected, 0);
    // Engine level: a zero-probability model that is *active* in shape but
    // draws no events must also be a bit-exact no-op.
    sim::SimOptions so;
    so.seed = base.seed;
    const sim::SimResult bare =
        sim::simulateSchedule(sc.dag, sc.cluster, *schedule, oracle, so);
    sim::FaultModel zero(sim::FaultSpec{}, sc.cluster.numProcessors());
    sim::SimOptions withFaults = so;
    withFaults.faults = &zero;
    const sim::SimResult noop = sim::simulateSchedule(
        sc.dag, sc.cluster, *schedule, oracle, withFaults);
    ASSERT_EQ(bare.ok, noop.ok) << noop.error;
    EXPECT_EQ(bare.makespan, noop.makespan);
    ASSERT_EQ(bare.events.size(), noop.events.size());
    for (std::size_t v = 0; v < bare.events.size(); ++v) {
      EXPECT_EQ(bare.events[v].start, noop.events[v].start);
      EXPECT_EQ(bare.events[v].finish, noop.events[v].finish);
      EXPECT_EQ(bare.events[v].proc, noop.events[v].proc);
    }
  }
  if (checked == 0) GTEST_SKIP() << "no feasible schedule";
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultFuzz,
                         testing::ValuesIn(fuzzSeeds(16)));

/// Differential fuzz for the incremental makespan evaluator: random
/// mutation sequences (moves, swaps, merge probes with rollback, committed
/// merges incl. 2-cycle repairs through the merge step itself) must agree
/// with the full recompute bit-exactly under the null/uncontended model and
/// to 1e-9 under the fair-share model.
class IncrementalFuzz : public testing::TestWithParam<std::uint64_t> {};

struct EvalFuzzCase {
  Dag dag;
  platform::Cluster cluster;
  std::vector<std::uint32_t> blockOf;
  std::uint32_t numBlocks = 0;
};

EvalFuzzCase makeEvalFuzzCase(std::uint64_t seed) {
  EvalFuzzCase fc;
  support::Rng rng(seed * 613 + 29);
  fc.dag = test::randomLayeredDag(4 + static_cast<int>(rng.uniformInt(0, 4)),
                                  3 + static_cast<int>(rng.uniformInt(0, 4)),
                                  1 + static_cast<int>(rng.uniformInt(0, 2)),
                                  seed * 31 + 11);
  partition::PartitionConfig pcfg;
  pcfg.numParts = 5 + static_cast<std::uint32_t>(rng.uniformInt(0, 7));
  pcfg.seed = seed;
  const auto pr = partition::partitionAcyclic(fc.dag, pcfg);
  fc.blockOf = pr.blockOf;
  fc.numBlocks = pr.numBlocks;
  std::vector<platform::Processor> procs;
  const int k = 3 + static_cast<int>(rng.uniformInt(0, 5));
  for (int p = 0; p < k; ++p) {
    procs.push_back({"p" + std::to_string(p),
                     static_cast<double>(rng.uniformInt(1, 8)), 1e9});
  }
  fc.cluster =
      platform::Cluster(std::move(procs), 0.5 + rng.uniformReal() * 3.0);
  return fc;
}

/// One fuzzed mutation sequence against the given model; `compare` asserts
/// agreement between an incremental and a full evaluation of the makespan.
template <typename Compare>
void runIncrementalMutationFuzz(std::uint64_t seed,
                                const comm::CommCostModel* model,
                                Compare&& compare) {
  const EvalFuzzCase fc = makeEvalFuzzCase(seed);
  quotient::QuotientGraph q(fc.dag, fc.blockOf, fc.numBlocks);
  support::Rng rng(seed ^ 0x5eedf00d);
  const auto numProcs =
      static_cast<std::int64_t>(fc.cluster.numProcessors());
  for (const BlockId b : q.aliveNodes()) {
    // ~1 in 5 blocks stays unassigned (the Step-3 probing regime).
    if (!rng.bernoulli(0.2)) {
      q.setProcessor(b, static_cast<platform::ProcessorId>(
                            rng.uniformInt(0, numProcs - 1)));
    }
  }
  quotient::IncrementalEvaluator eval(q, fc.cluster, model);
  quotient::IncrementalEvaluator::Scratch scratch(eval);
  std::vector<BlockId> seeds, dead;

  const auto fullMakespan = [&]() {
    const auto full = quotient::makespanValue(q, fc.cluster, model);
    ASSERT_TRUE(full.has_value());
    compare(eval.makespan(), *full);
  };
  const auto randomProc = [&]() {
    return rng.bernoulli(0.15)
               ? platform::kNoProcessor
               : static_cast<platform::ProcessorId>(
                     rng.uniformInt(0, numProcs - 1));
  };
  const auto randomAlive = [&]() {
    const auto alive = q.aliveNodes();
    return alive[static_cast<std::size_t>(
        rng.uniformInt(0, static_cast<std::int64_t>(alive.size()) - 1))];
  };

  for (int step = 0; step < 40; ++step) {
    if (q.numAlive() < 3) break;
    switch (rng.uniformInt(0, 4)) {
      case 0: {  // tentative move (probe + full cross-check, then discard)
        const BlockId b = randomAlive();
        const platform::ProcessorId p = randomProc();
        const quotient::ProcOverride overrides[1] = {{b, p}};
        const double probed = eval.probeAssign(scratch, overrides);
        const platform::ProcessorId saved = q.node(b).proc;
        q.setProcessor(b, p);
        const auto full = quotient::makespanValue(q, fc.cluster, model);
        q.setProcessor(b, saved);
        ASSERT_TRUE(full.has_value());
        compare(probed, *full);
        break;
      }
      case 1: {  // tentative swap
        const BlockId a = randomAlive();
        BlockId b = a;
        while (b == a) b = randomAlive();
        const platform::ProcessorId pa = q.node(a).proc;
        const platform::ProcessorId pb = q.node(b).proc;
        const quotient::ProcOverride overrides[2] = {{a, pb}, {b, pa}};
        const double probed = eval.probeAssign(scratch, overrides);
        q.setProcessor(a, pb);
        q.setProcessor(b, pa);
        const auto full = quotient::makespanValue(q, fc.cluster, model);
        q.setProcessor(a, pa);
        q.setProcessor(b, pb);
        ASSERT_TRUE(full.has_value());
        compare(probed, *full);
        break;
      }
      case 2: {  // committed move
        const BlockId b = randomAlive();
        q.setProcessor(b, randomProc());
        const BlockId dirty[1] = {b};
        eval.commitAssign(dirty);
        break;
      }
      case 3: {  // merge probe + rollback (incl. the cycle prediction)
        const BlockId host = randomAlive();
        BlockId nu = host;
        while (nu == host) nu = randomAlive();
        const bool predicted = eval.mergeWouldCreateCycle(host, nu);
        quotient::MergeTransaction tx = q.merge(host, nu);
        ASSERT_EQ(predicted, !q.isAcyclic());
        if (!predicted) {
          quotient::IncrementalEvaluator::seedsOfMerge(tx, seeds, dead);
          const double probed = eval.probeMerged(scratch, seeds, dead);
          const auto full = quotient::makespanValue(q, fc.cluster, model);
          ASSERT_TRUE(full.has_value());
          compare(probed, *full);
        }
        q.rollback(std::move(tx));
        break;
      }
      case 4: {  // committed merge (acyclicity-checked) + structural rebuild
        const BlockId host = randomAlive();
        BlockId nu = host;
        while (nu == host) nu = randomAlive();
        if (eval.mergeWouldCreateCycle(host, nu)) break;
        q.merge(host, nu);
        eval.rebuild();
        break;
      }
    }
    fullMakespan();
  }
  // Final cross-check against the forward pass as well. The forward and
  // backward passes fold the same path weights in different association
  // orders, so they agree to rounding (not bitwise) on fractional weights;
  // the evaluator's bit-exactness contract is against makespanValue — the
  // backward recurrence the searches evaluate.
  if (model == nullptr) {
    const double forward = quotient::computeTimeline(q, fc.cluster).makespan;
    ASSERT_NEAR(eval.makespan(), forward, 1e-9 * std::max(1.0, forward));
  }
}

TEST_P(IncrementalFuzz, MutationSequencesMatchFullRecomputeBitExact) {
  runIncrementalMutationFuzz(GetParam(), nullptr,
                             [](double incremental, double full) {
                               ASSERT_EQ(incremental, full);
                             });
}

TEST_P(IncrementalFuzz, MutationSequencesMatchFairShareModelTo1em9) {
  runIncrementalMutationFuzz(
      GetParam(), &comm::fairShareCommModel(),
      [](double incremental, double full) {
        ASSERT_NEAR(incremental, full, 1e-9 * std::max(1.0, full));
      });
}

/// The case's quotient with every block assigned, round-robin over the
/// processors, and memory requirements that fit everywhere.
quotient::QuotientGraph assignedQuotient(const EvalFuzzCase& fc) {
  quotient::QuotientGraph q(fc.dag, fc.blockOf, fc.numBlocks);
  std::uint32_t i = 0;
  for (const BlockId b : q.aliveNodes()) {
    q.setProcessor(b, static_cast<platform::ProcessorId>(
                          i++ % fc.cluster.numProcessors()));
    q.setMemReq(b, 1.0);
  }
  return q;
}

std::vector<platform::ProcessorId> procsOf(const quotient::QuotientGraph& q) {
  std::vector<platform::ProcessorId> procs;
  for (const BlockId b : q.aliveNodes()) procs.push_back(q.node(b).proc);
  return procs;
}

TEST_P(IncrementalFuzz, ParallelSwapScanIsThreadCountReproducible) {
  const EvalFuzzCase fc = makeEvalFuzzCase(GetParam() * 7 + 3);
  const quotient::QuotientGraph base = assignedQuotient(fc);
  const auto run = [&](int threads, bool full) {
    quotient::QuotientGraph q = base;  // value copy: independent state
#ifdef _OPENMP
    const int saved = omp_get_max_threads();
    if (threads > 0) omp_set_num_threads(threads);
#endif
    scheduler::SwapStepConfig cfg;
    cfg.fullReevaluation = full;
    const scheduler::SwapStepResult result =
        scheduler::improveBySwaps(q, fc.cluster, cfg);
#ifdef _OPENMP
    omp_set_num_threads(saved);
#endif
    return std::make_tuple(result.makespan, result.swapsCommitted,
                           result.idleMovesCommitted, procsOf(q));
  };
  const auto single = run(1, false);
  const auto parallel = run(3, false);
  const auto reference = run(1, true);
  EXPECT_EQ(single, parallel);  // bit-identical for any thread count
  EXPECT_EQ(single, reference);  // and identical to the full recompute
}

/// The incremental scan probes only pairs with an endpoint on the critical
/// path; the full-recompute loop probes every pair. Equal states after every
/// round prefix mean both commit the same swap in every round.
TEST_P(IncrementalFuzz, PathPrunedSwapScanCommitsTheFullScanSequence) {
  const EvalFuzzCase fc = makeEvalFuzzCase(GetParam() * 5 + 1);
  const quotient::QuotientGraph base = assignedQuotient(fc);
  const auto run = [&](std::uint32_t rounds, bool full) {
    quotient::QuotientGraph q = base;
    scheduler::SwapStepConfig cfg;
    cfg.maxSwapRounds = rounds;
    cfg.enableIdleMoves = false;
    cfg.fullReevaluation = full;
    const scheduler::SwapStepResult result =
        scheduler::improveBySwaps(q, fc.cluster, cfg);
    return std::make_tuple(result.makespan, result.swapsCommitted,
                           procsOf(q));
  };
  for (std::uint32_t rounds = 0; rounds <= 64; ++rounds) {
    const auto pruned = run(rounds, false);
    ASSERT_EQ(pruned, run(rounds, true)) << "after " << rounds << " rounds";
    if (std::get<1>(pruned) < rounds) break;  // no improving swap is left
  }
}

/// Pairs the first Step-4 round prices under a placement-invariant model:
/// distinct processors of distinct speeds, each block fitting the other's
/// memory and, when `path` is given, at least one block on it.
std::uint64_t firstRoundPairs(const quotient::QuotientGraph& q,
                              const platform::Cluster& cluster,
                              const std::vector<BlockId>* path) {
  const auto onPath = [&](BlockId b) {
    return path == nullptr ||
           std::find(path->begin(), path->end(), b) != path->end();
  };
  const std::vector<BlockId> nodes = q.aliveNodes();
  std::uint64_t count = 0;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    for (std::size_t j = i + 1; j < nodes.size(); ++j) {
      const platform::ProcessorId pa = q.node(nodes[i]).proc;
      const platform::ProcessorId pb = q.node(nodes[j]).proc;
      if (pa == pb || cluster.speed(pa) == cluster.speed(pb)) continue;
      if (q.node(nodes[i]).memReq > cluster.memory(pb) ||
          q.node(nodes[j]).memReq > cluster.memory(pa)) {
        continue;
      }
      if (onPath(nodes[i]) || onPath(nodes[j])) ++count;
    }
  }
  return count;
}

/// The critical-path prune is on exactly for the uncontended models: under
/// fair sharing an off-path swap changes which transfers overlap, so every
/// feasible pair must still be probed.
TEST_P(IncrementalFuzz, SwapScanPrunesOffPathPairsOnlyWhenUncontended) {
  const EvalFuzzCase fc = makeEvalFuzzCase(GetParam() * 13 + 7);
  const quotient::QuotientGraph base = assignedQuotient(fc);
  const bool countersWere = obs::countersEnabled();
  obs::enableCounters(true);
  const auto probedInFirstRound = [&](const comm::CommCostModel* model) {
    const auto probed = [] {
      return obs::counterSnapshot()[static_cast<std::size_t>(
                                        obs::Counter::kSwapPairsProbed)]
          .value;
    };
    quotient::QuotientGraph q = base;
    scheduler::SwapStepConfig cfg;
    cfg.comm = model;
    cfg.maxSwapRounds = 1;
    cfg.enableIdleMoves = false;
    const std::uint64_t before = probed();
    (void)scheduler::improveBySwaps(q, fc.cluster, cfg);
    return probed() - before;
  };
  const auto& uncontended = comm::uncontendedCommModel();
  const auto& fairShare = comm::fairShareCommModel();
  const std::uint64_t nullProbed = probedInFirstRound(nullptr);
  const std::uint64_t uncontendedProbed = probedInFirstRound(&uncontended);
  const std::uint64_t fairShareProbed = probedInFirstRound(&fairShare);
  obs::enableCounters(countersWere);

  const std::vector<BlockId> path =
      quotient::computeMakespan(base, fc.cluster).criticalPath;
  const std::vector<BlockId> fluidPath =
      quotient::computeMakespan(base, fc.cluster, uncontended).criticalPath;
  EXPECT_EQ(nullProbed, firstRoundPairs(base, fc.cluster, &path));
  EXPECT_EQ(uncontendedProbed, firstRoundPairs(base, fc.cluster, &fluidPath));
  EXPECT_EQ(fairShareProbed, firstRoundPairs(base, fc.cluster, nullptr));
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalFuzz,
                         testing::ValuesIn(fuzzSeeds(12)));

/// Unit-of-time property of Step 4 alone: multiplying every speed and the
/// bandwidth by 2^k divides every duration and transfer time by exactly
/// 2^k, so on a fully assigned quotient the same swaps and idle moves must
/// be committed and the makespan must be exactly 2^-k times the native one.
class RescaleFuzz : public testing::TestWithParam<std::uint64_t> {};

platform::Cluster scaledCluster(const platform::Cluster& cluster, int k) {
  std::vector<platform::Processor> procs;
  for (platform::ProcessorId p = 0; p < cluster.numProcessors(); ++p) {
    platform::Processor proc = cluster.processor(p);
    proc.speed = std::ldexp(proc.speed, k);
    procs.push_back(std::move(proc));
  }
  return platform::Cluster(std::move(procs),
                           std::ldexp(cluster.bandwidth(), k));
}

TEST_P(RescaleFuzz, PowerOfTwoUnitChangeLeavesStep4Unchanged) {
  const std::uint64_t seed = GetParam();
  EvalFuzzCase fc = makeEvalFuzzCase(seed * 3 + 2);
  support::Rng rng(seed * 389 + 17);
  // Fractional works and speeds make every sum round; a few spare
  // processors give the idle-move pass something to do.
  for (VertexId v = 0; v < fc.dag.numVertices(); ++v) {
    fc.dag.setWork(v, fc.dag.work(v) * (0.5 + rng.uniformReal()));
  }
  std::vector<platform::Processor> procs;
  const auto numProcs = fc.numBlocks + rng.uniformInt(0, 3);
  for (std::int64_t p = 0; p < numProcs; ++p) {
    procs.push_back({"p" + std::to_string(p),
                     0.5 + 4.0 * rng.uniformReal(), 1e9});
  }
  fc.cluster = platform::Cluster(std::move(procs), fc.cluster.bandwidth());
  const quotient::QuotientGraph base = assignedQuotient(fc);

  const auto run = [&](const platform::Cluster& cluster) {
    quotient::QuotientGraph q = base;
    const scheduler::SwapStepResult result =
        scheduler::improveBySwaps(q, cluster);
    return std::make_tuple(result.makespan, result.swapsCommitted,
                           result.idleMovesCommitted, procsOf(q));
  };
  const auto native = run(fc.cluster);
  for (const int k : {-60, -40, 10, 40}) {
    const auto scaled = run(scaledCluster(fc.cluster, k));
    EXPECT_EQ(std::get<3>(scaled), std::get<3>(native)) << "k=" << k;
    EXPECT_EQ(std::get<1>(scaled), std::get<1>(native)) << "k=" << k;
    EXPECT_EQ(std::get<2>(scaled), std::get<2>(native)) << "k=" << k;
    EXPECT_EQ(std::get<0>(scaled), std::ldexp(std::get<0>(native), -k))
        << "k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RescaleFuzz,
                         testing::ValuesIn(fuzzSeeds(16)));

// ---- optimality anchors ----------------------------------------------------

class AnchorFuzz : public testing::TestWithParam<std::uint64_t> {};

/// Random tiny instances: the closed B&B optimum bounds every feasible
/// schedule from below, the relaxation bounds the optimum, SA never worsens
/// its seed, and everything the anchors return validates.
TEST_P(AnchorFuzz, AnchorsBoundAndRefineConsistently) {
  const std::uint64_t seed = GetParam();
  const Dag g = test::randomLayeredDag(/*layers=*/3, /*width=*/2,
                                       /*maxIn=*/2, seed * 31 + 7);
  std::vector<platform::Processor> procs;
  const auto kinds = platform::machineKinds(platform::Heterogeneity::kMore);
  for (int p = 0; p < 3; ++p) {
    procs.push_back(kinds[static_cast<std::size_t>(p) % kinds.size()]);
  }
  platform::Cluster cluster(std::move(procs), 1.0);
  double maxReq = 0.0;
  for (VertexId v = 0; v < g.numVertices(); ++v) {
    maxReq = std::max(maxReq, g.taskMemoryRequirement(v));
  }
  cluster.scaleMemoriesToFit(maxReq);
  const memory::MemDagOracle oracle(g);

  const anchor::BnbResult exact = anchor::solveExact(g, cluster);
  ASSERT_TRUE(exact.closed);
  EXPECT_LE(anchor::relaxationLowerBound(g, cluster),
            exact.feasible ? exact.optimum
                           : std::numeric_limits<double>::infinity());
  const scheduler::ScheduleResult heuristic =
      scheduler::scheduleBest(g, cluster);
  if (heuristic.feasible) {
    ASSERT_TRUE(exact.feasible);
    EXPECT_LE(exact.optimum, heuristic.makespan);
    const auto exactReport =
        scheduler::validateSchedule(g, cluster, oracle, exact.schedule);
    EXPECT_TRUE(exactReport.valid) << exactReport.error;

    anchor::AnnealConfig anneal;
    anneal.restarts = 2;
    anneal.stepsPerRestart = 150;
    anneal.descentSteps = 50;
    const anchor::AnnealResult refined =
        anchor::refine(g, cluster, heuristic, anneal);
    EXPECT_LE(refined.refinedMakespan, heuristic.makespan);
    EXPECT_LE(exact.optimum, refined.refinedMakespan);
    const auto refinedReport =
        scheduler::validateSchedule(g, cluster, oracle, refined.schedule);
    EXPECT_TRUE(refinedReport.valid) << refinedReport.error;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AnchorFuzz,
                         testing::ValuesIn(fuzzSeeds(10)));

}  // namespace
}  // namespace dagpm
