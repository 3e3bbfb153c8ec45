// Tests for quotient::IncrementalEvaluator (the Step-3/4 delta-evaluation
// engine) and its integration into the swap/merge steps: bit-identity with
// the full recompute, probe purity, the cycle-check equivalence, the
// equal-speed-prune placement-invariance guard, and end-to-end agreement of
// the incremental pipeline with the full-reevaluation reference.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "partition/partitioner.hpp"
#include "quotient/incremental.hpp"
#include "quotient/timeline.hpp"
#include "scheduler/daghetpart.hpp"
#include "scheduler/merge_step.hpp"
#include "scheduler/swap_step.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"

namespace dagpm::quotient {
namespace {

using graph::Dag;
using platform::ProcessorId;

struct Case {
  Dag dag;
  std::vector<std::uint32_t> blockOf;
  std::uint32_t numBlocks = 0;
  platform::Cluster cluster;
};

/// A random partitioned workflow on a heterogeneous cluster with procs
/// assigned round-robin (memories large enough that swaps stay feasible).
Case makeCase(std::uint64_t seed, std::uint32_t parts, int procs = 6) {
  Case c;
  c.dag = test::randomLayeredDag(7, 5, 3, seed);
  partition::PartitionConfig pcfg;
  pcfg.numParts = parts;
  pcfg.seed = seed;
  const auto pr = partition::partitionAcyclic(c.dag, pcfg);
  c.blockOf = pr.blockOf;
  c.numBlocks = pr.numBlocks;
  std::vector<platform::Processor> ps;
  for (int p = 0; p < procs; ++p) {
    ps.push_back({"p" + std::to_string(p), 1.0 + 0.5 * (p % 3), 1e9});
  }
  c.cluster = platform::Cluster(std::move(ps), 2.0);
  return c;
}

QuotientGraph buildQuotient(const Case& c, bool assignAll = true) {
  QuotientGraph q(c.dag, c.blockOf, c.numBlocks);
  std::uint32_t i = 0;
  for (const BlockId b : q.aliveNodes()) {
    if (assignAll || i % 3 != 0) {  // leave every third block unassigned
      q.setProcessor(
          b, static_cast<ProcessorId>(i % c.cluster.numProcessors()));
    }
    q.setMemReq(b, 1.0);
    ++i;
  }
  return q;
}

TEST(IncrementalEvaluator, RebuildMatchesFullEvaluation) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const Case c = makeCase(seed, 8);
    QuotientGraph q = buildQuotient(c, seed % 2 == 0);
    const IncrementalEvaluator eval(q, c.cluster);
    const auto full = makespanValue(q, c.cluster);
    ASSERT_TRUE(full.has_value());
    EXPECT_EQ(eval.makespan(), *full);
    const MakespanResult ms = computeMakespan(q, c.cluster);
    EXPECT_EQ(eval.criticalPath(), ms.criticalPath);
    EXPECT_EQ(eval.makespan(), computeTimeline(q, c.cluster).makespan);
  }
}

/// Folds a critical path's own durations and edge costs back up in Eq. (1)
/// order (sink first), the association the bottom weights are built in.
double pathWeight(const QuotientGraph& q, const platform::Cluster& cluster,
                  const std::vector<BlockId>& path) {
  double weight = 0.0;
  for (std::size_t k = path.size(); k-- > 0;) {
    const ProcessorId p = q.node(path[k]).proc;
    const double speed =
        p == platform::kNoProcessor ? 1.0 : cluster.speed(p);
    const double tail =
        k + 1 < path.size()
            ? q.out(path[k]).at(path[k + 1]) / cluster.bandwidth() + weight
            : 0.0;
    weight = q.node(path[k]).work / speed + tail;
  }
  return weight;
}

/// The reported critical path is an exact witness of the makespan at any
/// magnitude: consecutive blocks are parent and child, it ends at a sink,
/// and its durations plus edge costs fold to the makespan bit for bit.
TEST(CriticalPath, SumsToTheMakespanAtEveryMagnitude) {
  for (const double magnitude : {1e-6, 1e-3, 1.0, 1e3, 1e6, 1e9}) {
    for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
      Case c = makeCase(seed, 10);
      support::Rng rng(seed * 977 + 3);
      for (graph::VertexId v = 0; v < c.dag.numVertices(); ++v) {
        c.dag.setWork(v, magnitude * (0.5 + rng.uniformReal()));
      }
      for (graph::EdgeId e = 0; e < c.dag.numEdges(); ++e) {
        c.dag.setEdgeCost(e, magnitude * (0.5 + rng.uniformReal()));
      }
      const QuotientGraph q = buildQuotient(c, seed % 2 == 0);
      const MakespanResult ms = computeMakespan(q, c.cluster);
      const IncrementalEvaluator eval(q, c.cluster);
      for (const std::vector<BlockId>* path :
           {&ms.criticalPath, &eval.criticalPath()}) {
        ASSERT_FALSE(path->empty());
        for (std::size_t k = 0; k + 1 < path->size(); ++k) {
          ASSERT_EQ(q.out((*path)[k]).count((*path)[k + 1]), 1u);
        }
        EXPECT_TRUE(q.out(path->back()).empty())
            << "magnitude " << magnitude << " seed " << seed;
        EXPECT_EQ(pathWeight(q, c.cluster, *path), ms.makespan)
            << "magnitude " << magnitude << " seed " << seed;
      }
      EXPECT_EQ(eval.criticalPath(), ms.criticalPath);
    }
  }
}

TEST(IncrementalEvaluator, ProbeAssignMatchesFullRecomputeBitExact) {
  const Case c = makeCase(5, 9);
  QuotientGraph q = buildQuotient(c);
  const IncrementalEvaluator eval(q, c.cluster);
  IncrementalEvaluator::Scratch scratch(eval);
  for (const BlockId b : q.aliveNodes()) {
    for (ProcessorId p = 0; p < c.cluster.numProcessors(); ++p) {
      const ProcOverride overrides[1] = {{b, p}};
      const double probed = eval.probeAssign(scratch, overrides);
      const ProcessorId saved = q.node(b).proc;
      q.setProcessor(b, p);
      const auto full = makespanValue(q, c.cluster);
      q.setProcessor(b, saved);
      ASSERT_TRUE(full.has_value());
      EXPECT_EQ(probed, *full) << "block " << b << " -> proc " << p;
    }
  }
  // Probes never touched the committed cache.
  EXPECT_EQ(eval.makespan(), *makespanValue(q, c.cluster));
}

TEST(IncrementalEvaluator, SwapProbesMatchFullRecompute) {
  const Case c = makeCase(7, 10);
  QuotientGraph q = buildQuotient(c);
  const IncrementalEvaluator eval(q, c.cluster);
  IncrementalEvaluator::Scratch scratch(eval);
  const auto nodes = q.aliveNodes();
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    for (std::size_t j = i + 1; j < nodes.size(); ++j) {
      const BlockId a = nodes[i], b = nodes[j];
      const ProcessorId pa = q.node(a).proc, pb = q.node(b).proc;
      const ProcOverride overrides[2] = {{a, pb}, {b, pa}};
      const double probed = eval.probeAssign(scratch, overrides);
      q.setProcessor(a, pb);
      q.setProcessor(b, pa);
      const auto full = makespanValue(q, c.cluster);
      q.setProcessor(a, pa);
      q.setProcessor(b, pb);
      ASSERT_TRUE(full.has_value());
      EXPECT_EQ(probed, *full);
    }
  }
}

TEST(IncrementalEvaluator, CommitAssignTracksFullEvaluation) {
  const Case c = makeCase(11, 8);
  QuotientGraph q = buildQuotient(c);
  IncrementalEvaluator eval(q, c.cluster);
  support::Rng rng(11);
  const auto nodes = q.aliveNodes();
  for (int step = 0; step < 40; ++step) {
    const BlockId b = nodes[static_cast<std::size_t>(
        rng.uniformInt(0, static_cast<std::int64_t>(nodes.size()) - 1))];
    const ProcessorId p = static_cast<ProcessorId>(rng.uniformInt(
        0, static_cast<std::int64_t>(c.cluster.numProcessors()) - 1));
    q.setProcessor(b, p);
    const BlockId dirty[1] = {b};
    eval.commitAssign(dirty);
    EXPECT_EQ(eval.makespan(), *makespanValue(q, c.cluster));
    const MakespanResult ms = computeMakespan(q, c.cluster);
    EXPECT_EQ(eval.criticalPath(), ms.criticalPath);
  }
}

TEST(IncrementalEvaluator, MergeProbesAndCycleCheckMatchFullPath) {
  const Case c = makeCase(13, 10);
  QuotientGraph q = buildQuotient(c);
  const IncrementalEvaluator eval(q, c.cluster);
  IncrementalEvaluator::Scratch scratch(eval);
  std::vector<BlockId> seeds, dead;
  const auto nodes = q.aliveNodes();
  int acyclicMerges = 0;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    for (std::size_t j = 0; j < nodes.size(); ++j) {
      if (i == j) continue;
      const BlockId host = nodes[i], nu = nodes[j];
      const bool predicted = eval.mergeWouldCreateCycle(host, nu);
      MergeTransaction tx = q.merge(host, nu);
      ASSERT_EQ(predicted, !q.isAcyclic())
          << "merge " << nu << " into " << host;
      if (!predicted) {
        ++acyclicMerges;
        IncrementalEvaluator::seedsOfMerge(tx, seeds, dead);
        const double probed = eval.probeMerged(scratch, seeds, dead);
        const auto full = makespanValue(q, c.cluster);
        ASSERT_TRUE(full.has_value());
        EXPECT_EQ(probed, *full);
      }
      q.rollback(std::move(tx));
      EXPECT_EQ(eval.makespan(), *makespanValue(q, c.cluster));
    }
  }
  EXPECT_GT(acyclicMerges, 0);
}

TEST(IncrementalEvaluator, ContendedProbesMatchModelEvaluation) {
  const Case c = makeCase(17, 9);
  QuotientGraph q = buildQuotient(c);
  const comm::CommCostModel& model = comm::fairShareCommModel();
  IncrementalEvaluator eval(q, c.cluster, &model);
  IncrementalEvaluator::Scratch scratch(eval);
  EXPECT_EQ(eval.makespan(), *makespanValue(q, c.cluster, model));
  const auto nodes = q.aliveNodes();
  for (std::size_t i = 0; i + 1 < nodes.size(); i += 2) {
    const BlockId a = nodes[i], b = nodes[i + 1];
    const ProcessorId pa = q.node(a).proc, pb = q.node(b).proc;
    const ProcOverride overrides[2] = {{a, pb}, {b, pa}};
    const double probed = eval.probeAssign(scratch, overrides);
    q.setProcessor(a, pb);
    q.setProcessor(b, pa);
    const auto full = makespanValue(q, c.cluster, model);
    ASSERT_TRUE(full.has_value());
    EXPECT_EQ(probed, *full);
    // Commit the swap and check the patched-fluid cache stays in sync.
    const BlockId dirty[2] = {a, b};
    eval.commitAssign(dirty);
    EXPECT_EQ(eval.makespan(), *full);
    const MakespanResult ms = computeMakespan(q, c.cluster, model);
    EXPECT_EQ(eval.criticalPath(), ms.criticalPath);
  }
}

}  // namespace
}  // namespace dagpm::quotient

namespace dagpm::scheduler {
namespace {

using platform::ProcessorId;
using quotient::BlockId;

/// A cost model that prices same-processor transfers as free (otherwise the
/// uncontended c/beta): placement-sensitive, so the Step-4 equal-speed
/// prune must not skip swaps under it.
class SameProcFreeModel final : public comm::CommCostModel {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "same-proc-free";
  }
  [[nodiscard]] bool contended() const noexcept override { return false; }
  [[nodiscard]] bool placementInvariant() const noexcept override {
    return false;
  }
  [[nodiscard]] comm::FluidResult evaluate(const comm::FluidProblem& p,
                                           double beta) const override {
    comm::FluidResult result;
    const std::size_t n = p.nodes.size();
    result.start.assign(n, 0.0);
    result.finish.assign(n, 0.0);
    result.bindingEdge.assign(n, comm::kNoFluidEdge);
    if (p.order.size() != n) return result;
    std::vector<std::vector<std::uint32_t>> inEdges(n);
    for (std::uint32_t e = 0; e < p.edges.size(); ++e) {
      inEdges[p.edges[e].dst].push_back(e);
    }
    for (const std::uint32_t v : p.order) {
      double ready = p.nodes[v].earliestStart;
      for (const std::uint32_t e : inEdges[v]) {
        const comm::FluidEdge& edge = p.edges[e];
        const bool sameProc = p.nodes[edge.src].proc == p.nodes[v].proc &&
                              p.nodes[v].proc != comm::kNoFluidProc;
        const double delivery =
            result.finish[edge.src] + (sameProc ? 0.0 : edge.volume / beta);
        if (delivery > ready) {
          ready = delivery;
          result.bindingEdge[v] = e;
        }
      }
      result.start[v] = ready;
      result.finish[v] = ready + p.nodes[v].duration;
      result.makespan = std::max(result.makespan, result.finish[v]);
    }
    result.ok = true;
    return result;
  }
};

TEST(SwapStepPrune, BuiltInModelsDeclarePlacementInvariance) {
  EXPECT_TRUE(comm::uncontendedCommModel().placementInvariant());
  EXPECT_TRUE(comm::fairShareCommModel().placementInvariant());
}

/// Regression for the equal-speed prune: under a placement-sensitive model
/// an equal-speed swap can reroute a heavy transfer onto the free
/// same-processor path and improve the makespan; the old unconditional
/// prune skipped it.
TEST(SwapStepPrune, EqualSpeedSwapImprovesPlacementSensitiveMakespan) {
  // Three singleton blocks: A -> C with a heavy edge, B isolated. A and C
  // start on different processors of identical speed; swapping B and C
  // (equal speeds!) lands C next to A, making the heavy transfer free.
  graph::Dag g;
  g.addVertex(1.0, 1.0);  // A
  g.addVertex(1.0, 1.0);  // B
  g.addVertex(1.0, 1.0);  // C
  g.addEdge(0, 2, 100.0);
  const std::vector<std::uint32_t> blockOf = {0, 1, 2};
  std::vector<platform::Processor> procs(2, {"p", 1.0, 1e9});
  const platform::Cluster cluster(std::move(procs), 1.0);

  const SameProcFreeModel model;
  for (const bool full : {false, true}) {
    quotient::QuotientGraph q(g, blockOf, 3);
    q.setProcessor(0, 0);  // A
    q.setProcessor(1, 0);  // B shares A's processor
    q.setProcessor(2, 1);  // C pays the transfer
    for (BlockId b = 0; b < 3; ++b) q.setMemReq(b, 1.0);
    const double before = *quotient::makespanValue(q, cluster, model);
    SwapStepConfig cfg;
    cfg.comm = &model;
    cfg.enableIdleMoves = false;
    cfg.fullReevaluation = full;
    const SwapStepResult result = improveBySwaps(q, cluster, cfg);
    EXPECT_GE(result.swapsCommitted, 1u) << "fullReevaluation=" << full;
    EXPECT_LT(result.makespan, before - 1.0) << "fullReevaluation=" << full;
    EXPECT_EQ(q.node(0).proc, q.node(2).proc);
  }
}

TEST(SwapStepPrune, PlacementInvariantModelsStillPruneEqualSpeedSwaps) {
  // Same instance under the fair-share backbone model: the swap cannot
  // change anything (placement-invariant), so no swap is committed.
  graph::Dag g;
  g.addVertex(1.0, 1.0);
  g.addVertex(1.0, 1.0);
  g.addVertex(1.0, 1.0);
  g.addEdge(0, 2, 100.0);
  const std::vector<std::uint32_t> blockOf = {0, 1, 2};
  std::vector<platform::Processor> procs(2, {"p", 1.0, 1e9});
  const platform::Cluster cluster(std::move(procs), 1.0);
  quotient::QuotientGraph q(g, blockOf, 3);
  q.setProcessor(0, 0);
  q.setProcessor(1, 0);
  q.setProcessor(2, 1);
  for (BlockId b = 0; b < 3; ++b) q.setMemReq(b, 1.0);
  SwapStepConfig cfg;
  cfg.comm = &comm::fairShareCommModel();
  cfg.enableIdleMoves = false;
  const SwapStepResult result = improveBySwaps(q, cluster, cfg);
  EXPECT_EQ(result.swapsCommitted, 0u);
}

TEST(Incremental, DagHetPartMatchesFullReevaluationReference) {
  // End-to-end: the whole pipeline (Steps 1-4 plus the k' sweep) must
  // produce bit-identical schedules with and without incremental
  // evaluation, under both cost models.
  for (const std::uint64_t seed : {3u, 9u, 21u}) {
    for (const bool aware : {false, true}) {
      const test::ScheduledFuzzCase sc =
          test::makeTightFuzzCase(seed * 57 + 5, seed);
      DagHetPartConfig cfg;
      cfg.seed = seed;
      cfg.parallelSweep = false;
      cfg.options.contentionAware = aware;
      const ScheduleResult incremental =
          dagHetPart(sc.dag, sc.cluster, cfg);
      cfg.options.fullReevaluation = true;
      const ScheduleResult reference = dagHetPart(sc.dag, sc.cluster, cfg);
      ASSERT_EQ(incremental.feasible, reference.feasible)
          << "seed " << seed << " aware " << aware;
      if (!incremental.feasible) continue;
      EXPECT_EQ(incremental.makespan, reference.makespan);
      EXPECT_EQ(incremental.blockOf, reference.blockOf);
      EXPECT_EQ(incremental.procOfBlock, reference.procOfBlock);
      EXPECT_EQ(incremental.stats.swapsCommitted,
                reference.stats.swapsCommitted);
      EXPECT_EQ(incremental.stats.mergesCommitted,
                reference.stats.mergesCommitted);
    }
  }
}

}  // namespace
}  // namespace dagpm::scheduler
