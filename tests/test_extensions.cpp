// Tests for the library extensions: graph generators/statistics/transitive
// reduction, the layered SP-ization portfolio member, topological chunking,
// the quotient timeline (Gantt), the HEFT list scheduler and its memory
// diagnosis, and CSV export.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>

#include "experiments/export.hpp"
#include "graph/generators.hpp"
#include "graph/stats.hpp"
#include "graph/topology.hpp"
#include "graph/transitive_reduction.hpp"
#include "memory/simulate.hpp"
#include "memory/sp_schedule.hpp"
#include "memory/spization.hpp"
#include "partition/chunking.hpp"
#include "quotient/timeline.hpp"
#include "scheduler/daghetpart.hpp"
#include "scheduler/list_scheduler.hpp"
#include "test_util.hpp"
#include "workflows/families.hpp"

namespace dagpm {
namespace {

using graph::Dag;
using graph::VertexId;

// ---------------------------------------------------------------- generators

TEST(Generators, LayeredDagsAreAcyclicAndWeighted) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    graph::LayeredDagConfig cfg;
    cfg.seed = seed;
    const Dag g = graph::randomLayeredDag(cfg);
    EXPECT_TRUE(graph::isAcyclic(g));
    for (VertexId v = 0; v < g.numVertices(); ++v) {
      EXPECT_GE(g.work(v), 1.0);
      EXPECT_LE(g.work(v), cfg.maxWork);
      EXPECT_GE(g.memory(v), 1.0);
      EXPECT_LE(g.memory(v), cfg.maxMemory);
    }
  }
}

TEST(Generators, LayeredDagRespectsShapeKnobs) {
  graph::LayeredDagConfig cfg;
  cfg.layers = 3;
  cfg.maxWidth = 2;
  cfg.maxInDegree = 1;
  cfg.seed = 5;
  const Dag g = graph::randomLayeredDag(cfg);
  EXPECT_LE(g.numVertices(), 6u);
  for (VertexId v = 0; v < g.numVertices(); ++v) {
    EXPECT_LE(g.inDegree(v), 1u);
  }
}

TEST(Generators, SpDagsAreSeriesParallel) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    graph::SpDagConfig cfg;
    cfg.seed = seed;
    cfg.targetSize = 15;
    const Dag g = graph::randomSpDag(cfg);
    EXPECT_TRUE(graph::isAcyclic(g));
    const auto order = memory::spOptimalOrder(test::wholeDagAsSub(g));
    EXPECT_TRUE(order.has_value()) << "seed " << seed;
  }
}

TEST(Generators, Deterministic) {
  graph::LayeredDagConfig cfg;
  cfg.seed = 77;
  const Dag a = graph::randomLayeredDag(cfg);
  const Dag b = graph::randomLayeredDag(cfg);
  ASSERT_EQ(a.numVertices(), b.numVertices());
  ASSERT_EQ(a.numEdges(), b.numEdges());
  for (VertexId v = 0; v < a.numVertices(); ++v) {
    EXPECT_DOUBLE_EQ(a.work(v), b.work(v));
  }
}

// --------------------------------------------------------------------- stats

TEST(Stats, ChainProfile) {
  Dag g;
  VertexId prev = g.addVertex(2, 3);
  for (int i = 1; i < 10; ++i) {
    const VertexId cur = g.addVertex(2, 3);
    g.addEdge(prev, cur, 1);
    prev = cur;
  }
  const graph::DagStats stats = graph::computeStats(g);
  EXPECT_EQ(stats.numVertices, 10u);
  EXPECT_EQ(stats.numEdges, 9u);
  EXPECT_EQ(stats.depth, 9u);
  EXPECT_EQ(stats.maxLevelWidth, 1u);
  EXPECT_DOUBLE_EQ(stats.chainedness, 1.0);
  EXPECT_DOUBLE_EQ(stats.totalWork, 20.0);
  EXPECT_DOUBLE_EQ(stats.ccr, 9.0 / 20.0);
}

TEST(Stats, ForkJoinProfile) {
  workflows::GenConfig cfg;
  cfg.numTasks = 50;
  const Dag g = workflows::generate(workflows::Family::kSeismology, cfg);
  const graph::DagStats stats = graph::computeStats(g);
  EXPECT_EQ(stats.depth, 2u);
  EXPECT_EQ(stats.maxLevelWidth, g.numVertices() - 2);
  EXPECT_EQ(stats.numSources, 1u);
  EXPECT_EQ(stats.numTargets, 1u);
  EXPECT_LT(stats.chainedness, 0.1);
}

TEST(Stats, FamiliesMatchFanoutClassification) {
  for (const auto family : workflows::allFamilies()) {
    workflows::GenConfig cfg;
    cfg.numTasks = 150;
    const graph::DagStats stats =
        graph::computeStats(workflows::generate(family, cfg));
    if (workflows::isHighFanout(family)) {
      // The paper's "most fanned-out" families: one level holds most tasks.
      EXPECT_GT(stats.maxLevelWidth, stats.numVertices / 2)
          << workflows::familyName(family);
    }
    if (family == workflows::Family::kSoyKb ||
        family == workflows::Family::kEpigenomics) {
      // The paper's "least fanned-out" families are chain-dominated.
      EXPECT_GT(stats.depth, 4u) << workflows::familyName(family);
      EXPECT_GT(stats.chainedness, 0.03) << workflows::familyName(family);
    }
  }
}

TEST(Stats, DescribeMentionsName) {
  Dag g;
  g.addVertex(1, 1);
  const std::string text = graph::describe(g, "myflow");
  EXPECT_NE(text.find("myflow"), std::string::npos);
  EXPECT_NE(text.find("tasks: 1"), std::string::npos);
}

// ------------------------------------------------------- transitive reduction

TEST(TransitiveReduction, RemovesShortcutEdge) {
  Dag g;
  const VertexId a = g.addVertex(1, 1);
  const VertexId b = g.addVertex(1, 1);
  const VertexId c = g.addVertex(1, 1);
  g.addEdge(a, b, 1);
  g.addEdge(b, c, 1);
  const graph::EdgeId shortcut = g.addEdge(a, c, 0.0);  // redundant, free
  EXPECT_TRUE(graph::isRedundantEdge(g, shortcut));
  const auto result = graph::transitiveReduction(g);
  EXPECT_EQ(result.removedEdges, 1u);
  EXPECT_EQ(result.dag.numEdges(), 2u);
  EXPECT_TRUE(graph::isAcyclic(result.dag));
}

TEST(TransitiveReduction, KeepsCostlyShortcutByDefault) {
  Dag g;
  const VertexId a = g.addVertex(1, 1);
  const VertexId b = g.addVertex(1, 1);
  const VertexId c = g.addVertex(1, 1);
  g.addEdge(a, b, 1);
  g.addEdge(b, c, 1);
  g.addEdge(a, c, 5.0);  // carries data: kept unless maxRemovableCost >= 5
  EXPECT_EQ(graph::transitiveReduction(g).removedEdges, 0u);
  graph::TransitiveReductionConfig cfg;
  cfg.maxRemovableCost = 10.0;
  EXPECT_EQ(graph::transitiveReduction(g, cfg).removedEdges, 1u);
}

TEST(TransitiveReduction, ParallelDuplicatesKeepOne) {
  Dag g;
  const VertexId a = g.addVertex(1, 1);
  const VertexId b = g.addVertex(1, 1);
  g.addEdge(a, b, 0.0);
  g.addEdge(a, b, 0.0);
  const auto result = graph::transitiveReduction(g);
  EXPECT_EQ(result.dag.numEdges(), 1u);  // connectivity preserved
  EXPECT_EQ(result.removedEdges, 1u);
}

TEST(TransitiveReduction, PreservesReachability) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    graph::LayeredDagConfig cfg;
    cfg.seed = seed;
    cfg.maxEdgeCost = 1.0;
    Dag g = graph::randomLayeredDag(cfg);
    // Zero out some costs so there is something to remove.
    for (graph::EdgeId e = 0; e < g.numEdges(); e += 2) g.setEdgeCost(e, 0.0);
    const auto result = graph::transitiveReduction(g);
    // Reachability from every source must be identical.
    for (const VertexId s : g.sources()) {
      EXPECT_EQ(graph::reachableFrom(g, s),
                graph::reachableFrom(result.dag, s))
          << "seed " << seed;
    }
  }
}

// ----------------------------------------------------------------- spization

TEST(Spization, OrderIsTopological) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    graph::LayeredDagConfig cfg;
    cfg.seed = seed;
    const Dag g = graph::randomLayeredDag(cfg);
    const graph::SubDag sub = test::wholeDagAsSub(g);
    const auto order = memory::layeredSpizationOrder(sub);
    EXPECT_TRUE(graph::isTopologicalOrder(sub.dag, order));
  }
}

TEST(Spization, OracleWithSpizationNeverWorse) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    graph::LayeredDagConfig cfg;
    cfg.seed = seed;
    const Dag g = graph::randomLayeredDag(cfg);
    std::vector<VertexId> all(g.numVertices());
    for (VertexId v = 0; v < g.numVertices(); ++v) all[v] = v;
    memory::OracleOptions with;
    memory::OracleOptions without = with;
    without.useSpization = false;
    const memory::MemDagOracle a(g, with), b(g, without);
    EXPECT_LE(a.blockRequirement(all), b.blockRequirement(all) + 1e-9);
  }
}

// ------------------------------------------------------------------ chunking

TEST(Chunking, ProducesAcyclicBalancedChunks) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    graph::LayeredDagConfig cfg;
    cfg.layers = 10;
    cfg.maxWidth = 8;
    cfg.seed = seed;
    const Dag g = graph::randomLayeredDag(cfg);
    partition::ChunkingConfig ccfg;
    ccfg.numParts = 6;
    const partition::PartitionResult result =
        partition::chunkTopologically(g, ccfg);
    EXPECT_LE(result.numBlocks, 6u);
    EXPECT_TRUE(partition::quotientIsAcyclic(g, result.blockOf));
  }
}

TEST(Chunking, MultilevelBeatsChunkingOnCut) {
  // The whole point of the dagP-style partitioner: a much smaller edge cut
  // than naive chunking on workflows with parallel structure.
  workflows::GenConfig gen;
  gen.numTasks = 600;
  const Dag g = workflows::generate(workflows::Family::kEpigenomics, gen);
  partition::ChunkingConfig ccfg;
  ccfg.numParts = 8;
  const double chunkCut = partition::chunkTopologically(g, ccfg).edgeCut;
  partition::PartitionConfig pcfg;
  pcfg.numParts = 8;
  const double mlCut = partition::partitionAcyclic(g, pcfg).edgeCut;
  EXPECT_LT(mlCut, chunkCut);
}

TEST(Chunking, SinglePartTrivial) {
  const Dag g = test::randomLayeredDag(4, 3, 2, 1);
  partition::ChunkingConfig cfg;
  cfg.numParts = 1;
  const auto result = partition::chunkTopologically(g, cfg);
  EXPECT_EQ(result.numBlocks, 1u);
}

// ------------------------------------------------------------------ timeline

TEST(Timeline, ForwardPassMatchesBottomWeights) {
  // The forward (start/finish) and backward (bottom weight) passes are both
  // longest-path computations; their makespans must agree exactly.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Dag g = test::randomLayeredDag(6, 5, 3, seed);
    const auto order = *graph::topologicalOrder(g);
    std::vector<std::uint32_t> blocks(g.numVertices());
    for (std::size_t i = 0; i < order.size(); ++i) {
      blocks[order[i]] = static_cast<std::uint32_t>(4 * i / order.size());
    }
    quotient::QuotientGraph q(g, blocks, 4);
    std::vector<platform::Processor> procs{{"a", 2, 1e9},
                                           {"b", 4, 1e9},
                                           {"c", 1, 1e9},
                                           {"d", 8, 1e9}};
    const platform::Cluster cluster(std::move(procs), 2.0);
    for (std::uint32_t b = 0; b < 4; ++b) q.setProcessor(b, b);
    const quotient::Timeline timeline =
        quotient::computeTimeline(q, cluster);
    EXPECT_NEAR(timeline.makespan, *quotient::makespanValue(q, cluster),
                1e-9)
        << "seed " << seed;
  }
}

TEST(Timeline, EntriesRespectPrecedence) {
  const Dag g = test::randomLayeredDag(6, 4, 2, 3);
  const auto order = *graph::topologicalOrder(g);
  std::vector<std::uint32_t> blocks(g.numVertices());
  for (std::size_t i = 0; i < order.size(); ++i) {
    blocks[order[i]] = static_cast<std::uint32_t>(3 * i / order.size());
  }
  quotient::QuotientGraph q(g, blocks, 3);
  const platform::Cluster cluster(
      std::vector<platform::Processor>(3, {"p", 1.0, 1e9}), 1.0);
  for (std::uint32_t b = 0; b < 3; ++b) q.setProcessor(b, b);
  const quotient::Timeline timeline = quotient::computeTimeline(q, cluster);
  // start times are sorted and every block starts no earlier than any
  // parent's finish.
  std::map<quotient::BlockId, const quotient::TimelineEntry*> byBlock;
  for (const auto& entry : timeline.entries) byBlock[entry.block] = &entry;
  for (const auto& entry : timeline.entries) {
    for (const auto& [parent, cost] : q.in(entry.block)) {
      EXPECT_GE(entry.start + 1e-12, byBlock.at(parent)->finish);
    }
    EXPECT_GE(entry.finish, entry.start);
  }
}

TEST(Timeline, RenderContainsBarsAndMakespan) {
  Dag g;
  const VertexId a = g.addVertex(10, 1);
  const VertexId b = g.addVertex(10, 1);
  g.addEdge(a, b, 1);
  quotient::QuotientGraph q(g, {0, 1}, 2);
  const platform::Cluster cluster(
      std::vector<platform::Processor>(2, {"C2", 1.0, 100.0}), 1.0);
  q.setProcessor(0, 0);
  q.setProcessor(1, 1);
  const auto timeline = quotient::computeTimeline(q, cluster);
  const std::string text = quotient::timelineToString(timeline, cluster, 40);
  EXPECT_NE(text.find('#'), std::string::npos);
  EXPECT_NE(text.find("makespan"), std::string::npos);
  EXPECT_NE(text.find("C2"), std::string::npos);
}

// ------------------------------------------------------------- list scheduler

TEST(ListScheduler, RespectsPrecedenceAndProcessorExclusivity) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Dag g = test::randomLayeredDag(6, 5, 3, seed);
    const platform::Cluster cluster = platform::makeCluster(
        platform::Heterogeneity::kDefault, platform::ClusterSize::kSmall);
    const auto result = scheduler::heftSchedule(g, cluster);
    ASSERT_EQ(result.entries.size(), g.numVertices());
    // Precedence: child starts after parent finishes (+ communication).
    for (graph::EdgeId e = 0; e < g.numEdges(); ++e) {
      const auto& u = result.entries[g.edge(e).src];
      const auto& v = result.entries[g.edge(e).dst];
      const double comm =
          u.proc == v.proc ? 0.0 : g.edge(e).cost / cluster.bandwidth();
      EXPECT_GE(v.start + 1e-9, u.finish + comm) << "seed " << seed;
    }
    // Exclusivity: tasks on the same processor never overlap.
    for (VertexId a = 0; a < g.numVertices(); ++a) {
      for (VertexId b = a + 1; b < g.numVertices(); ++b) {
        if (result.entries[a].proc != result.entries[b].proc) continue;
        const bool disjoint =
            result.entries[a].finish <= result.entries[b].start + 1e-9 ||
            result.entries[b].finish <= result.entries[a].start + 1e-9;
        EXPECT_TRUE(disjoint) << "seed " << seed;
      }
    }
    EXPECT_GT(result.makespan, 0.0);
  }
}

TEST(ListScheduler, PrefersFastProcessors) {
  // A single chain should land entirely on the fastest machine.
  Dag g;
  VertexId prev = g.addVertex(10, 1);
  for (int i = 1; i < 8; ++i) {
    const VertexId cur = g.addVertex(10, 1);
    g.addEdge(prev, cur, 1);
    prev = cur;
  }
  std::vector<platform::Processor> procs{{"slow", 1, 100}, {"fast", 10, 100}};
  const platform::Cluster cluster(std::move(procs), 1.0);
  const auto result = scheduler::heftSchedule(g, cluster);
  for (const auto proc : result.procOfTask) EXPECT_EQ(proc, 1u);
  EXPECT_DOUBLE_EQ(result.makespan, 8.0);
  EXPECT_EQ(result.processorsUsed, 1u);
}

TEST(ListScheduler, MakespanOptimisticVsBlockModel) {
  // Task-granular HEFT (ignoring memory) should not be slower than the
  // block-granular heuristic on a parallel workflow.
  workflows::GenConfig gen;
  gen.numTasks = 150;
  const Dag g = workflows::generate(workflows::Family::kBlast, gen);
  platform::Cluster cluster = platform::makeCluster(
      platform::Heterogeneity::kDefault, platform::ClusterSize::kDefault);
  cluster.scaleMemoriesToFit(g.maxTaskMemoryRequirement());
  const auto heft = scheduler::heftSchedule(g, cluster);
  scheduler::DagHetPartConfig cfg;
  cfg.parallelSweep = false;
  const auto part = scheduler::dagHetPart(g, cluster, cfg);
  ASSERT_TRUE(part.feasible);
  EXPECT_LE(heft.makespan, part.makespan * 1.01);
}

TEST(ListScheduler, MemoryDiagnosisFlagsOverloads) {
  // Two memory-heavy independent tasks forced onto one tiny processor.
  Dag g;
  const VertexId a = g.addVertex(1, 60);
  const VertexId b = g.addVertex(1, 60);
  g.addEdge(a, b, 1);
  const platform::Cluster cluster(
      std::vector<platform::Processor>(1, {"tiny", 1.0, 50.0}), 1.0);
  const memory::MemDagOracle oracle(g);
  const auto diagnosis = scheduler::diagnoseMemory(
      g, cluster, oracle, {0, 0});
  EXPECT_EQ(diagnosis.processorsUsed, 1u);
  EXPECT_EQ(diagnosis.processorsOverCapacity, 1u);
  EXPECT_GT(diagnosis.worstOvershoot, 0.0);
  EXPECT_FALSE(diagnosis.feasible());
}

TEST(ListScheduler, MemoryDiagnosisAcceptsValidMappings) {
  const Dag g = test::randomLayeredDag(4, 3, 2, 2);
  const platform::Cluster cluster(
      std::vector<platform::Processor>(2, {"big", 1.0, 1e9}), 1.0);
  const memory::MemDagOracle oracle(g);
  std::vector<platform::ProcessorId> procOfTask(g.numVertices(), 0);
  const auto diagnosis =
      scheduler::diagnoseMemory(g, cluster, oracle, procOfTask);
  EXPECT_TRUE(diagnosis.feasible());
  EXPECT_EQ(diagnosis.processorsUsed, 1u);
}

// -------------------------------------------------------------------- export

TEST(Export, WritesOneRowPerOutcome) {
  std::vector<experiments::RunOutcome> outcomes(2);
  outcomes[0].instance = "BLAST-n100-s1";
  outcomes[0].family = "BLAST";
  outcomes[0].numTasks = 100;
  outcomes[0].partFeasible = outcomes[0].memFeasible = true;
  outcomes[0].partMakespan = 10.0;
  outcomes[0].memMakespan = 20.0;
  outcomes[1].instance = "SoyKB-n100-s1";
  outcomes[1].family = "SoyKB";
  outcomes[1].partFeasible = false;

  const std::string path = testing::TempDir() + "/dagpm_export.csv";
  ASSERT_TRUE(experiments::exportOutcomesCsv(
      path, experiments::OutcomeGroups{{"", outcomes}}));
  std::ifstream is(path);
  std::string line;
  std::getline(is, line);
  EXPECT_NE(line.find("instance"), std::string::npos);
  std::getline(is, line);
  EXPECT_NE(line.find("BLAST-n100-s1"), std::string::npos);
  EXPECT_NE(line.find("0.5"), std::string::npos);  // ratio
  std::getline(is, line);
  EXPECT_NE(line.find("SoyKB"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Export, MaybeExportRespectsEnv) {
  // DAGPM_CSV unset in tests: export is a no-op.
  const experiments::OutcomeGroups none = {{"", {}}};
  EXPECT_EQ(experiments::maybeExport(
                "x",
                [&](const std::string& path) {
                  return experiments::exportOutcomesCsv(path, none);
                },
                [&] { return experiments::outcomesToJson("x", none); })
                .csvPath,
            "");
}

}  // namespace
}  // namespace dagpm
