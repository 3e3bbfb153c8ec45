#pragma once
// Seeded workload inputs. Each workload's workflows are generated from the
// run seed and serialized to workflow documents before anything is timed;
// the program under test only ever sees the parsed documents.

#include <cstdint>
#include <string>
#include <vector>

#include "graph/dag.hpp"
#include "platform/cluster.hpp"
#include "scheduler/solution.hpp"

namespace perfbench {

/// A generated workflow document (native JSON dialect).
struct Document {
  std::string name;
  std::string json;
};

/// A parsed workflow with the cluster it is scheduled on.
struct Instance {
  std::string name;
  dagpm::graph::Dag dag;
  dagpm::platform::Cluster cluster;
};

enum class ClusterKind {
  kPaper,   // default 36-processor cluster, memories scaled per Sec. 5.1.2
  kLadder,  // 72 processors, memories grown to cover the whole workflow
};

/// paper_merge: the seven families at 200 and 300 tasks plus the five
/// real-world workflows, each drawn with kPaperSeedsPerRun instance seeds.
inline constexpr int kPaperSeedsPerRun = 6;
std::vector<Document> paperMergeDocuments(std::uint64_t seed);

/// The unit-rescale set: fixed instances (generator seed 1, independent of
/// the run seed) that include every instance failing the check today.
std::vector<Document> unitRescaleDocuments();

/// ladder_swap: Montage, Epigenomics and BWA at kLadderTasks tasks, each
/// drawn with kLadderSeedsPerRun instance seeds.
inline constexpr int kLadderTasks = 10000;
inline constexpr int kLadderSeedsPerRun = 6;
std::vector<Document> ladderSwapDocuments(std::uint64_t seed);

/// Parses one document; throws std::runtime_error on a parse failure.
dagpm::graph::Dag parseDocument(const Document& doc);

/// Builds the cluster an instance is scheduled on.
dagpm::platform::Cluster buildCluster(const dagpm::graph::Dag& g, ClusterKind kind);

/// Parses every document and builds its cluster.
std::vector<Instance> parseInstances(const std::vector<Document>& docs,
                                     ClusterKind kind);

/// True when two schedules are bit-identical (feasibility, makespan,
/// blockOf and procOfBlock).
bool sameSchedule(const dagpm::scheduler::ScheduleResult& a,
                  const dagpm::scheduler::ScheduleResult& b);

}  // namespace perfbench
