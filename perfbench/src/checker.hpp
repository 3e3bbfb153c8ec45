#pragma once
// Schedule checker computed apart from the solver.
//
// Nothing here calls the library's validation or makespan code: coverage,
// processor distinctness, quotient acyclicity (own Kahn pass), the Eq. (1)-(2)
// forward-pass makespan, the traversal memory model and the two makespan
// lower bounds are re-implemented from the paper's definitions. The only
// library call is MemDagOracle::bestTraversal, whose order is itself checked
// (a topological order of exactly the block) before the benchmark's own
// memory model prices it.

#include <string>
#include <vector>

#include "graph/dag.hpp"
#include "platform/cluster.hpp"
#include "scheduler/solution.hpp"

namespace perfbench {

enum class Verdict {
  kOk,
  kCoverage,     // a task without a block, an empty block, too many blocks
  kProcessors,   // processor id out of range or used twice
  kCyclic,       // the quotient graph has a cycle
  kMakespan,     // reported makespan differs from the forward pass
  kTraversal,    // oracle order is not a topological order of the block
  kMemory,       // a block's peak exceeds its processor's memory
  kLowerBound,   // makespan below a lower bound
};

const char* verdictName(Verdict v);

struct CheckResult {
  Verdict verdict = Verdict::kOk;
  std::string detail;
  /// Wall time of the fresh MemDagOracle::bestTraversal calls.
  double traversalSeconds = 0.0;
  [[nodiscard]] bool ok() const noexcept { return verdict == Verdict::kOk; }
};

/// Checks a feasible schedule (callers skip infeasible results). Block
/// memory is priced on each block's own MemDagOracle::bestTraversal, or,
/// with `globalOrder`, on that whole-workflow order restricted to the block
/// (how DagHetMem cuts its blocks; see dagHetMemOrder).
CheckResult checkSchedule(
    const dagpm::graph::Dag& g, const dagpm::platform::Cluster& cluster,
    const dagpm::scheduler::ScheduleResult& schedule,
    const std::vector<dagpm::graph::VertexId>* globalOrder = nullptr);

/// The whole-workflow MemDagOracle::bestTraversal order DagHetMem streams
/// into its blocks.
std::vector<dagpm::graph::VertexId> dagHetMemOrder(const dagpm::graph::Dag& g);

/// One schedule the self-test may corrupt.
struct SelfTestCase {
  const dagpm::graph::Dag* g = nullptr;
  const dagpm::platform::Cluster* cluster = nullptr;
  const dagpm::scheduler::ScheduleResult* schedule = nullptr;
};

/// Shows that the checker rejects three corrupted schedules: a perturbed
/// makespan, two blocks whose processors are swapped so that one overflows,
/// and a cyclic quotient. Each corruption uses the first case that admits
/// it; when no workload case admits the processor swap (roomy clusters), a
/// fixed paper-setting instance is used. Returns one message per
/// corruption that was not rejected with the expected verdict.
std::vector<std::string> checkerSelfTest(const std::vector<SelfTestCase>& cases);

}  // namespace perfbench
