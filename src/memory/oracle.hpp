#pragma once
// MemDagOracle: the library's stand-in for the memDag algorithm of
// Kayaaslan et al. [18], which the paper uses both (a) to compute the memory
// requirement r_V of a block (the minimum traversal peak) and (b) to obtain
// the memory-efficient traversal that drives the DagHetMem baseline.
//
// Strategy per block (DESIGN.md substitution #2):
//   * <= exactThreshold tasks: exact subset DP (provably optimal);
//   * two-terminal series-parallel blocks: SP-tree schedule with Liu merges
//     (optimal for SP structure, validated against the DP in tests);
//   * otherwise: portfolio of greedy min-peak traversals and DFS orders,
//     keeping the best simulated peak.
// The returned peak is always the simulated peak of a concrete valid
// traversal, so feasibility checks are self-consistent with the model.

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "graph/dag.hpp"
#include "graph/subgraph.hpp"

namespace dagpm::memory {

struct TraversalResult {
  double peak = 0.0;
  std::vector<graph::VertexId> order;  // original vertex ids
};

struct OracleOptions {
  std::size_t exactThreshold = 12;  // exact DP below this block size
  bool useSpSchedule = true;   // TTSP recognition + Liu merges
  bool useGreedy = true;       // greedy + DFS traversal portfolio
  bool useSpization = true;    // layer-barrier SP-ization order
};

class MemDagOracle {
 public:
  explicit MemDagOracle(const graph::Dag& g, OracleOptions options = {});

  /// Best traversal found for the block (original vertex ids, no duplicates).
  [[nodiscard]] TraversalResult bestTraversal(
      std::span<const graph::VertexId> blockVertices) const;

  /// Memory requirement r_V = peak of bestTraversal; memoized per member
  /// set.
  [[nodiscard]] double blockRequirement(
      std::span<const graph::VertexId> blockVertices) const;

  [[nodiscard]] const graph::Dag& workflow() const noexcept { return g_; }

  /// Number of oracle invocations that missed the memo (profiling aid).
  [[nodiscard]] std::size_t evaluations() const noexcept { return evals_; }

 private:
  // Not noexcept on purpose: libstdc++ then stores each node's hash, so a
  // lookup or rehash never re-hashes the member sets already stored.
  struct MemberSetHash {
    std::size_t operator()(const std::vector<graph::VertexId>& sorted) const;
  };

  [[nodiscard]] TraversalResult evaluate(const graph::SubDag& sub) const;

  const graph::Dag& g_;
  OracleOptions options_;
  // Keyed by the sorted member set itself, so a hit always compares the
  // members and two sets sharing a hash never share a peak.
  mutable std::unordered_map<std::vector<graph::VertexId>, double,
                             MemberSetHash>
      memo_;
  mutable std::size_t evals_ = 0;
};

}  // namespace dagpm::memory
