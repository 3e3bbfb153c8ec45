#include "memory/oracle.hpp"

#include <algorithm>

#include "graph/topology.hpp"
#include "memory/exact_dp.hpp"
#include "memory/greedy.hpp"
#include "memory/simulate.hpp"
#include "memory/sp_schedule.hpp"
#include "memory/spization.hpp"

namespace dagpm::memory {

using graph::VertexId;

namespace {

// The oracle must be a pure function of the vertex *set*: greedy tie-breaks
// and DFS orders depend on local ids, so the member list is canonicalized
// (sorted) before building the induced subgraph. Without this, two callers
// passing the same set in different orders could obtain different peaks and
// disagree about feasibility.
std::vector<VertexId> canonical(std::span<const VertexId> vertices) {
  std::vector<VertexId> sorted(vertices.begin(), vertices.end());
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

std::uint64_t blockKey(const std::vector<VertexId>& sorted) noexcept {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL ^ sorted.size();
  for (const VertexId v : sorted) {
    std::uint64_t z = h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    h = z ^ (z >> 31);
  }
  return h;
}

}  // namespace

std::size_t MemDagOracle::MemberSetHash::operator()(
    const std::vector<VertexId>& sorted) const {
  return static_cast<std::size_t>(blockKey(sorted));
}

MemDagOracle::MemDagOracle(const graph::Dag& g, OracleOptions options)
    : g_(g), options_(options) {}

TraversalResult MemDagOracle::evaluate(const graph::SubDag& sub) const {
  ++evals_;
  const std::size_t n = sub.dag.numVertices();
  TraversalResult best;
  best.peak = std::numeric_limits<double>::infinity();

  if (n <= options_.exactThreshold) {
    if (const auto exact = exactMinPeakOrder(sub)) {
      return TraversalResult{exact->peak, exact->order};
    }
  }

  auto consider = [&](std::vector<VertexId> order) {
    const SimResult sim = simulateBlockOrder(sub, order);
    if (sim.peak < best.peak) {
      best.peak = sim.peak;
      best.order = std::move(order);
    }
  };

  if (options_.useSpSchedule) {
    if (auto spOrder = spOptimalOrder(sub)) consider(std::move(*spOrder));
  }
  if (options_.useGreedy || best.order.empty()) {
    consider(greedyOrder(sub, GreedyRule::kMinFootprint));
    consider(greedyOrder(sub, GreedyRule::kMaxFreed));
    consider(graph::dfsTopologicalOrder(sub.dag, false));
    consider(graph::dfsTopologicalOrder(sub.dag, true));
  }
  if (options_.useSpization) {
    consider(layeredSpizationOrder(sub));
  }
  return best;
}

TraversalResult MemDagOracle::bestTraversal(
    std::span<const VertexId> blockVertices) const {
  std::vector<VertexId> sorted = canonical(blockVertices);
  graph::SubDag sub = graph::inducedSubgraph(g_, sorted);
  TraversalResult local = evaluate(sub);
  memo_.insert_or_assign(std::move(sorted), local.peak);
  // Translate local ids back to the workflow's vertex ids.
  TraversalResult result;
  result.peak = local.peak;
  result.order.reserve(local.order.size());
  for (const VertexId v : local.order) {
    result.order.push_back(sub.toOriginal[v]);
  }
  return result;
}

double MemDagOracle::blockRequirement(
    std::span<const VertexId> blockVertices) const {
  if (blockVertices.empty()) return 0.0;
  if (blockVertices.size() == 1) {
    return g_.taskMemoryRequirement(blockVertices.front());
  }
  std::vector<VertexId> sorted = canonical(blockVertices);
  if (const auto it = memo_.find(sorted); it != memo_.end()) return it->second;
  const graph::SubDag sub = graph::inducedSubgraph(g_, sorted);
  const double peak = evaluate(sub).peak;
  memo_.emplace(std::move(sorted), peak);
  return peak;
}

}  // namespace dagpm::memory
