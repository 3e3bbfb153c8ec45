#include "checker.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <sstream>
#include <utility>

#include "common.hpp"
#include "memory/oracle.hpp"
#include "platform/cluster.hpp"
#include "scheduler/daghetpart.hpp"
#include "workflows/families.hpp"
#include "workflows/json_io.hpp"

namespace perfbench {

using dagpm::graph::Dag;
using dagpm::graph::EdgeId;
using dagpm::graph::VertexId;
using dagpm::platform::Cluster;
using dagpm::platform::ProcessorId;
using dagpm::scheduler::ScheduleResult;

namespace {

constexpr double kRelTol = 1e-9;

/// Quotient of a schedule: block works and summed inter-block edge costs.
struct Quotient {
  std::vector<double> work;
  std::vector<std::vector<std::pair<std::uint32_t, double>>> out;  // (dst, c)
  std::vector<std::uint32_t> indegree;
};

Quotient buildQuotient(const Dag& g, const std::vector<std::uint32_t>& blockOf,
                       std::uint32_t numBlocks) {
  Quotient q;
  q.work.assign(numBlocks, 0.0);
  q.out.resize(numBlocks);
  q.indegree.assign(numBlocks, 0);
  for (VertexId v = 0; v < g.numVertices(); ++v) q.work[blockOf[v]] += g.work(v);
  std::vector<std::tuple<std::uint32_t, std::uint32_t, double>> cross;
  for (EdgeId e = 0; e < g.numEdges(); ++e) {
    const auto& edge = g.edge(e);
    const std::uint32_t a = blockOf[edge.src];
    const std::uint32_t b = blockOf[edge.dst];
    if (a != b) cross.emplace_back(a, b, edge.cost);
  }
  std::stable_sort(cross.begin(), cross.end(), [](const auto& x, const auto& y) {
    return std::pair(std::get<0>(x), std::get<1>(x)) <
           std::pair(std::get<0>(y), std::get<1>(y));
  });
  for (const auto& [a, b, c] : cross) {
    auto& list = q.out[a];
    if (!list.empty() && list.back().first == b) {
      list.back().second += c;
    } else {
      list.emplace_back(b, c);
      ++q.indegree[b];
    }
  }
  return q;
}

/// Kahn order of the quotient; nullopt when it has a cycle.
std::optional<std::vector<std::uint32_t>> kahn(const Quotient& q) {
  std::vector<std::uint32_t> indeg = q.indegree;
  std::vector<std::uint32_t> order;
  order.reserve(indeg.size());
  for (std::uint32_t b = 0; b < indeg.size(); ++b) {
    if (indeg[b] == 0) order.push_back(b);
  }
  for (std::size_t head = 0; head < order.size(); ++head) {
    for (const auto& [dst, cost] : q.out[order[head]]) {
      if (--indeg[dst] == 0) order.push_back(dst);
    }
  }
  if (order.size() != indeg.size()) return std::nullopt;
  return order;
}

/// Eq. (1)-(2) as a forward pass: a block starts when every predecessor
/// block finished and its summed transfer (c / beta) arrived; it runs for
/// its summed work over its processor's speed.
double forwardMakespan(const Quotient& q, const std::vector<std::uint32_t>& order,
                       const std::vector<ProcessorId>& procOfBlock,
                       const Cluster& cluster) {
  std::vector<double> start(q.work.size(), 0.0);
  double makespan = 0.0;
  for (const std::uint32_t b : order) {
    const double finish = start[b] + q.work[b] / cluster.speed(procOfBlock[b]);
    makespan = std::max(makespan, finish);
    for (const auto& [dst, cost] : q.out[b]) {
      start[dst] = std::max(start[dst], finish + cost / cluster.bandwidth());
    }
  }
  return makespan;
}

/// The traversal memory model: while task u runs, memory holds the files
/// resident so far, m_u, every output u writes and every input u reads from
/// outside the block; afterwards u's outputs stay resident and its in-block
/// inputs are freed. Returns the peak over the order.
double traversalPeak(const Dag& g, const std::vector<char>& inBlock,
                     const std::vector<VertexId>& order) {
  double resident = 0.0;
  double peak = 0.0;
  for (const VertexId u : order) {
    double out = 0.0;
    for (const EdgeId e : g.outEdges(u)) out += g.edge(e).cost;
    double inside = 0.0;
    double outside = 0.0;
    for (const EdgeId e : g.inEdges(u)) {
      (inBlock[g.edge(e).src] ? inside : outside) += g.edge(e).cost;
    }
    peak = std::max(peak, resident + g.memory(u) + out + outside);
    resident += out - inside;
  }
  return peak;
}

struct BlockPeaks {
  std::vector<double> peak;
  std::string error;  // non-empty: an oracle order was not valid
  double seconds = 0.0;
};

/// Prices every block on its traversal order after checking that the order
/// is a topological order of exactly the block. Without `globalOrder` the
/// order is a fresh oracle's bestTraversal of the block, whose reported peak
/// must match the benchmark's own model; with it, the block's order is the
/// global order restricted to the block.
BlockPeaks blockPeaks(const Dag& g, const std::vector<std::uint32_t>& blockOf,
                      std::uint32_t numBlocks,
                      const std::vector<VertexId>* globalOrder) {
  BlockPeaks out;
  out.peak.assign(numBlocks, 0.0);
  std::vector<std::vector<VertexId>> members(numBlocks);
  for (VertexId v = 0; v < g.numVertices(); ++v) members[blockOf[v]].push_back(v);
  std::vector<std::vector<VertexId>> segments(globalOrder ? numBlocks : 0);
  if (globalOrder) {
    for (const VertexId v : *globalOrder) {
      if (v < g.numVertices()) segments[blockOf[v]].push_back(v);
    }
  }
  const dagpm::memory::MemDagOracle oracle(g);
  std::vector<char> inBlock(g.numVertices(), 0);
  std::vector<char> done(g.numVertices(), 0);
  for (std::uint32_t b = 0; b < numBlocks; ++b) {
    dagpm::memory::TraversalResult traversal;
    if (globalOrder) {
      traversal.order = segments[b];
    } else {
      const Stopwatch watch;
      traversal = oracle.bestTraversal(members[b]);
      out.seconds += watch.seconds();
    }
    for (const VertexId v : members[b]) inBlock[v] = 1;
    bool valid = traversal.order.size() == members[b].size();
    for (const VertexId u : traversal.order) {
      if (!valid) break;
      if (u >= g.numVertices() || !inBlock[u] || done[u]) {
        valid = false;
        break;
      }
      for (const EdgeId e : g.inEdges(u)) {
        const VertexId p = g.edge(e).src;
        if (inBlock[p] && !done[p]) valid = false;
      }
      done[u] = 1;
    }
    if (valid) out.peak[b] = traversalPeak(g, inBlock, traversal.order);
    for (const VertexId v : members[b]) inBlock[v] = done[v] = 0;
    if (!valid) {
      out.error = "traversal order of block " + std::to_string(b) +
                  " is not a topological order of the block";
      return out;
    }
    if (!globalOrder && std::abs(out.peak[b] - traversal.peak) >
                            kRelTol * std::max(1.0, out.peak[b])) {
      std::ostringstream oss;
      oss.precision(17);
      oss << "block " << b << ": own memory model gives peak " << out.peak[b]
          << ", oracle reports " << traversal.peak;
      out.error = oss.str();
      return out;
    }
  }
  return out;
}

double heaviestWorkPath(const Dag& g) {
  // Vertex ids are not guaranteed topological; Kahn over the workflow.
  std::vector<std::size_t> indeg(g.numVertices());
  std::vector<VertexId> ready;
  for (VertexId v = 0; v < g.numVertices(); ++v) {
    indeg[v] = g.inDegree(v);
    if (indeg[v] == 0) ready.push_back(v);
  }
  std::vector<double> path(g.numVertices(), 0.0);
  double best = 0.0;
  for (std::size_t head = 0; head < ready.size(); ++head) {
    const VertexId u = ready[head];
    path[u] += g.work(u);
    best = std::max(best, path[u]);
    for (const EdgeId e : g.outEdges(u)) {
      const VertexId v = g.edge(e).dst;
      path[v] = std::max(path[v], path[u]);
      if (--indeg[v] == 0) ready.push_back(v);
    }
  }
  return best;
}

CheckResult verdict(Verdict v, std::string detail) {
  CheckResult r;
  r.verdict = v;
  r.detail = std::move(detail);
  return r;
}

std::string num(double x) {
  std::ostringstream oss;
  oss.precision(17);
  oss << x;
  return oss.str();
}

}  // namespace

const char* verdictName(Verdict v) {
  switch (v) {
    case Verdict::kOk: return "ok";
    case Verdict::kCoverage: return "coverage";
    case Verdict::kProcessors: return "processors";
    case Verdict::kCyclic: return "cyclic quotient";
    case Verdict::kMakespan: return "makespan";
    case Verdict::kTraversal: return "traversal";
    case Verdict::kMemory: return "memory";
    case Verdict::kLowerBound: return "lower bound";
  }
  return "?";
}

CheckResult checkSchedule(const Dag& g, const Cluster& cluster,
                          const ScheduleResult& s,
                          const std::vector<VertexId>* globalOrder) {
  const std::uint32_t numBlocks = s.numBlocks();
  if (s.blockOf.size() != g.numVertices()) {
    return verdict(Verdict::kCoverage, "blockOf does not cover every task");
  }
  if (numBlocks == 0 || numBlocks > cluster.numProcessors()) {
    return verdict(Verdict::kCoverage,
                   "block count " + std::to_string(numBlocks) + " for " +
                       std::to_string(cluster.numProcessors()) + " processors");
  }
  std::vector<std::size_t> size(numBlocks, 0);
  for (const std::uint32_t b : s.blockOf) {
    if (b >= numBlocks) return verdict(Verdict::kCoverage, "block id out of range");
    ++size[b];
  }
  for (std::uint32_t b = 0; b < numBlocks; ++b) {
    if (size[b] == 0) {
      return verdict(Verdict::kCoverage, "block " + std::to_string(b) + " is empty");
    }
  }
  std::vector<char> used(cluster.numProcessors(), 0);
  for (const ProcessorId p : s.procOfBlock) {
    if (p >= cluster.numProcessors() || used[p]) {
      return verdict(Verdict::kProcessors,
                     "processor " + std::to_string(p) + " invalid or reused");
    }
    used[p] = 1;
  }

  const Quotient q = buildQuotient(g, s.blockOf, numBlocks);
  const auto order = kahn(q);
  if (!order) return verdict(Verdict::kCyclic, "quotient has a cycle");

  const double makespan = forwardMakespan(q, *order, s.procOfBlock, cluster);
  if (std::abs(makespan - s.makespan) > kRelTol * std::max(1.0, makespan)) {
    return verdict(Verdict::kMakespan, "reported " + num(s.makespan) +
                                           ", forward pass " + num(makespan));
  }

  const BlockPeaks peaks = blockPeaks(g, s.blockOf, numBlocks, globalOrder);
  CheckResult result;
  result.traversalSeconds = peaks.seconds;
  if (!peaks.error.empty()) {
    result.verdict = Verdict::kTraversal;
    result.detail = peaks.error;
    return result;
  }
  for (std::uint32_t b = 0; b < numBlocks; ++b) {
    const double capacity = cluster.memory(s.procOfBlock[b]);
    if (peaks.peak[b] > capacity * (1.0 + kRelTol)) {
      result.verdict = Verdict::kMemory;
      result.detail = "block " + std::to_string(b) + " peak " +
                      num(peaks.peak[b]) + " > memory " + num(capacity);
      return result;
    }
  }

  double totalWork = 0.0;
  for (VertexId v = 0; v < g.numVertices(); ++v) totalWork += g.work(v);
  double speedSum = 0.0;
  double fastest = 0.0;
  for (ProcessorId p = 0; p < cluster.numProcessors(); ++p) {
    speedSum += cluster.speed(p);
    fastest = std::max(fastest, cluster.speed(p));
  }
  const double bound =
      std::max(heaviestWorkPath(g) / fastest, totalWork / speedSum);
  if (s.makespan < bound * (1.0 - kRelTol)) {
    result.verdict = Verdict::kLowerBound;
    result.detail = "makespan " + num(s.makespan) + " < lower bound " + num(bound);
  }
  return result;
}

std::vector<VertexId> dagHetMemOrder(const Dag& g) {
  std::vector<VertexId> all(g.numVertices());
  for (VertexId v = 0; v < g.numVertices(); ++v) all[v] = v;
  return dagpm::memory::MemDagOracle(g).bestTraversal(all).order;
}

namespace {

/// The paper-setting instance the processor-swap corruption falls back to
/// when every workload schedule fits on any of its processors.
struct FallbackCase {
  Dag g;
  Cluster cluster;
  ScheduleResult schedule;
};

FallbackCase makeFallback() {
  dagpm::workflows::GenConfig cfg;
  cfg.numTasks = 300;
  cfg.seed = 1;
  FallbackCase f;
  f.g = *dagpm::workflows::workflowFromJson(dagpm::workflows::workflowToJson(
      dagpm::workflows::generate(dagpm::workflows::Family::kEpigenomics, cfg)));
  f.cluster = dagpm::platform::makeCluster(dagpm::platform::Heterogeneity::kDefault,
                                           dagpm::platform::ClusterSize::kDefault);
  f.cluster.scaleMemoriesToFit(f.g.maxTaskMemoryRequirement());
  f.schedule = dagpm::scheduler::dagHetPart(f.g, f.cluster);
  return f;
}

/// Swaps the processors of the block with the largest peak and the block on
/// the smallest-memory processor, when that overflows; the makespan is
/// re-priced by the forward pass so only the memory check can object.
std::optional<ScheduleResult> overflowingSwap(const SelfTestCase& c) {
  const ScheduleResult& s = *c.schedule;
  const std::uint32_t n = s.numBlocks();
  if (n < 2) return std::nullopt;
  const BlockPeaks peaks = blockPeaks(*c.g, s.blockOf, n, nullptr);
  if (!peaks.error.empty()) return std::nullopt;
  std::uint32_t big = 0;
  std::uint32_t small = 0;
  for (std::uint32_t b = 1; b < n; ++b) {
    if (peaks.peak[b] > peaks.peak[big]) big = b;
    if (c.cluster->memory(s.procOfBlock[b]) <
        c.cluster->memory(s.procOfBlock[small])) {
      small = b;
    }
  }
  if (big == small ||
      peaks.peak[big] <= c.cluster->memory(s.procOfBlock[small]) * (1.0 + kRelTol)) {
    return std::nullopt;
  }
  ScheduleResult bad = s;
  std::swap(bad.procOfBlock[big], bad.procOfBlock[small]);
  const Quotient q = buildQuotient(*c.g, bad.blockOf, n);
  bad.makespan = forwardMakespan(q, *kahn(q), bad.procOfBlock, *c.cluster);
  return bad;
}

/// Moves a successor x of a cross-block edge u -> v into u's block, which
/// closes the cycle A -> B -> A (x must leave a non-empty block behind).
std::optional<ScheduleResult> cyclicMove(const SelfTestCase& c) {
  const Dag& g = *c.g;
  const ScheduleResult& s = *c.schedule;
  std::vector<std::size_t> size(s.numBlocks(), 0);
  for (const std::uint32_t b : s.blockOf) ++size[b];
  for (EdgeId e = 0; e < g.numEdges(); ++e) {
    const std::uint32_t a = s.blockOf[g.edge(e).src];
    const VertexId v = g.edge(e).dst;
    if (a == s.blockOf[v]) continue;
    for (const EdgeId f : g.outEdges(v)) {
      const VertexId x = g.edge(f).dst;
      if (s.blockOf[x] != a && size[s.blockOf[x]] > 1) {
        ScheduleResult bad = s;
        bad.blockOf[x] = a;
        return bad;
      }
    }
  }
  return std::nullopt;
}

}  // namespace

std::vector<std::string> checkerSelfTest(const std::vector<SelfTestCase>& cases) {
  std::vector<std::string> failures;
  const auto expect = [&](const char* what, const SelfTestCase& c,
                          const ScheduleResult& bad, Verdict want) {
    const CheckResult r = checkSchedule(*c.g, *c.cluster, bad);
    if (r.verdict != want) {
      failures.push_back(std::string("checker self-test (") + what +
                         "): expected verdict '" + verdictName(want) +
                         "', got '" + verdictName(r.verdict) + "' " + r.detail);
    }
  };

  bool makespanDone = false;
  bool cycleDone = false;
  bool swapDone = false;
  for (const SelfTestCase& c : cases) {
    if (!c.schedule->feasible) continue;
    if (!makespanDone) {
      ScheduleResult bad = *c.schedule;
      bad.makespan *= 1.0 + 1e-6;
      expect("perturbed makespan", c, bad, Verdict::kMakespan);
      makespanDone = true;
    }
    if (!cycleDone) {
      if (const auto bad = cyclicMove(c)) {
        expect("cyclic quotient", c, *bad, Verdict::kCyclic);
        cycleDone = true;
      }
    }
    if (!swapDone) {
      if (const auto bad = overflowingSwap(c)) {
        expect("processor swap overflow", c, *bad, Verdict::kMemory);
        swapDone = true;
      }
    }
    if (makespanDone && cycleDone && swapDone) break;
  }
  if (!swapDone || !cycleDone || !makespanDone) {
    const FallbackCase f = makeFallback();
    const SelfTestCase c{&f.g, &f.cluster, &f.schedule};
    const auto swapped = overflowingSwap(c);
    const auto cyclic = cyclicMove(c);
    if (!makespanDone) {
      ScheduleResult bad = f.schedule;
      bad.makespan *= 1.0 + 1e-6;
      expect("perturbed makespan", c, bad, Verdict::kMakespan);
    }
    if (!cycleDone) {
      if (cyclic) {
        expect("cyclic quotient", c, *cyclic, Verdict::kCyclic);
      } else {
        failures.push_back("checker self-test: no cyclic corruption possible");
      }
    }
    if (!swapDone) {
      if (swapped) {
        expect("processor swap overflow", c, *swapped, Verdict::kMemory);
      } else {
        failures.push_back("checker self-test: no overflowing swap possible");
      }
    }
  }
  return failures;
}

}  // namespace perfbench
