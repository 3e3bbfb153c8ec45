#include "scheduler/swap_step.hpp"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <limits>
#include <set>
#include <vector>

#include "obs/obs.hpp"
#include "quotient/incremental.hpp"

namespace dagpm::scheduler {

using platform::ProcessorId;
using quotient::BlockId;

namespace {

/// The equal-speed prune is only sound when the cost model provably ignores
/// placement (the makespan then depends on speeds alone): under a per-link
/// model an equal-speed swap still reroutes transfers and can change the
/// contended makespan, so such models must be probed.
bool canPruneEqualSpeed(const comm::CommCostModel* comm) {
  return comm == nullptr || comm->placementInvariant();
}

/// The critical-path prune is sound when a swap that touches no block of the
/// exact critical path leaves every path duration and edge cost as it was:
/// floating-point + and max are monotone, so each path block's bottom weight
/// (finish time) can only stay or grow and the probe cannot beat the current
/// makespan. That needs an uncontended model on top of placement invariance:
/// under fair sharing an off-path swap changes which transfers overlap and
/// can shorten the path's own transfers.
bool canPruneOffPath(const comm::CommCostModel* comm) {
  return comm == nullptr || (!comm->contended() && comm->placementInvariant());
}

/// Step 4's acceptance rule: `candidate` must beat `incumbent` by a relative
/// margin. Scaling every time value by a power of two scales both sides
/// exactly, so the decision does not depend on the unit of time.
bool improves(double candidate, double incumbent) {
  return candidate < incumbent * (1.0 - 1e-12);
}

/// The legacy full-recompute loop, which probes every feasible pair: the
/// differential reference for the pruned incremental path
/// (SchedulerOptions::fullReevaluation routes here).
SwapStepResult improveBySwapsFull(quotient::QuotientGraph& q,
                                  const platform::Cluster& cluster,
                                  const SwapStepConfig& cfg) {
  SwapStepResult result;
  // Null model keeps the legacy uncontended recurrence byte-for-byte.
  const auto evalMakespan = [&]() {
    return quotient::makespanValue(q, cluster, cfg.comm);
  };
  const auto current = evalMakespan();
  assert(current.has_value() && "swap step requires an acyclic quotient");
  result.makespan = *current;

  const std::vector<BlockId> nodes = q.aliveNodes();
  const bool pruneEqualSpeed = canPruneEqualSpeed(cfg.comm);

  if (cfg.enableSwaps) {
    // Algorithm 5: repeatedly execute the best improving feasible swap.
    for (std::uint32_t round = 0; round < cfg.maxSwapRounds; ++round) {
      double bestMakespan = result.makespan;
      BlockId bestA = quotient::kNoBlock;
      BlockId bestB = quotient::kNoBlock;
      for (std::size_t i = 0; i < nodes.size(); ++i) {
        for (std::size_t j = i + 1; j < nodes.size(); ++j) {
          const BlockId a = nodes[i];
          const BlockId b = nodes[j];
          const ProcessorId pa = q.node(a).proc;
          const ProcessorId pb = q.node(b).proc;
          if (pa == pb) continue;
          if (pruneEqualSpeed && cluster.speed(pa) == cluster.speed(pb)) {
            continue;  // no effect under a placement-invariant model
          }
          // Feasible iff each block fits the other's processor memory.
          if (q.node(a).memReq > cluster.memory(pb) ||
              q.node(b).memReq > cluster.memory(pa)) {
            continue;
          }
          q.setProcessor(a, pb);
          q.setProcessor(b, pa);
          const auto makespan = evalMakespan();
          q.setProcessor(a, pa);
          q.setProcessor(b, pb);
          if (makespan && improves(*makespan, bestMakespan)) {
            bestMakespan = *makespan;
            bestA = a;
            bestB = b;
          }
        }
      }
      if (bestA == quotient::kNoBlock) break;  // no improving swap exists
      const ProcessorId pa = q.node(bestA).proc;
      const ProcessorId pb = q.node(bestB).proc;
      q.setProcessor(bestA, pb);
      q.setProcessor(bestB, pa);
      result.makespan = bestMakespan;
      ++result.swapsCommitted;
    }
  }

  if (cfg.enableIdleMoves) {
    // Idle processors exist in particular when the partitioner produced
    // fewer blocks than processors; move critical-path blocks to faster
    // idle processors while that improves the makespan.
    std::set<ProcessorId> idle;
    for (ProcessorId p = 0; p < cluster.numProcessors(); ++p) idle.insert(p);
    for (const BlockId b : nodes) idle.erase(q.node(b).proc);

    std::set<BlockId> moved;
    bool progress = true;
    while (progress && !idle.empty()) {
      progress = false;
      const quotient::MakespanResult ms =
          computeMakespan(q, cluster, cfg.comm);
      for (const BlockId b : ms.criticalPath) {
        if (moved.count(b) > 0) continue;
        const ProcessorId from = q.node(b).proc;
        // Fastest idle processor that holds the block and beats the current
        // speed; ties resolved toward larger memory, then lower id.
        ProcessorId best = platform::kNoProcessor;
        for (const ProcessorId p : idle) {
          if (cluster.speed(p) <= cluster.speed(from)) continue;
          if (q.node(b).memReq > cluster.memory(p)) continue;
          if (best == platform::kNoProcessor ||
              cluster.speed(p) > cluster.speed(best) ||
              (cluster.speed(p) == cluster.speed(best) &&
               cluster.memory(p) > cluster.memory(best))) {
            best = p;
          }
        }
        if (best == platform::kNoProcessor) continue;
        q.setProcessor(b, best);
        const auto makespan = evalMakespan();
        if (makespan && improves(*makespan, result.makespan)) {
          idle.erase(best);
          idle.insert(from);
          moved.insert(b);
          result.makespan = *makespan;
          ++result.idleMovesCommitted;
          progress = true;
          break;  // critical path changed; recompute it
        }
        q.setProcessor(b, from);
      }
    }
  }
  return result;
}

}  // namespace

SwapStepResult improveBySwaps(quotient::QuotientGraph& q,
                              const platform::Cluster& cluster,
                              const SwapStepConfig& cfg) {
  if (cfg.fullReevaluation) return improveBySwapsFull(q, cluster, cfg);

  SwapStepResult result;
  quotient::IncrementalEvaluator eval(q, cluster, cfg.comm);
  result.makespan = eval.makespan();

  const std::vector<BlockId> nodes = q.aliveNodes();
  const bool pruneEqualSpeed = canPruneEqualSpeed(cfg.comm);
  const bool pruneOffPath = canPruneOffPath(cfg.comm);

  if (cfg.enableSwaps) {
    // Algorithm 5 with materialized probes: each round evaluates every
    // feasible pair with an endpoint on the committed critical path (in
    // parallel — probes only write per-thread scratch), then replays the
    // sequential acceptance rule over the stored makespans. A pruned pair
    // cannot beat the current makespan (see canPruneOffPath), so the
    // committed swap sequence stays bit-identical to the legacy loop's for
    // any OpenMP thread count.
    struct PairCandidate {
      std::uint32_t i = 0, j = 0;
    };
    std::vector<PairCandidate> pairs;
    std::vector<double> makespans;
    std::vector<char> onPath(q.numSlots(), 0);
    for (std::uint32_t round = 0; round < cfg.maxSwapRounds; ++round) {
      pairs.clear();
      if (pruneOffPath) {
        std::fill(onPath.begin(), onPath.end(), 0);
        for (const BlockId b : eval.criticalPath()) onPath[b] = 1;
      }
      for (std::uint32_t i = 0; i < nodes.size(); ++i) {
        for (std::uint32_t j = i + 1; j < nodes.size(); ++j) {
          const BlockId a = nodes[i];
          const BlockId b = nodes[j];
          if (pruneOffPath && onPath[a] == 0 && onPath[b] == 0) continue;
          const ProcessorId pa = q.node(a).proc;
          const ProcessorId pb = q.node(b).proc;
          if (pa == pb) continue;
          if (pruneEqualSpeed && cluster.speed(pa) == cluster.speed(pb)) {
            continue;  // no effect under a placement-invariant model
          }
          // Feasible iff each block fits the other's processor memory.
          if (q.node(a).memReq > cluster.memory(pb) ||
              q.node(b).memReq > cluster.memory(pa)) {
            continue;
          }
          pairs.push_back({i, j});
        }
      }
      const obs::Span roundSpan(
          "swap.scan_round", "round=" + std::to_string(round) +
                                 " pairs=" + std::to_string(pairs.size()));
      obs::add(obs::Counter::kSwapRounds);
      obs::add(obs::Counter::kSwapPairsProbed, pairs.size());
      makespans.assign(pairs.size(),
                       std::numeric_limits<double>::infinity());
      const std::int64_t numPairs = static_cast<std::int64_t>(pairs.size());
#pragma omp parallel if (numPairs > 1)
      {
        quotient::IncrementalEvaluator::Scratch scratch(eval);
#pragma omp for schedule(static)
        for (std::int64_t idx = 0; idx < numPairs; ++idx) {
          const BlockId a = nodes[pairs[static_cast<std::size_t>(idx)].i];
          const BlockId b = nodes[pairs[static_cast<std::size_t>(idx)].j];
          const quotient::ProcOverride overrides[2] = {
              {a, q.node(b).proc}, {b, q.node(a).proc}};
          makespans[static_cast<std::size_t>(idx)] =
              eval.probeAssign(scratch, overrides);
        }
      }
      double bestMakespan = result.makespan;
      BlockId bestA = quotient::kNoBlock;
      BlockId bestB = quotient::kNoBlock;
      for (std::size_t idx = 0; idx < pairs.size(); ++idx) {
        if (improves(makespans[idx], bestMakespan)) {
          bestMakespan = makespans[idx];
          bestA = nodes[pairs[idx].i];
          bestB = nodes[pairs[idx].j];
        }
      }
      if (bestA == quotient::kNoBlock) break;  // no improving swap exists
      const ProcessorId pa = q.node(bestA).proc;
      const ProcessorId pb = q.node(bestB).proc;
      q.setProcessor(bestA, pb);
      q.setProcessor(bestB, pa);
      const BlockId dirty[2] = {bestA, bestB};
      eval.commitAssign(dirty);
      assert(eval.makespan() == bestMakespan);
      result.makespan = bestMakespan;
      ++result.swapsCommitted;
      obs::add(obs::Counter::kSwapsCommitted);
    }
  }

  if (cfg.enableIdleMoves) {
    quotient::IncrementalEvaluator::Scratch scratch(eval);
    std::set<ProcessorId> idle;
    for (ProcessorId p = 0; p < cluster.numProcessors(); ++p) idle.insert(p);
    for (const BlockId b : nodes) idle.erase(q.node(b).proc);

    std::set<BlockId> moved;
    bool progress = true;
    while (progress && !idle.empty()) {
      progress = false;
      // The committed critical path, derived from the cached passes
      // (bit-identical to computeMakespan's, including tie-breaks). Taken
      // by value: a committed move below invalidates the evaluator's cache
      // while this loop is still live.
      const std::vector<BlockId> path = eval.criticalPath();
      for (const BlockId b : path) {
        if (moved.count(b) > 0) continue;
        const ProcessorId from = q.node(b).proc;
        ProcessorId best = platform::kNoProcessor;
        for (const ProcessorId p : idle) {
          if (cluster.speed(p) <= cluster.speed(from)) continue;
          if (q.node(b).memReq > cluster.memory(p)) continue;
          if (best == platform::kNoProcessor ||
              cluster.speed(p) > cluster.speed(best) ||
              (cluster.speed(p) == cluster.speed(best) &&
               cluster.memory(p) > cluster.memory(best))) {
            best = p;
          }
        }
        if (best == platform::kNoProcessor) continue;
        const quotient::ProcOverride overrides[1] = {{b, best}};
        const double makespan = eval.probeAssign(scratch, overrides);
        if (improves(makespan, result.makespan)) {
          q.setProcessor(b, best);
          const BlockId dirty[1] = {b};
          eval.commitAssign(dirty);
          idle.erase(best);
          idle.insert(from);
          moved.insert(b);
          result.makespan = makespan;
          ++result.idleMovesCommitted;
          obs::add(obs::Counter::kSwapIdleMoves);
          progress = true;
          break;  // critical path changed; recompute it
        }
      }
    }
  }
  return result;
}

}  // namespace dagpm::scheduler
