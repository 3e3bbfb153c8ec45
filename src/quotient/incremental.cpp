#include "quotient/incremental.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

#include "obs/obs.hpp"

namespace dagpm::quotient {

IncrementalEvaluator::IncrementalEvaluator(const QuotientGraph& q,
                                           const platform::Cluster& cluster,
                                           const comm::CommCostModel* comm)
    : q_(&q), cluster_(&cluster), comm_(comm) {
  rebuild();
}

IncrementalEvaluator::Scratch::Scratch(const IncrementalEvaluator& eval) {
  const std::size_t slots = eval.q_->numSlots();
  value.assign(slots, 0.0);
  stamp.assign(slots, 0);
  dead.assign(slots, 0);
  queued.assign(slots, 0);
  bestVal.assign(slots, 0.0);
  bestStamp.assign(slots, 0);
  refold.assign(slots, 0);
}

void IncrementalEvaluator::rebuild() {
  obs::add(obs::Counter::kEvalRebuilds);
  criticalPathValid_ = false;
  criticalPath_.clear();
  ++version_;

  if (comm_ != nullptr) {
    // Model path: retain the fluid problem and its forward evaluation; the
    // blockOfNode sequence doubles as the committed topological order for
    // the cycle check.
    fluid_ = buildQuotientFluid(*q_, *cluster_);
    assert(fluid_.has_value() &&
           "incremental evaluation requires an acyclic quotient");
    nodeOfBlock_.assign(q_->numSlots(), comm::kNoFluidEdge);
    order_ = fluid_->blockOfNode;
    pos_.assign(q_->numSlots(), 0);
    for (std::uint32_t i = 0; i < order_.size(); ++i) {
      nodeOfBlock_[order_[i]] = i;
      pos_[order_[i]] = i;
    }
    eval_ = comm_->evaluate(fluid_->problem, cluster_->bandwidth());
    assert(eval_.ok);
    makespan_ = eval_.makespan;
    return;
  }

  const auto order = q_->topologicalOrder();
  assert(order.has_value() &&
         "incremental evaluation requires an acyclic quotient");
  order_ = *order;
  pos_.assign(q_->numSlots(), 0);
  for (std::uint32_t i = 0; i < order_.size(); ++i) pos_[order_[i]] = i;

  // The exact recurrence of quotient::makespanValue: bottom weights in
  // reverse topological order, makespan = running max.
  bottom_.assign(q_->numSlots(), 0.0);
  bestTerm_.assign(q_->numSlots(), 0.0);
  values_.clear();
  makespan_ = 0.0;
  const double beta = cluster_->bandwidth();
  for (auto it = order_.rbegin(); it != order_.rend(); ++it) {
    const BlockId b = *it;
    const QNode& node = q_->node(b);
    double best = 0.0;
    for (const auto& [child, cost] : q_->out(b)) {
      best = std::max(best, cost / beta + bottom_[child]);
    }
    bestTerm_[b] = best;
    bottom_[b] = node.work / blockSpeed(*cluster_, node.proc) + best;
    makespan_ = std::max(makespan_, bottom_[b]);
    values_.emplace(bottom_[b], b);
  }
}

double IncrementalEvaluator::speedOf(
    BlockId b, std::span<const ProcOverride> overrides) const {
  platform::ProcessorId p = q_->node(b).proc;
  for (const ProcOverride& o : overrides) {
    if (o.block == b) {
      p = o.proc;
      break;
    }
  }
  return blockSpeed(*cluster_, p);
}

double IncrementalEvaluator::repair(Scratch& s,
                                    std::span<const BlockId> dirtySeeds,
                                    std::span<const BlockId> deadBlocks,
                                    std::span<const ProcOverride> overrides,
                                    bool structural) const {
  if (s.stamp.size() != q_->numSlots()) {
    s.value.assign(q_->numSlots(), 0.0);
    s.stamp.assign(q_->numSlots(), 0);
    s.dead.assign(q_->numSlots(), 0);
    s.queued.assign(q_->numSlots(), 0);
    s.bestVal.assign(q_->numSlots(), 0.0);
    s.bestStamp.assign(q_->numSlots(), 0);
    s.refold.assign(q_->numSlots(), 0);
  }
  ++s.epoch;
  if (s.epoch == 0) {  // stamp wrap-around: reset and restart at 1
    std::fill(s.stamp.begin(), s.stamp.end(), 0u);
    std::fill(s.dead.begin(), s.dead.end(), 0u);
    std::fill(s.queued.begin(), s.queued.end(), 0u);
    std::fill(s.bestStamp.begin(), s.bestStamp.end(), 0u);
    std::fill(s.refold.begin(), s.refold.end(), 0u);
    s.epoch = 1;
  }
  s.touched.clear();
  s.bestTouched.clear();
  s.heap.clear();

  const double beta = cluster_->bandwidth();
  auto effective = [&](BlockId b) {
    return s.stamp[b] == s.epoch ? s.value[b] : bottom_[b];
  };
  // Max-heap on the committed topological position: children (larger pos)
  // repair before parents. A position gone stale through a tentative merge
  // only costs a re-push (the parent re-dirties when its child changes).
  // Heap pushes are tallied locally and reported once at the end — the hot
  // loop must not pay per-push counter traffic.
  std::uint64_t pushes = 0;
  auto push = [&](BlockId b) {
    if (s.queued[b] == s.epoch || s.dead[b] == s.epoch) return;
    s.queued[b] = s.epoch;
    s.heap.emplace_back(pos_[b], b);
    std::push_heap(s.heap.begin(), s.heap.end());
    ++pushes;
  };

  for (const BlockId d : deadBlocks) s.dead[d] = s.epoch;
  for (const BlockId b : dirtySeeds) {
    if (q_->node(b).alive) push(b);
  }

  if (structural) {
    // The live adjacency differs from the committed one after a tentative
    // merge; fold the current spans until a fixpoint.
    while (!s.heap.empty()) {
      std::pop_heap(s.heap.begin(), s.heap.end());
      const BlockId b = s.heap.back().second;
      s.heap.pop_back();
      s.queued[b] = 0;

      double best = 0.0;
      for (const auto& [child, cost] : q_->out(b)) {
        best = std::max(best, cost / beta + effective(child));
      }
      const double newValue = q_->node(b).work / speedOf(b, overrides) + best;
      if (newValue == effective(b)) continue;  // early cutoff
      if (s.stamp[b] != s.epoch) {
        s.stamp[b] = s.epoch;
        s.touched.push_back(b);
      }
      s.value[b] = newValue;
      for (const auto& [parent, cost] : q_->in(b)) push(parent);
    }
  } else {
    // Hot path (Step-4 probes, processor-only commits): the topology
    // matches the committed CSR, positions are exact, so every node pops
    // at most once with its children final. A node's best child-term is
    // patched in O(1) per changed child — max over doubles is exact, so
    // any composition order yields the identical fold value — and only a
    // decayed previous maximum forces an O(deg) refold at pop time.
    auto bestOf = [&](BlockId b) {
      return s.bestStamp[b] == s.epoch ? s.bestVal[b] : bestTerm_[b];
    };
    while (!s.heap.empty()) {
      std::pop_heap(s.heap.begin(), s.heap.end());
      const BlockId b = s.heap.back().second;
      s.heap.pop_back();
      s.queued[b] = 0;

      double best;
      if (s.refold[b] == s.epoch) {
        best = 0.0;
        for (const auto& [child, cost] : q_->out(b)) {
          best = std::max(best, cost / beta + effective(child));
        }
        if (s.bestStamp[b] != s.epoch) {
          s.bestStamp[b] = s.epoch;
          s.bestTouched.push_back(b);
        }
        s.bestVal[b] = best;
      } else {
        best = bestOf(b);
      }
      const double newValue =
          q_->node(b).work / speedOf(b, overrides) + best;
      if (newValue == bottom_[b]) continue;  // early cutoff
      s.stamp[b] = s.epoch;
      s.touched.push_back(b);
      s.value[b] = newValue;

      // Patch every parent's best term: old contribution out, new one in.
      for (const auto& [p, cost] : q_->in(b)) {
        if (s.refold[p] == s.epoch) {
          push(p);  // already refolding: the fold will read the overlay
          continue;
        }
        // b's in-entry carries the same cost as p's out-entry for b, so
        // the term is available without touching p's adjacency.
        const double costBeta = cost / beta;
        const double oldTerm = costBeta + bottom_[b];
        const double newTerm = costBeta + newValue;
        const double current = bestOf(p);
        if (oldTerm == current && newTerm < oldTerm) {
          s.refold[p] = s.epoch;  // previous maximum decayed: exact refold
          push(p);
        } else if (newTerm > current) {
          if (s.bestStamp[p] != s.epoch) {
            s.bestStamp[p] = s.epoch;
            s.bestTouched.push_back(p);
          }
          s.bestVal[p] = newTerm;
          push(p);
        }
        // else: the parent's maximum provably did not move — no work.
      }
    }
  }

  obs::add(obs::Counter::kEvalRepairPushes, pushes);
  // New makespan: the best tentative value vs the best committed value of a
  // block the probe left untouched (walk down from the committed maximum).
  double result = 0.0;
  for (const BlockId b : s.touched) result = std::max(result, s.value[b]);
  for (auto it = values_.rbegin(); it != values_.rend(); ++it) {
    const BlockId b = it->second;
    if (s.stamp[b] == s.epoch || s.dead[b] == s.epoch) continue;
    result = std::max(result, it->first);
    break;
  }
  return result;
}

double IncrementalEvaluator::probeAssign(
    Scratch& s, std::span<const ProcOverride> overrides) const {
  obs::add(obs::Counter::kEvalProbesAssign);
  if (comm_ != nullptr) return contendedProbe(s, overrides);
  // Seeds are the overridden blocks themselves; only their own term of the
  // Eq. (1) recurrence changed. The searches pass at most two overrides;
  // larger sets spill to the heap.
  BlockId inlineSeeds[8];
  std::vector<BlockId> spill;
  BlockId* seeds = inlineSeeds;
  if (overrides.size() > std::size(inlineSeeds)) {
    spill.resize(overrides.size());
    seeds = spill.data();
  }
  for (std::size_t i = 0; i < overrides.size(); ++i) {
    seeds[i] = overrides[i].block;
  }
  return repair(s, std::span<const BlockId>(seeds, overrides.size()), {},
                overrides, /*structural=*/false);
}

double IncrementalEvaluator::probeMerged(
    Scratch& s, std::span<const BlockId> dirtySeeds,
    std::span<const BlockId> deadBlocks) const {
  obs::add(obs::Counter::kEvalProbesMerged);
  if (comm_ != nullptr) {
    // Structural probe under a model: the node set changed, so the cached
    // fluid does not apply; price the merged quotient like the full path.
    const auto fluid = buildQuotientFluid(*q_, *cluster_);
    assert(fluid.has_value() && "probeMerged requires an acyclic quotient");
    const comm::FluidResult eval =
        comm_->evaluate(fluid->problem, cluster_->bandwidth());
    assert(eval.ok);
    return eval.makespan;
  }
  assert(q_->isAcyclic() && "probeMerged requires an acyclic quotient");
  return repair(s, dirtySeeds, deadBlocks, {}, /*structural=*/true);
}

void IncrementalEvaluator::seedsOfMerge(const MergeTransaction& tx,
                                        std::vector<BlockId>& dirtySeeds,
                                        std::vector<BlockId>& deadBlocks) {
  dirtySeeds.clear();
  deadBlocks.clear();
  dirtySeeds.push_back(tx.survivor);
  // The absorbed node's former parents lost their edge to it and gained (or
  // grew) one to the survivor: their child terms changed structurally.
  for (const auto& [parent, prior] : tx.neighborOutOfSurvivor) {
    dirtySeeds.push_back(parent);
  }
  deadBlocks.push_back(tx.absorbed);
}

bool IncrementalEvaluator::mergeWouldCreateCycle(BlockId a, BlockId b) const {
  obs::add(obs::Counter::kEvalCycleChecks);
  // The committed quotient is acyclic, so a path between the two blocks can
  // only run in one direction: from the earlier position to the later one.
  // Merging closes a cycle exactly when such a path passes through at least
  // one intermediate node (direct edges collapse into the merged block).
  BlockId src = a;
  BlockId dst = b;
  if (pos_[src] > pos_[dst]) std::swap(src, dst);
  const std::uint32_t limit = pos_[dst];

  if (visitStamp_.size() != q_->numSlots()) {
    visitStamp_.assign(q_->numSlots(), 0);
    visitEpoch_ = 0;
  }
  ++visitEpoch_;
  if (visitEpoch_ == 0) {
    std::fill(visitStamp_.begin(), visitStamp_.end(), 0u);
    visitEpoch_ = 1;
  }
  dfsStack_.clear();
  for (const auto& [child, cost] : q_->out(src)) {
    if (child == dst) continue;  // the direct edge becomes internal
    if (pos_[child] < limit) dfsStack_.push_back(child);
  }
  while (!dfsStack_.empty()) {
    const BlockId n = dfsStack_.back();
    dfsStack_.pop_back();
    if (visitStamp_[n] == visitEpoch_) continue;
    visitStamp_[n] = visitEpoch_;
    for (const auto& [child, cost] : q_->out(n)) {
      if (child == dst) return true;
      if (pos_[child] < limit && visitStamp_[child] != visitEpoch_) {
        dfsStack_.push_back(child);
      }
    }
  }
  return false;
}

void IncrementalEvaluator::commitAssign(std::span<const BlockId> dirtySeeds) {
  obs::add(obs::Counter::kEvalCommits);
  criticalPathValid_ = false;
  criticalPath_.clear();
  ++version_;
  if (comm_ != nullptr) {
    // Patch the committed fluid in place (same expressions as
    // buildQuotientFluid) and re-price it.
    for (const BlockId b : dirtySeeds) {
      const QNode& node = q_->node(b);
      comm::FluidNode& fn = fluid_->problem.nodes[nodeOfBlock_[b]];
      fn.duration = node.work / blockSpeed(*cluster_, node.proc);
      fn.proc = node.proc;
    }
    eval_ = comm_->evaluate(fluid_->problem, cluster_->bandwidth());
    assert(eval_.ok);
    makespan_ = eval_.makespan;
    return;
  }
  repair(commitScratch_, dirtySeeds, {}, {}, /*structural=*/false);
  for (const BlockId b : commitScratch_.bestTouched) {
    bestTerm_[b] = commitScratch_.bestVal[b];
  }
  for (const BlockId b : commitScratch_.touched) {
    values_.erase({bottom_[b], b});
    bottom_[b] = commitScratch_.value[b];
    values_.emplace(bottom_[b], b);
  }
  makespan_ = values_.empty() ? 0.0 : values_.rbegin()->first;
}

const std::vector<BlockId>& IncrementalEvaluator::criticalPath() const {
  if (criticalPathValid_) return criticalPath_;
  criticalPath_.clear();
  criticalPathValid_ = true;

  if (comm_ != nullptr) {
    // Same walk as the model overload of computeMakespan: last-finishing
    // fluid node, then binding predecessors, reported upstream-first.
    std::uint32_t top = comm::kNoFluidEdge;
    for (std::uint32_t i = 0; i < eval_.finish.size(); ++i) {
      if (top == comm::kNoFluidEdge || eval_.finish[i] > eval_.finish[top]) {
        top = i;
      }
    }
    if (top != comm::kNoFluidEdge) {
      std::uint32_t cur = top;
      while (true) {
        criticalPath_.push_back(fluid_->blockOfNode[cur]);
        const std::uint32_t e = eval_.bindingEdge[cur];
        if (e == comm::kNoFluidEdge) break;
        cur = fluid_->problem.edges[e].src;
      }
      std::reverse(criticalPath_.begin(), criticalPath_.end());
    }
    return criticalPath_;
  }

  // Same tie-breaking as computeMakespan: the first strictly-larger bottom
  // weight along the committed topological order defines the path head.
  const double beta = cluster_->bandwidth();
  BlockId top = kNoBlock;
  double best = 0.0;
  for (const BlockId b : order_) {
    if (top == kNoBlock || bottom_[b] > best) {
      best = bottom_[b];
      top = b;
    }
  }
  if (top == kNoBlock) return criticalPath_;
  BlockId cur = top;
  while (true) {
    criticalPath_.push_back(cur);
    BlockId next = kNoBlock;
    double bestTail = -1.0;
    for (const auto& [child, cost] : q_->out(cur)) {
      const double tail = cost / beta + bottom_[child];
      if (tail > bestTail) {
        bestTail = tail;
        next = child;
      }
    }
    if (next == kNoBlock) break;
    cur = next;
  }
  return criticalPath_;
}

void IncrementalEvaluator::syncScratchFluid(Scratch& s) const {
  if (s.fluidVersion == version_) return;
  s.fluid = fluid_->problem;
  s.fluidVersion = version_;
}

double IncrementalEvaluator::contendedProbe(
    Scratch& s, std::span<const ProcOverride> overrides) const {
  syncScratchFluid(s);
  // Patch only the overridden nodes; everything else (order, edges, other
  // durations) is byte-identical to what buildQuotientFluid would rebuild,
  // so the evaluation is bit-identical to the full path.
  comm::FluidNode inlineSaved[8];
  std::vector<comm::FluidNode> spill;
  comm::FluidNode* saved = inlineSaved;
  if (overrides.size() > std::size(inlineSaved)) {
    spill.resize(overrides.size());
    saved = spill.data();
  }
  for (std::size_t i = 0; i < overrides.size(); ++i) {
    const BlockId b = overrides[i].block;
    const std::uint32_t idx = nodeOfBlock_[b];
    saved[i] = s.fluid.nodes[idx];
    const platform::ProcessorId p = overrides[i].proc;
    s.fluid.nodes[idx].duration = q_->node(b).work / blockSpeed(*cluster_, p);
    s.fluid.nodes[idx].proc = p;
  }
  const comm::FluidResult eval =
      comm_->evaluate(s.fluid, cluster_->bandwidth());
  for (std::size_t i = 0; i < overrides.size(); ++i) {
    s.fluid.nodes[nodeOfBlock_[overrides[i].block]] = saved[i];
  }
  assert(eval.ok);
  return eval.makespan;
}

}  // namespace dagpm::quotient
