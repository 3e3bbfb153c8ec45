#pragma once
// Incremental makespan evaluation for the Step-3/4 local searches.
//
// Every merge probe (Algorithm 3) and swap probe (Algorithm 5) needs the
// makespan of a quotient that differs from the committed one in O(1) places:
// one or two blocks on different processors, or one block absorbed into a
// neighbor. quotient::makespanValue recomputes the whole Eq. (1) recurrence
// — a full O(V+E) pass — for each of these probes; this evaluator caches
// the committed backward pass (bottom weights) and repairs only the
// affected cone:
//
//   * dirty blocks are processed deepest-first through a priority queue
//     keyed by the committed topological position (a stale position after a
//     tentative merge only costs a re-push, never correctness: a node whose
//     recompute changes always re-dirties its parents);
//   * propagation cuts off early the moment a repaired bottom weight is
//     bit-identical to the cached one — the classic delta-evaluation rule,
//     sound here because Eq. (1) folds exact max/add expressions;
//   * the makespan is re-derived in O(affected * log V) from an ordered
//     (bottom weight, block) set by walking down from the committed maximum
//     and skipping blocks the probe touched.
//
// Probes never write the committed cache: all tentative state lives in a
// caller-provided Scratch, so a const evaluator can serve any number of
// concurrent probes over a const quotient — which is exactly what the
// OpenMP-parallel Step-4 candidate scan does (one Scratch per thread).
//
// The quotient's arena-backed CSR adjacency (out(b)/in(b) spans) is flat
// and committed-order-stable, so both the structural and the value-only
// repair paths fold it directly — the private CSR mirror this evaluator
// once carried is gone.
//
// Under a communication cost model (comm::CommCostModel) the Eq. (1)
// bottom-weight recurrence no longer holds (contention couples transfers
// globally), so the evaluator caches the committed forward evaluation
// instead (the fluid start/finish times) and probes go through the
// cached-fluid delta hook: a processor-override probe patches only the
// affected node durations/placements of a retained comm::FluidProblem
// before re-pricing, skipping the per-probe topological sort and edge-list
// rebuild of buildQuotientFluid. Structural probes rebuild the fluid (a
// merge changes the node set). Both paths return values bit-identical to
// their full counterparts; SchedulerOptions::fullReevaluation keeps the
// full recompute alive as the differential reference.

#include <cstdint>
#include <optional>
#include <set>
#include <span>
#include <vector>

#include "comm/cost_model.hpp"
#include "platform/cluster.hpp"
#include "quotient/quotient.hpp"

namespace dagpm::quotient {

/// A tentative placement: price `block` as if it ran on `proc` (which may
/// be platform::kNoProcessor for the speed-1 estimation convention).
struct ProcOverride {
  BlockId block = kNoBlock;
  platform::ProcessorId proc = platform::kNoProcessor;
};

class IncrementalEvaluator {
 public:
  /// Attaches to `q` (not owned; must stay alive and acyclic). The cache is
  /// built immediately. Null `comm` = the paper's uncontended recurrence.
  IncrementalEvaluator(const QuotientGraph& q,
                       const platform::Cluster& cluster,
                       const comm::CommCostModel* comm = nullptr);

  /// Per-probe tentative state. Reusable across probes (buffers are epoch-
  /// stamped, not cleared); use one per thread for concurrent probes.
  class Scratch {
   public:
    Scratch() = default;
    explicit Scratch(const IncrementalEvaluator& eval);

   private:
    friend class IncrementalEvaluator;
    std::vector<double> value;          // tentative bottom weights
    std::vector<std::uint32_t> stamp;   // epoch: `value` entry is live
    std::vector<std::uint32_t> dead;    // epoch: block dead in the probe
    std::vector<std::uint32_t> queued;  // epoch: block sits in the heap
    std::vector<std::pair<std::uint32_t, BlockId>> heap;  // (pos, block)
    std::vector<BlockId> touched;       // blocks with live tentative values
    // Delta-repair overlays of the committed best child-term (bestTerm_):
    // refold marks nodes whose previous maximum decayed (exact refold at
    // pop time); bestTouched records overlays for the commit write-back.
    std::vector<double> bestVal;
    std::vector<std::uint32_t> bestStamp;
    std::vector<std::uint32_t> refold;
    std::vector<BlockId> bestTouched;
    std::uint32_t epoch = 0;
    // Contended probes patch a private copy of the committed fluid problem,
    // refreshed lazily when the evaluator's version moved on.
    comm::FluidProblem fluid;
    std::uint64_t fluidVersion = ~std::uint64_t{0};
  };

  /// Rebuilds every committed cache from the quotient's current state (full
  /// price; used at attach time and after structural commits). Requires an
  /// acyclic quotient.
  void rebuild();

  /// The committed makespan (bit-identical to makespanValue(q, cluster,
  /// comm) on the committed state).
  [[nodiscard]] double makespan() const noexcept { return makespan_; }

  /// The committed critical path, bit-identical to computeMakespan(q,
  /// cluster, comm).criticalPath — same tie-breaking, derived from the
  /// cached passes instead of a fresh full evaluation. Computed lazily and
  /// cached until the next commit/rebuild.
  [[nodiscard]] const std::vector<BlockId>& criticalPath() const;

  /// Tentative re-pricing with the given blocks moved to other processors.
  /// The quotient itself is NOT consulted for those blocks' placements, so
  /// concurrent probes over a const quotient are safe. Bit-identical to
  /// mutating the quotient and running the full evaluation.
  [[nodiscard]] double probeAssign(
      Scratch& scratch, std::span<const ProcOverride> overrides) const;

  /// Tentative evaluation of the quotient's *current* (merged) state, which
  /// differs structurally from the committed cache: `dirtySeeds` are the
  /// blocks whose local inputs changed (survivor + former parents of the
  /// absorbed node — see seedsOfMerge), `deadBlocks` the absorbed ones.
  /// Requires the merged quotient to be acyclic.
  [[nodiscard]] double probeMerged(Scratch& scratch,
                                   std::span<const BlockId> dirtySeeds,
                                   std::span<const BlockId> deadBlocks) const;

  /// Collects the dirty seeds / dead block of one merge transaction.
  static void seedsOfMerge(const MergeTransaction& tx,
                           std::vector<BlockId>& dirtySeeds,
                           std::vector<BlockId>& deadBlocks);

  /// True iff merging `a` and `b` (either direction) would create a cycle:
  /// a path between them through at least one intermediate node exists.
  /// Equivalent to merge + isAcyclic + rollback, evaluated on the committed
  /// structure without mutating the quotient, in time proportional to the
  /// topological window between the two blocks.
  [[nodiscard]] bool mergeWouldCreateCycle(BlockId a, BlockId b) const;

  /// Repairs the committed cache after the quotient's processor assignments
  /// changed at `dirtySeeds` (topology unchanged — swaps and idle moves).
  /// Incremental under the null model; re-prices the patched fluid under a
  /// comm model. Structural changes (merges) require rebuild() instead.
  void commitAssign(std::span<const BlockId> dirtySeeds);

 private:
  [[nodiscard]] double speedOf(BlockId b,
                               std::span<const ProcOverride> overrides) const;
  /// The shared cone-repair pass over the null-model cache. `structural`
  /// probes walk the quotient's live adjacency until a fixpoint (it
  /// differs from the committed one after a tentative merge); value-only
  /// repairs (the hot Step-4 path) rely on the topology matching the
  /// committed state, so the same spans patch best terms in O(1) per
  /// changed child.
  double repair(Scratch& scratch, std::span<const BlockId> dirtySeeds,
                std::span<const BlockId> deadBlocks,
                std::span<const ProcOverride> overrides,
                bool structural) const;
  [[nodiscard]] double contendedProbe(
      Scratch& scratch, std::span<const ProcOverride> overrides) const;
  void syncScratchFluid(Scratch& scratch) const;

  const QuotientGraph* q_;
  const platform::Cluster* cluster_;
  const comm::CommCostModel* comm_;

  // Committed caches (null-model path). `order_` is the exact
  // q.topologicalOrder() sequence of the committed state — makespan and
  // critical-path tie-breaks replicate the full evaluation's iteration.
  mutable std::vector<double> bottom_;  // Eq. (1) bottom weights, per slot
  // Committed best child-term of every block: max over children of
  // (cost/beta + bottom[child]); bottom = work/speed + bestTerm. Value-only
  // repairs patch this in O(1) per changed child (max is exact, so any
  // composition order yields the identical double) and only refold a node
  // when its previous maximum decayed.
  mutable std::vector<double> bestTerm_;
  std::vector<std::uint32_t> pos_;      // committed topological position
  std::vector<BlockId> order_;
  mutable std::set<std::pair<double, BlockId>> values_;  // alive blocks
  mutable double makespan_ = 0.0;

  // Committed caches (model path): the fluid problem of the committed state
  // plus its forward evaluation (start/finish/binding edges).
  std::optional<QuotientFluid> fluid_;
  comm::FluidResult eval_;
  std::vector<std::uint32_t> nodeOfBlock_;  // block id -> fluid node index
  std::uint64_t version_ = 0;  // bumped on rebuild/commit (scratch sync)

  mutable std::vector<BlockId> criticalPath_;  // lazy; empty = not derived
  mutable bool criticalPathValid_ = false;
  mutable Scratch commitScratch_;  // scratch reused by commitAssign

  // Epoch-stamped DFS state of mergeWouldCreateCycle (not thread-safe; the
  // merge step is sequential).
  mutable std::vector<std::uint32_t> visitStamp_;
  mutable std::uint32_t visitEpoch_ = 0;
  mutable std::vector<BlockId> dfsStack_;
};

}  // namespace dagpm::quotient
