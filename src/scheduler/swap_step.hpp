#pragma once
// Step 4 of DagHetPart: local search via block swaps (paper Algorithm 5)
// plus the final idle-processor pass.
//
// Two blocks may swap processors when each fits in the other's memory; the
// best improving swap is executed until none exists. Afterwards, if some
// processors stayed idle, blocks on the critical path are moved to faster
// idle processors that can hold them, as long as doing so improves the
// makespan.
//
// The default implementation evaluates every candidate through
// quotient::IncrementalEvaluator (cone repair instead of a full O(V+E)
// recompute per probe) and scans the swap candidates in parallel with
// OpenMP: probes are pure (per-thread scratch over a const quotient), all
// candidate makespans are materialized, and the winning pair is then
// selected by replaying the sequential acceptance rule over the stored
// values — so the result is bit-identical to the sequential scan for any
// thread count. Under an uncontended model only pairs with an endpoint on
// the exact critical path are probed: any other swap leaves the path's
// length as it was and cannot win. A swap must beat the makespan by a
// relative margin, so the search does not depend on the unit of time.
// fullReevaluation switches to the legacy full-recompute loop, which
// probes every pair, kept as the differential reference.

#include "comm/cost_model.hpp"
#include "platform/cluster.hpp"
#include "quotient/quotient.hpp"

namespace dagpm::scheduler {

struct SwapStepConfig {
  bool enableSwaps = true;      // ablation toggles
  bool enableIdleMoves = true;
  std::uint32_t maxSwapRounds = 1000;  // safety bound; each round improves
  /// Communication cost model the swap/idle-move search evaluates under.
  /// Null = the paper's uncontended recurrence (the legacy code path);
  /// &comm::fairShareCommModel() = contention-aware local search. The
  /// returned makespan is priced under the same model.
  const comm::CommCostModel* comm = nullptr;
  /// Probe every candidate with the full recompute instead of the
  /// incremental evaluator (differential reference; bit-identical results).
  bool fullReevaluation = false;
};

struct SwapStepResult {
  double makespan = 0.0;
  std::uint32_t swapsCommitted = 0;
  std::uint32_t idleMovesCommitted = 0;
};

/// Requires every alive node of `q` to be assigned and the quotient acyclic.
SwapStepResult improveBySwaps(quotient::QuotientGraph& q,
                              const platform::Cluster& cluster,
                              const SwapStepConfig& cfg = {});

}  // namespace dagpm::scheduler
