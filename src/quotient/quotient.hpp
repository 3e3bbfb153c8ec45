#pragma once
// Quotient graph over a partition of the workflow (paper Sec. 3.3, Fig. 1).
//
// Each alive node is a block: its work weight is the sum of task works, its
// edges to other blocks carry the summed communication volume, and it may be
// assigned to a processor. Step 3 of DagHetPart tentatively merges nodes and
// rolls the merge back when it creates a cycle or degrades the makespan; the
// merge therefore returns a transaction capturing all mutated state.
//
// Storage is flat, arena-backed CSR: every block's adjacency lives as a
// contiguous (neighbor, cost) slab inside one shared pool per direction,
// sorted by neighbor id — the exact iteration order the former
// std::map<BlockId, double> storage produced, so every makespan fold,
// topological sort, and fluid build stays bit-identical to the map build.
// A merge writes the survivor's merged lists to a fresh slab appended at
// the pool top (O(1) amortized slab allocation) and patches the absorbed
// node's neighbors in place inside their slabs; the transaction records
// truncation lengths and touched entries only, and LIFO rollback restores
// the pools bit-exactly by truncation. The flat layout is what lets the
// Step-3/4 searches and the incremental evaluator iterate adjacency as
// cache-friendly arrays at 10^5-10^6-node scale.

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "comm/cost_model.hpp"
#include "graph/dag.hpp"
#include "platform/cluster.hpp"

namespace dagpm::quotient {

using BlockId = std::uint32_t;
inline constexpr BlockId kNoBlock = 0xffffffffu;

/// The speed a block on processor `p` is priced at. A block not yet
/// assigned (kNoProcessor) stands in at speed 1.0.
inline double blockSpeed(const platform::Cluster& cluster,
                         platform::ProcessorId p) {
  return p == platform::kNoProcessor ? 1.0 : cluster.speed(p);
}

/// One adjacency entry: (neighbor block, summed edge cost). A block's
/// entries are sorted by neighbor id, mirroring the legacy map order.
using AdjEntry = std::pair<BlockId, double>;

/// Lightweight read-only view of one block's adjacency slab. Iterates as
/// (neighbor, cost) pairs; lookups are binary searches. Views borrow the
/// graph's arena: any mutation of the quotient (merge/rollback) invalidates
/// outstanding views — re-read them via out(b)/in(b), copy to a vector to
/// snapshot.
class AdjSpan {
 public:
  using value_type = AdjEntry;

  constexpr AdjSpan() = default;
  constexpr AdjSpan(const AdjEntry* data, std::size_t size) noexcept
      : data_(data), size_(size) {}

  [[nodiscard]] const AdjEntry* begin() const noexcept { return data_; }
  [[nodiscard]] const AdjEntry* end() const noexcept { return data_ + size_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] const AdjEntry& operator[](std::size_t i) const noexcept {
    return data_[i];
  }

  /// Entry for neighbor `b`; end() when absent.
  [[nodiscard]] const AdjEntry* find(BlockId b) const noexcept {
    const AdjEntry* it = std::lower_bound(
        begin(), end(), b,
        [](const AdjEntry& e, BlockId key) { return e.first < key; });
    return it != end() && it->first == b ? it : end();
  }
  [[nodiscard]] std::size_t count(BlockId b) const noexcept {
    return find(b) == end() ? 0u : 1u;
  }
  /// Cost of the edge to neighbor `b`; the entry must exist (map::at
  /// analogue, assert-checked).
  [[nodiscard]] double at(BlockId b) const noexcept {
    const AdjEntry* it = find(b);
    assert(it != end() && "AdjSpan::at: no such neighbor");
    return it == end() ? 0.0 : it->second;
  }

  friend bool operator==(const AdjSpan& x, const AdjSpan& y) noexcept {
    return x.size_ == y.size_ && std::equal(x.begin(), x.end(), y.begin());
  }

 private:
  const AdjEntry* data_ = nullptr;
  std::size_t size_ = 0;
};

/// Slab reference into the graph's adjacency arena (internal to
/// QuotientGraph; exposed in QNode so nodes stay plain value types).
struct AdjRef {
  std::uint32_t offset = 0;    // first entry in the pool
  std::uint32_t size = 0;      // live entries
  std::uint32_t capacity = 0;  // slab room (>= size; rollback re-inserts)
};

struct QNode {
  bool alive = false;
  double work = 0.0;                      // sum of member task works
  double memReq = 0.0;                    // cached r_V (set by the scheduler)
  platform::ProcessorId proc = platform::kNoProcessor;
  int reinsertCount = 0;                  // Step 3's nu.c counter
  std::vector<graph::VertexId> members;   // workflow tasks in this block
  AdjRef outRef;  // adjacency slabs; read via QuotientGraph::out(b)/in(b)
  AdjRef inRef;
};

/// Compact rollback data for one tentative merge: survivor scalars, the
/// pre-merge slab refs (the merged lists go to a fresh slab, so the old
/// entries stay intact in the arena), the members length (merge only
/// appends; rollback truncates), the arena truncation points, and the
/// touched neighbor entries. No QNode deep copy anywhere.
struct MergeTransaction {
  BlockId survivor = kNoBlock;
  BlockId absorbed = kNoBlock;
  double survivorWork = 0.0;
  double survivorMemReq = 0.0;
  std::uint32_t survivorMemberCount = 0;
  AdjRef survivorOut;
  AdjRef survivorIn;
  std::uint32_t outPoolSize = 0;  // arena sizes before the merge; LIFO
  std::uint32_t inPoolSize = 0;   // rollback truncates back to them
  // Neighbors' adjacency entries pointing at the survivor before the merge
  // (absent = no entry), logged in the absorbed node's adjacency order.
  // Entries pointing at the absorbed node are restored from its untouched
  // slabs.
  std::vector<std::pair<BlockId, std::optional<double>>> neighborInOfSurvivor;
  std::vector<std::pair<BlockId, std::optional<double>>> neighborOutOfSurvivor;
};

class QuotientGraph {
 public:
  /// Builds the quotient of `g` under `blockOf` (labels in [0, numBlocks)).
  QuotientGraph(const graph::Dag& g, const std::vector<std::uint32_t>& blockOf,
                std::uint32_t numBlocks);

  [[nodiscard]] const graph::Dag& workflow() const noexcept { return *g_; }
  [[nodiscard]] std::size_t numSlots() const noexcept { return nodes_.size(); }
  [[nodiscard]] const QNode& node(BlockId b) const noexcept {
    return nodes_[b];
  }
  /// Successor / predecessor adjacency of block `b`, sorted by neighbor id.
  /// Views are invalidated by merge/rollback (they borrow the arena).
  [[nodiscard]] AdjSpan out(BlockId b) const noexcept {
    const AdjRef& r = nodes_[b].outRef;
    return AdjSpan(outPool_.data() + r.offset, r.size);
  }
  [[nodiscard]] AdjSpan in(BlockId b) const noexcept {
    const AdjRef& r = nodes_[b].inRef;
    return AdjSpan(inPool_.data() + r.offset, r.size);
  }
  [[nodiscard]] std::vector<BlockId> aliveNodes() const;
  [[nodiscard]] std::size_t numAlive() const noexcept { return numAlive_; }

  void setProcessor(BlockId b, platform::ProcessorId p) {
    nodes_[b].proc = p;
  }
  void setMemReq(BlockId b, double r) { nodes_[b].memReq = r; }
  void bumpReinsertCount(BlockId b) { ++nodes_[b].reinsertCount; }

  /// Merges `absorbed` into `survivor` (both alive, distinct). The survivor
  /// keeps its processor assignment; its memReq is invalidated to 0 (the
  /// caller recomputes it via the oracle). Returns the rollback transaction.
  MergeTransaction merge(BlockId survivor, BlockId absorbed);

  /// Undoes a merge; transactions must be rolled back in LIFO order.
  void rollback(MergeTransaction&& tx);

  /// True iff the alive-node graph is acyclic.
  [[nodiscard]] bool isAcyclic() const;

  /// A node x forming a 2-cycle with b (edges b->x and x->b), if any.
  [[nodiscard]] std::optional<BlockId> twoCyclePartner(BlockId b) const;

  /// Kahn order of alive nodes; std::nullopt if cyclic.
  [[nodiscard]] std::optional<std::vector<BlockId>> topologicalOrder() const;

  /// Arena footprint (entries across both directions, live + slabs retired
  /// by committed merges); exposed for footprint tracking in benches.
  [[nodiscard]] std::size_t arenaEntries() const noexcept {
    return outPool_.size() + inPool_.size();
  }

 private:
  const graph::Dag* g_;
  std::vector<QNode> nodes_;
  // Adjacency arenas. Slabs are append-allocated; committed merges retire
  // the survivor's old slab in place (bounded by the total merged degree),
  // rolled-back merges truncate the arena back, so tentative probes are
  // allocation-neutral.
  std::vector<AdjEntry> outPool_;
  std::vector<AdjEntry> inPool_;
  std::size_t numAlive_ = 0;
};

/// Bottom weights / makespan (paper Eq. (1)-(2)). Unassigned blocks compute
/// with speed 1 -> the *estimated* makespan used during Step 3.
struct MakespanResult {
  bool acyclic = false;
  double makespan = 0.0;
  std::vector<double> bottomWeight;    // indexed by block id (slots)
  std::vector<BlockId> criticalPath;   // from the makespan-defining node down
};

MakespanResult computeMakespan(const QuotientGraph& q,
                               const platform::Cluster& cluster);

/// Makespan only (no critical path extraction); slightly cheaper.
std::optional<double> makespanValue(const QuotientGraph& q,
                                    const platform::Cluster& cluster);

/// Forward evaluation under an explicit communication cost model. The
/// uncontended model reproduces computeTimeline/makespanValue bit-exactly;
/// the fair-share model prices concurrent transfers the way sim::Engine
/// executes them. bottomWeight stays empty (contention breaks the Eq. (1)
/// bottom-weight recurrence); criticalPath follows the binding-predecessor
/// chain of the forward pass instead.
MakespanResult computeMakespan(const QuotientGraph& q,
                               const platform::Cluster& cluster,
                               const comm::CommCostModel& model);

std::optional<double> makespanValue(const QuotientGraph& q,
                                    const platform::Cluster& cluster,
                                    const comm::CommCostModel& model);

/// Pointer-dispatch for callers carrying an optional model (the Step-3/4
/// configs, validation): null routes through the legacy uncontended
/// recurrence verbatim — the bit-identical default — non-null through the
/// model evaluation above.
MakespanResult computeMakespan(const QuotientGraph& q,
                               const platform::Cluster& cluster,
                               const comm::CommCostModel* model);
std::optional<double> makespanValue(const QuotientGraph& q,
                                    const platform::Cluster& cluster,
                                    const comm::CommCostModel* model);

/// Builds the fluid problem of a scheduled quotient: one node per alive
/// block (in topological order; blockOfNode maps back to block ids), one
/// edge per quotient edge in the per-destination adjacency order. Shared by
/// the model-priced makespan/timeline evaluations. nullopt when cyclic.
struct QuotientFluid {
  comm::FluidProblem problem;
  std::vector<BlockId> blockOfNode;  // fluid node index -> block id
};
std::optional<QuotientFluid> buildQuotientFluid(
    const QuotientGraph& q, const platform::Cluster& cluster);

}  // namespace dagpm::quotient
