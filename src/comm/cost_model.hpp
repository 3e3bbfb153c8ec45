#pragma once
// Communication cost models: how the scheduling stack prices transfers over
// the shared beta-bandwidth backbone.
//
// The paper's static model (Eq. (1)-(2)) charges every transfer the
// uncontended c/beta, but HetPart/HetMem schedules routinely launch parallel
// transfers over the same link; the simulator's fair-share model (src/sim)
// shows the static makespan is provably optimistic exactly where the
// schedulers are most aggressive. This module extracts the pricing decision
// behind one interface so the whole decision stack — computeTimeline, the
// Step-3 merges, the Step-4 swap search, the HEFT comparator, and the
// rescheduler's residual projection — can evaluate candidates under either
// physics:
//
//   UncontendedCommModel  every transfer moves at the full beta; the forward
//                         pass reproduces quotient::computeTimeline
//                         bit-exactly (same maxes, same additive terms).
//   FairShareCommModel    all concurrent transfers fair-share the backbone
//                         (each of n in-flight transfers progresses at
//                         beta/n) — the same fluid model sim::Engine
//                         realizes, so contention-aware search optimizes the
//                         quantity the simulator will measure (the tests
//                         assert agreement to 1e-9 on fuzzed schedules).
//
// Evaluation is a forward pass over a FluidProblem: nodes with fixed
// durations, edges whose transfers leave when the source node finishes, and
// "injections" (transfers already in flight at a known dispatch time — the
// residual projection's in-flight inputs and re-sends). The fair-share pass
// is NOT a full sim replay: it runs at block granularity over the
// processor-sharing virtual-time structure FairShareLink, which handles each
// dispatch/completion event in O(log n) instead of rescaling every in-flight
// transfer per event the way the task-granularity engine does.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <queue>
#include <string_view>
#include <vector>

namespace dagpm::comm {

inline constexpr std::uint32_t kNoFluidEdge = 0xffffffffu;
inline constexpr std::uint32_t kNoFluidProc = 0xffffffffu;

/// One node of a fluid evaluation: a block computing for `duration` once
/// all its inputs arrived and `earliestStart` has passed. `proc` carries the
/// placement for models that price transfers by endpoint (per-link
/// topologies); the single-backbone models ignore it.
struct FluidNode {
  double duration = 0.0;
  double earliestStart = 0.0;
  std::uint32_t proc = kNoFluidProc;
};

/// A transfer dispatched the instant its source node finishes.
struct FluidEdge {
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  double volume = 0.0;
};

/// A transfer with a fixed dispatch instant (independent of node finishes):
/// in-flight remainders and re-sends of the residual projection.
struct FluidInjection {
  std::uint32_t dst = 0;
  double time = 0.0;
  double volume = 0.0;
};

struct FluidProblem {
  std::vector<FluidNode> nodes;
  std::vector<FluidEdge> edges;
  std::vector<FluidInjection> injections;
  /// Topological order of `nodes`; the uncontended pass evaluates in this
  /// order (and its per-node max sequence is what makes it bit-identical to
  /// quotient::computeTimeline).
  std::vector<std::uint32_t> order;
};

struct FluidResult {
  /// False when some node never became ready (cyclic problem / deadlock).
  bool ok = false;
  double makespan = 0.0;
  std::vector<double> start;
  std::vector<double> finish;
  /// Per node: the edge whose delivery bound its start, or kNoFluidEdge when
  /// earliestStart or an injection did. Following binding edges upward from
  /// the last-finishing node yields the model's critical chain.
  std::vector<std::uint32_t> bindingEdge;
};

/// Processor-sharing link: n concurrent transfers each progress at beta/n.
/// The classic virtual-time formulation makes every operation O(log n): with
/// S(t) = integral of beta/n(tau) dtau, a transfer dispatched at time t0
/// with volume v completes exactly when S reaches S(t0) + v, so completions
/// are a min-heap of service thresholds and no per-event rescaling of the
/// in-flight set is needed (sim::Engine realizes the same fluid model by
/// stepping remaining volumes; this structure is its closed-form twin).
class FairShareLink {
 public:
  explicit FairShareLink(double beta) : beta_(beta) {}

  [[nodiscard]] double now() const noexcept { return now_; }
  [[nodiscard]] std::size_t active() const noexcept { return heap_.size(); }

  /// Registers transfer `id` dispatched at the current instant.
  void dispatch(std::uint32_t id, double volume) {
    heap_.push(Pending{service_ + volume, seq_++, id});
  }

  /// Instant the earliest in-flight transfer completes; +inf when idle.
  [[nodiscard]] double nextCompletionTime() const {
    if (heap_.empty()) return std::numeric_limits<double>::infinity();
    const double gap = std::max(0.0, heap_.top().threshold - service_);
    return now_ + gap * static_cast<double>(heap_.size()) / beta_;
  }

  /// Moves the clock forward; requires t <= nextCompletionTime().
  void advanceTo(double t) {
    if (t <= now_) return;
    if (!heap_.empty()) {
      service_ += (t - now_) * beta_ / static_cast<double>(heap_.size());
    }
    now_ = t;
  }

  /// Pops the earliest completion, advancing the clock to its instant.
  std::uint32_t popCompletion() {
    now_ = nextCompletionTime();
    service_ = heap_.top().threshold;
    const std::uint32_t id = heap_.top().id;
    heap_.pop();
    return id;
  }

 private:
  struct Pending {
    double threshold = 0.0;  // service level at which the transfer is done
    std::uint64_t seq = 0;   // dispatch order; deterministic tie-break
    std::uint32_t id = 0;
  };
  struct Later {
    bool operator()(const Pending& a, const Pending& b) const noexcept {
      if (a.threshold != b.threshold) return a.threshold > b.threshold;
      return a.seq > b.seq;
    }
  };

  double beta_ = 1.0;
  double now_ = 0.0;
  double service_ = 0.0;  // S(t): per-transfer service delivered so far
  std::uint64_t seq_ = 0;
  std::priority_queue<Pending, std::vector<Pending>, Later> heap_;
};

/// How a communication cost model prices a whole fluid problem over one
/// shared link of bandwidth `beta`. Implementations are stateless and
/// thread-safe (the k' sweep evaluates candidates in parallel).
class CommCostModel {
 public:
  virtual ~CommCostModel() = default;
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;
  /// True when concurrent transfers slow each other down.
  [[nodiscard]] virtual bool contended() const noexcept = 0;
  /// True when the evaluation ignores FluidNode::proc, i.e. swapping two
  /// equal-speed blocks provably cannot change the makespan. Both backbone
  /// models are placement-invariant (one shared link, so a transfer cannot
  /// move between links); per-link topology models must return false so the
  /// Step-4 equal-speed prune does not skip swaps that reroute transfers.
  /// Placement invariance justifies that equal-speed prune only: Step 4's
  /// critical-path prune also needs !contended(), since under contention a
  /// swap off the critical path changes which transfers overlap and can
  /// shorten the path's own transfers.
  /// Defaults to false: an unknown model is assumed placement-sensitive.
  [[nodiscard]] virtual bool placementInvariant() const noexcept {
    return false;
  }
  [[nodiscard]] virtual FluidResult evaluate(const FluidProblem& problem,
                                             double beta) const = 0;
};

/// The paper's model: every transfer moves at the full beta.
class UncontendedCommModel final : public CommCostModel {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "uncontended";
  }
  [[nodiscard]] bool contended() const noexcept override { return false; }
  [[nodiscard]] bool placementInvariant() const noexcept override {
    return true;  // every transfer pays volume/beta wherever it lands
  }
  [[nodiscard]] FluidResult evaluate(const FluidProblem& problem,
                                     double beta) const override;
};

/// The simulator's model: in-flight transfers fair-share the backbone.
class FairShareCommModel final : public CommCostModel {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "fair-share";
  }
  [[nodiscard]] bool contended() const noexcept override { return true; }
  [[nodiscard]] bool placementInvariant() const noexcept override {
    return true;  // one shared backbone: placement cannot reroute transfers
  }
  [[nodiscard]] FluidResult evaluate(const FluidProblem& problem,
                                     double beta) const override;
};

/// Shared immutable instances (the models carry no state).
const CommCostModel& uncontendedCommModel();
const CommCostModel& fairShareCommModel();

/// Incremental per-link load profile for construction-time pricing (HEFT):
/// committed transfers occupy the link over [dispatch, delivery); pricing a
/// new transfer integrates the shared rate beta/(k(t)+1) over the committed
/// profile. Lookup is O(log n) to locate the dispatch segment plus the
/// segments the transfer crosses. Unlike FairShareLink this does not
/// retroactively slow already-committed transfers — it is a one-sided
/// estimate for greedy placement loops, not the simulator's exact physics.
class LinkLoadProfile {
 public:
  explicit LinkLoadProfile(double beta) : beta_(beta) {}

  /// Delivery time of a transfer dispatched at `time` against the committed
  /// load (the transfer itself counts toward the sharing).
  [[nodiscard]] double price(double time, double volume) const;

  /// Commits a transfer's occupancy; `delivery` should come from price().
  void commit(double dispatch, double delivery);

 private:
  double beta_ = 1.0;
  /// Breakpoint -> committed transfer count on [breakpoint, next one).
  /// Absent leading segment = 0 committed transfers.
  std::map<double, int> segments_;
};

}  // namespace dagpm::comm
