#pragma once
// Canonical request fingerprints for the scheduling service's cache.
//
// A fingerprint is an FNV-1a hash (the same byte-mixing the determinism
// tests pin partition hashes with) over everything that determines the
// schedule bit-for-bit: the workflow's full content (vertex work/memory,
// edge endpoints/costs in id order — generators emit these deterministically,
// so two instances of the same family/shape/params/seed hash equal and
// "isomorphic repeats" collapse onto one cache entry), the cluster (per-
// processor speed/memory, bandwidth), and the solver configuration.
//
// Deliberately EXCLUDED from the config hash: switches that are proven not
// to change the produced schedule — SchedulerOptions::fullReevaluation
// (incremental and full evaluation are bit-identical, fuzz- and
// baseline-enforced) and DagHetPartConfig::parallelSweep (thread-count
// reproducibility is a pinned invariant). A cached schedule is therefore
// valid across those modes; everything that can move a schedule (sweep
// strategy, seed, epsilon, balance weight, oracle options, step toggles,
// contention awareness) is hashed.

#include <cstdint>

#include "graph/dag.hpp"
#include "platform/cluster.hpp"
#include "scheduler/daghetmem.hpp"
#include "scheduler/daghetpart.hpp"

namespace dagpm::service {

/// Which solver a request runs.
enum class Algorithm : std::uint8_t {
  kDagHetPart = 0,  // the four-step partitioning heuristic
  kDagHetMem = 1,   // the memory-aware baseline
  kBest = 2,        // scheduleBest: the better feasible of the two
};

const char* algorithmName(Algorithm a) noexcept;

/// Incremental FNV-1a hasher (64-bit), byte-compatible with the
/// determinism-test partition hashes.
class Fnv1a {
 public:
  void mix(std::uint64_t v) noexcept {
    for (int byte = 0; byte < 8; ++byte) {
      h_ ^= (v >> (8 * byte)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  void mixDouble(double v) noexcept;
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Content hash of the workflow: counts, per-vertex weights in id order,
/// per-edge (src, dst, cost) in edge-id order. Labels are ignored (they
/// never influence scheduling).
std::uint64_t fingerprintDag(const graph::Dag& g);

/// Content hash of the platform: processor count, per-processor
/// (speed, memory) in id order, bandwidth.
std::uint64_t fingerprintCluster(const platform::Cluster& cluster);

/// Hash of every schedule-relevant DagHetPart/DagHetMem configuration field
/// plus the algorithm selector (see the exclusion list above).
std::uint64_t fingerprintConfig(const scheduler::DagHetPartConfig& cfg,
                                Algorithm algorithm);

/// The full request fingerprint: dag x cluster x config combined.
std::uint64_t fingerprintRequest(const graph::Dag& g,
                                 const platform::Cluster& cluster,
                                 const scheduler::DagHetPartConfig& cfg,
                                 Algorithm algorithm);

}  // namespace dagpm::service
