#include "service/fingerprint.hpp"

#include <cstring>

namespace dagpm::service {

const char* algorithmName(Algorithm a) noexcept {
  switch (a) {
    case Algorithm::kDagHetPart: return "daghetpart";
    case Algorithm::kDagHetMem: return "daghetmem";
    case Algorithm::kBest: return "best";
  }
  return "?";
}

void Fnv1a::mixDouble(double v) noexcept {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  mix(bits);
}

std::uint64_t fingerprintDag(const graph::Dag& g) {
  Fnv1a h;
  h.mix(g.numVertices());
  h.mix(g.numEdges());
  for (graph::VertexId v = 0; v < g.numVertices(); ++v) {
    h.mixDouble(g.work(v));
    h.mixDouble(g.memory(v));
  }
  for (graph::EdgeId e = 0; e < g.numEdges(); ++e) {
    const graph::Edge& edge = g.edge(e);
    h.mix(edge.src);
    h.mix(edge.dst);
    h.mixDouble(edge.cost);
  }
  return h.value();
}

std::uint64_t fingerprintCluster(const platform::Cluster& cluster) {
  Fnv1a h;
  h.mix(cluster.numProcessors());
  for (platform::ProcessorId p = 0; p < cluster.numProcessors(); ++p) {
    h.mixDouble(cluster.speed(p));
    h.mixDouble(cluster.memory(p));
  }
  h.mixDouble(cluster.bandwidth());
  return h.value();
}

std::uint64_t fingerprintConfig(const scheduler::DagHetPartConfig& cfg,
                                Algorithm algorithm) {
  Fnv1a h;
  h.mix(static_cast<std::uint64_t>(algorithm));
  h.mix(static_cast<std::uint64_t>(cfg.sweep));
  h.mix(cfg.seed);
  h.mixDouble(cfg.step1Epsilon);
  h.mix(static_cast<std::uint64_t>(cfg.step1Balance));
  h.mix(cfg.oracle.exactThreshold);
  // One bit per boolean toggle, packed; parallelSweep and the options'
  // fullReevaluation are excluded (schedules are bit-identical across them
  // — see the header).
  std::uint64_t bits = 0;
  const auto pack = [&bits](bool b) { bits = (bits << 1) | (b ? 1u : 0u); };
  pack(cfg.oracle.useSpSchedule);
  pack(cfg.oracle.useGreedy);
  pack(cfg.oracle.useSpization);
  pack(cfg.preferOffCriticalPath);
  pack(cfg.anyHostFallback);
  pack(cfg.enableSwaps);
  pack(cfg.enableIdleMoves);
  pack(cfg.memoryBalanceFallback);
  pack(cfg.options.contentionAware);
  h.mix(bits);
  return h.value();
}

std::uint64_t fingerprintRequest(const graph::Dag& g,
                                 const platform::Cluster& cluster,
                                 const scheduler::DagHetPartConfig& cfg,
                                 Algorithm algorithm) {
  Fnv1a h;
  h.mix(fingerprintDag(g));
  h.mix(fingerprintCluster(cluster));
  h.mix(fingerprintConfig(cfg, algorithm));
  return h.value();
}

}  // namespace dagpm::service
