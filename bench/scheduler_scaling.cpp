// Scheduler scaling ladder: end-to-end DagHetPart runtime and raw probe
// throughput with incremental makespan evaluation (the default) versus the
// full-recompute reference (SchedulerOptions::fullReevaluation), on a
// ladder of growing (workflow, cluster) sizes. Not a paper figure — the
// paper's Table 4 reports absolute runtimes; this bench tracks the speedup
// the quotient::IncrementalEvaluator delta path delivers over the O(V+E)
// per-probe recompute, and asserts the two modes produce bit-identical
// schedules on every rung (exit 1 otherwise).
//
// Schedule-quality columns (makespan, blocks) are regression-gated against
// bench/baselines/BENCH_scheduler_scaling.quick.json; *_seconds,
// *_runtime_ratio, and *_rss_mb columns are machine-dependent and ignored
// by the checker. Obs counters are always on here, so the export's stats
// block carries the search-work totals (swap.pairs_probed among them) that
// the checker gates too; the timing columns include the counter overhead.
//
// The full ladder tops out at the ROADMAP's million-task scale. On those
// rungs the O(V+E)-per-probe full-reevaluation reference is intractable,
// so they run the incremental path only (differential=false) and the
// bit-identity cross-check rides on the smaller rungs; every rung reports
// the process peak RSS (getrusage) so the flat quotient core's footprint
// is tracked alongside speed.

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "experiments/export.hpp"
#include "obs/obs.hpp"
#include "partition/partitioner.hpp"
#include "platform/cluster.hpp"
#include "quotient/incremental.hpp"
#include "scheduler/daghetpart.hpp"
#include "support/env.hpp"
#include "support/json.hpp"
#include "support/table.hpp"
#include "workflows/families.hpp"

namespace {

using namespace dagpm;

struct Rung {
  int tasks = 0;
  int perKind = 0;  // cluster size: 6 machine kinds x perKind
  // Cross-check the incremental schedule against the full-reevaluation
  // reference. Off on the 10^5/10^6 rungs, where the O(V+E)-per-probe
  // reference would dominate the ladder's wall clock.
  bool differential = true;
};

/// Process peak resident set size in MiB (ru_maxrss: KiB on Linux, bytes on
/// macOS). Monotone over the process lifetime, so each rung reports the
/// peak *so far* — the last rung carries the ladder's high-water mark.
double peakRssMb() {
#if defined(__unix__) || defined(__APPLE__)
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
#if defined(__APPLE__)
  return static_cast<double>(usage.ru_maxrss) / (1024.0 * 1024.0);
#else
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
#endif
#else
  return 0.0;
#endif
}

struct RungResult {
  Rung rung;
  std::size_t procs = 0;
  bool feasible = false;
  double makespan = 0.0;
  std::uint32_t blocks = 0;
  double incrementalSeconds = 0.0;
  double fullSeconds = 0.0;
  double probeIncrementalSeconds = 0.0;
  double probeFullSeconds = 0.0;
  std::int64_t probes = 0;
  double peakRssMb = 0.0;
};

std::vector<Rung> ladder(support::BenchScale scale) {
  switch (scale) {
    case support::BenchScale::kQuick:
      return {{400, 2}, {800, 3}};
    case support::BenchScale::kDefault:
      return {{2000, 6}, {5000, 12}, {10000, 20}};
    case support::BenchScale::kFull:
      return {{8000, 10},
              {20000, 20},
              {30000, 30},
              {100000, 40, /*differential=*/false},
              {1000000, 64, /*differential=*/false}};
  }
  return {};
}

/// Raw probe throughput: the same swap-probe sequence priced through the
/// incremental evaluator and through the full makespanValue recompute, on a
/// Step-3-entry-sized quotient (blocks are most numerous before the merge
/// step shrinks them down to the processor count).
void measureProbes(const graph::Dag& g, const platform::Cluster& cluster,
                   std::int64_t probes, bool fullReference, RungResult& out) {
  partition::PartitionConfig pcfg;
  pcfg.numParts =
      std::max(static_cast<std::uint32_t>(cluster.numProcessors()),
               static_cast<std::uint32_t>(g.numVertices() / 16));
  const partition::PartitionResult pr = partition::partitionAcyclic(g, pcfg);
  quotient::QuotientGraph q(g, pr.blockOf, pr.numBlocks);
  std::uint32_t i = 0;
  for (const quotient::BlockId b : q.aliveNodes()) {
    q.setProcessor(b, static_cast<platform::ProcessorId>(
                          i++ % cluster.numProcessors()));
  }
  const std::vector<quotient::BlockId> nodes = q.aliveNodes();
  if (nodes.size() < 2) return;

  const quotient::IncrementalEvaluator eval(q, cluster);
  quotient::IncrementalEvaluator::Scratch scratch(eval);
  double sink = 0.0;
  {
    const obs::Span span("bench.probe_incremental");
    for (std::int64_t p = 0; p < probes; ++p) {
      const quotient::BlockId a =
          nodes[static_cast<std::size_t>(p) % nodes.size()];
      const quotient::BlockId b =
          nodes[static_cast<std::size_t>(p * 7 + 1) % nodes.size()];
      if (a == b) continue;
      const quotient::ProcOverride overrides[2] = {{a, q.node(b).proc},
                                                   {b, q.node(a).proc}};
      sink += eval.probeAssign(scratch, overrides);
    }
    out.probeIncrementalSeconds = span.seconds();
  }
  if (fullReference) {
    const obs::Span span("bench.probe_full");
    for (std::int64_t p = 0; p < probes; ++p) {
      const quotient::BlockId a =
          nodes[static_cast<std::size_t>(p) % nodes.size()];
      const quotient::BlockId b =
          nodes[static_cast<std::size_t>(p * 7 + 1) % nodes.size()];
      if (a == b) continue;
      const platform::ProcessorId pa = q.node(a).proc;
      const platform::ProcessorId pb = q.node(b).proc;
      q.setProcessor(a, pb);
      q.setProcessor(b, pa);
      sink += *quotient::makespanValue(q, cluster);
      q.setProcessor(a, pa);
      q.setProcessor(b, pb);
    }
    out.probeFullSeconds = span.seconds();
  }
  out.probes = probes;
  if (sink < 0.0) std::cout << "";  // keep the probes observable
}

}  // namespace

int main() {
  const support::BenchEnv env = support::BenchEnv::fromEnvironment();
  // The stats block gates the solver's work counters, whatever DAGPM_STATS
  // says.
  obs::enableCounters(true);
  const char* scaleName = env.scale == support::BenchScale::kQuick ? "quick"
                          : env.scale == support::BenchScale::kFull
                              ? "full"
                              : "default";
  support::printHeading(std::cout,
                        "Scheduler scaling: incremental vs full evaluation");
  std::cout << "extension (no paper figure); expected shape: the end-to-end "
               "and probe speedups grow\nwith the rung size (the full "
               "recompute pays O(V+E) per probe, the evaluator only\nthe "
               "affected cone)\nscale: "
            << scaleName << " (DAGPM_QUICK=1 / DAGPM_FULL=1 to change)\n\n";

  const std::int64_t probes =
      env.scale == support::BenchScale::kQuick      ? 2000
      : env.scale == support::BenchScale::kDefault  ? 20000
                                                    : 50000;

  std::vector<RungResult> results;
  for (const Rung rung : ladder(env.scale)) {
    RungResult out;
    out.rung = rung;
    workflows::GenConfig gcfg;
    gcfg.numTasks = rung.tasks;
    gcfg.seed = 7;
    const graph::Dag g =
        workflows::generate(workflows::Family::kMontage, gcfg);
    platform::Cluster cluster = platform::makeCluster(
        platform::Heterogeneity::kDefault, rung.perKind);
    // Memory-roomy regime: this bench measures the search runtime, not
    // schedulability, so beyond the paper's Sec. 5.1.2 biggest-task rule
    // grow memories until the aggregate capacity covers the workflow's
    // total task requirement — every rung then schedules on every ladder.
    cluster.scaleMemoriesToFit(g.maxTaskMemoryRequirement());
    double totalRequirement = 0.0;
    for (graph::VertexId v = 0; v < g.numVertices(); ++v) {
      totalRequirement += g.taskMemoryRequirement(v);
    }
    double capacity = 0.0;
    for (platform::ProcessorId p = 0; p < cluster.numProcessors(); ++p) {
      capacity += cluster.memory(p);
    }
    if (capacity < totalRequirement) {
      cluster.scaleMemoriesToFit(cluster.largestMemory() * totalRequirement /
                                 capacity);
    }
    out.procs = cluster.numProcessors();

    scheduler::DagHetPartConfig cfg;
    cfg.seed = 1;
    // One full pipeline run at k' = k: the sweep would replicate the
    // mode-independent fixed costs (Step-1 partition, Step-2 oracle) per
    // candidate and blur the quantity this bench tracks. The ladder is
    // still end-to-end DagHetPart (Steps 1-4), just with a single-k' sweep.
    cfg.sweep = scheduler::KPrimeSweep::kSingle;
    cfg.parallelSweep = false;  // give the Step-4 scan the OpenMP threads

    scheduler::ScheduleResult incremental;
    {
      const obs::Span span("bench.rung_incremental",
                           "n=" + std::to_string(rung.tasks));
      incremental = scheduler::dagHetPart(g, cluster, cfg);
      out.incrementalSeconds = span.seconds();
    }
    if (rung.differential) {
      scheduler::ScheduleResult reference;
      {
        cfg.options.fullReevaluation = true;
        const obs::Span span("bench.rung_full",
                             "n=" + std::to_string(rung.tasks));
        reference = scheduler::dagHetPart(g, cluster, cfg);
        out.fullSeconds = span.seconds();
        cfg.options.fullReevaluation = false;
      }
      if (incremental.feasible != reference.feasible ||
          (incremental.feasible &&
           (incremental.makespan != reference.makespan ||
            incremental.blockOf != reference.blockOf ||
            incremental.procOfBlock != reference.procOfBlock))) {
        std::cerr << "error: incremental and full-reevaluation schedules "
                     "diverge on rung n="
                  << rung.tasks << " (makespans " << incremental.makespan
                  << " vs " << reference.makespan << ")\n";
        return 1;
      }
    }
    out.feasible = incremental.feasible;
    out.makespan = incremental.makespan;
    out.blocks = incremental.stats.numBlocks;
    measureProbes(g, cluster, probes, rung.differential, out);
    out.peakRssMb = peakRssMb();
    results.push_back(out);
  }

  support::Table table({"rung", "procs", "makespan", "incremental (s)",
                        "full (s)", "end-to-end speedup", "probe speedup",
                        "peak RSS (MB)"});
  for (const RungResult& r : results) {
    const double endToEnd =
        r.incrementalSeconds > 0.0 ? r.fullSeconds / r.incrementalSeconds
                                   : 0.0;
    const double probe = r.probeIncrementalSeconds > 0.0
                             ? r.probeFullSeconds / r.probeIncrementalSeconds
                             : 0.0;
    table.addRow({"n" + std::to_string(r.rung.tasks),
                  std::to_string(r.procs),
                  r.feasible ? support::Table::num(r.makespan, 3) : "-",
                  support::Table::num(r.incrementalSeconds, 3),
                  support::Table::num(r.fullSeconds, 3),
                  r.fullSeconds > 0.0 ? support::Table::num(endToEnd, 2) + "x"
                                      : "-",
                  r.probeFullSeconds > 0.0
                      ? support::Table::num(probe, 2) + "x"
                      : "-",
                  support::Table::num(r.peakRssMb, 1)});
  }
  table.print(std::cout);
  std::cout << "\nboth modes produce bit-identical schedules (verified on "
               "every differential rung;\nthe 10^5/10^6 rungs run the "
               "incremental path only); speedups are wall-clock\nand grow "
               "with the rung; peak RSS is the process high-water mark so "
               "far\n";

  {
    // Headline solver counters for the CI job summary. Whole-process totals
    // across all rungs, deterministic for any OMP_NUM_THREADS.
    std::map<std::string, std::uint64_t> c;
    for (const obs::CounterValue& v : obs::counterSnapshot()) c[v.name] = v.value;
    const auto rate = [](std::uint64_t hits, std::uint64_t misses) {
      const std::uint64_t total = hits + misses;
      return total == 0 ? std::string("-")
                        : support::Table::percent(static_cast<double>(hits) /
                                                  static_cast<double>(total));
    };
    support::Table counters({"counter", "value"});
    counters.addRow({"eval probes (assign)",
                     std::to_string(c["eval.probes.assign"])});
    counters.addRow({"eval probes (merged)",
                     std::to_string(c["eval.probes.merged"])});
    counters.addRow({"swap pairs probed",
                     std::to_string(c["swap.pairs_probed"])});
    counters.addRow({"merge probes", std::to_string(c["merge.probes"])});
    counters.addRow({"merge memo hit rate",
                     rate(c["merge.memo.hits"], c["merge.memo.misses"])});
    counters.addRow({"repair heap pushes",
                     std::to_string(c["eval.repair_pushes"])});
    counters.addRow({"peak span depth",
                     std::to_string(c["span.peak_depth"])});
    std::cout << "\nheadline counters (totals across all rungs):\n";
    counters.print(std::cout);
  }

  // JSON export: quality columns gate; *_seconds / *_runtime_ratio /
  // *_rss_mb are ignored by bench/compare_bench_json.py.
  support::JsonArray rows;
  for (const RungResult& r : results) {
    support::JsonObject row;
    row.emplace("config", support::JsonValue(
                              "n" + std::to_string(r.rung.tasks) + "-p" +
                              std::to_string(r.procs)));
    row.emplace("num_tasks",
                support::JsonValue(static_cast<double>(r.rung.tasks)));
    row.emplace("num_procs",
                support::JsonValue(static_cast<double>(r.procs)));
    row.emplace("feasible",
                support::JsonValue(static_cast<double>(r.feasible)));
    row.emplace("makespan", support::JsonValue(r.makespan));
    row.emplace("blocks",
                support::JsonValue(static_cast<double>(r.blocks)));
    row.emplace("end_to_end_incremental_seconds",
                support::JsonValue(r.incrementalSeconds));
    row.emplace("end_to_end_full_seconds",
                support::JsonValue(r.fullSeconds));
    row.emplace("end_to_end_speedup_runtime_ratio",
                support::JsonValue(r.incrementalSeconds > 0.0
                                       ? r.fullSeconds / r.incrementalSeconds
                                       : 0.0));
    row.emplace("probe_incremental_seconds",
                support::JsonValue(r.probeIncrementalSeconds));
    row.emplace("probe_full_seconds",
                support::JsonValue(r.probeFullSeconds));
    row.emplace(
        "probe_speedup_runtime_ratio",
        support::JsonValue(r.probeIncrementalSeconds > 0.0
                               ? r.probeFullSeconds / r.probeIncrementalSeconds
                               : 0.0));
    row.emplace("peak_rss_mb", support::JsonValue(r.peakRssMb));
    rows.emplace_back(std::move(row));
  }
  support::JsonObject meta;
  meta.emplace("scale", support::JsonValue(std::string(scaleName)));
  // The bench pins a single-k' sweep (see above), whatever DAGPM_SWEEP says.
  meta.emplace("sweep", support::JsonValue(std::string("single")));
  meta.emplace("seeds", support::JsonValue(std::to_string(env.seeds)));
  const experiments::ExportResult exported =
      experiments::maybeExport("scheduler_scaling", nullptr, [&] {
        return experiments::benchDocument("scheduler_scaling", meta, rows);
      });
  if (!exported.ok()) return 1;

  bool anyFeasible = false;
  for (const RungResult& r : results) anyFeasible |= r.feasible;
  if (results.empty() || !anyFeasible) {
    std::cerr << "error: no rung produced a feasible schedule\n";
    return 1;
  }
  return 0;
}
