// Robustness under runtime noise: how gracefully do the HetPart and HetMem
// schedules degrade when task runtimes fluctuate? Not a paper figure — the
// paper evaluates the static Eq. (1)-(2) makespan only; this bench replays
// both schedulers' schedules through the discrete-event simulator (task-
// eager semantics, fair-share link contention) under a lognormal noise
// ladder and reports geomean slowdown vs. the static prediction, tail (p95)
// slowdown, and memory-overflow rates per noise level.

#include <iostream>

#include "bench_common.hpp"
#include "experiments/robustness.hpp"

int main() {
  using namespace dagpm;
  bench::BenchContext ctx;
  bench::printPreamble(
      ctx, "Robustness: schedule degradation under lognormal runtime noise",
      "extension (no paper figure); expected shape: slowdown grows with "
      "sigma, HetPart's tighter critical path degrades faster than HetMem's "
      "serial chain");

  const platform::Cluster cluster = platform::makeCluster(
      platform::Heterogeneity::kDefault, platform::ClusterSize::kDefault);

  // Real + small bands keep the scheduling phase minutes-fast while still
  // covering every workflow family; the Monte-Carlo phase dominates anyway.
  std::vector<experiments::Instance> instances =
      experiments::makeRealInstances(ctx.env().seeds);
  for (experiments::Instance& inst : experiments::makeSyntheticInstances(
           ctx.env().smallSizes(), bench::SizeBand::kSmall,
           ctx.env().seeds)) {
    instances.push_back(std::move(inst));
  }

  const std::vector<experiments::NoiseLevel> levels =
      experiments::lognormalLadder({0.0, 0.05, 0.1, 0.2, 0.4});

  experiments::RobustnessRunnerOptions options;
  options.part.sweep = ctx.sweep();
  options.robustness.sim.comm = sim::CommModel::kTaskEager;
  options.robustness.sim.contention = true;
  options.robustness.seed = 42;
  switch (ctx.env().scale) {
    case support::BenchScale::kQuick: options.robustness.replications = 10; break;
    case support::BenchScale::kDefault: options.robustness.replications = 40; break;
    case support::BenchScale::kFull: options.robustness.replications = 200; break;
  }

  const std::vector<experiments::RobustnessOutcome> outcomes =
      experiments::runRobustness(instances, cluster, levels, options);

  support::Table table({"noise", "scheduler", "instances", "mean slowdown",
                        "p95 slowdown", "worst", "overflow runs"});
  for (const auto& [key, agg] : experiments::aggregateRobustness(outcomes)) {
    table.addRow({key.first, key.second, std::to_string(agg.instances),
                  support::Table::num(agg.geomeanMeanSlowdown, 3) + "x",
                  support::Table::num(agg.geomeanP95Slowdown, 3) + "x",
                  support::Table::num(agg.maxSlowdown, 3) + "x",
                  std::to_string(agg.overflowRuns) + " (" +
                      support::Table::percent(agg.overflowFraction) + ")"});
  }
  table.print(std::cout);
  std::cout << "\nslowdown = simulated / static Eq.(1)-(2) makespan; values "
               "< 1x mean the task-eager\nexecution beats the conservative "
               "block-synchronous prediction\n";

  const experiments::ExportResult exported = experiments::maybeExport(
      "robustness_noise",
      [&](const std::string& path) {
        return experiments::writeCsvColumns(
            path, experiments::robustnessCsvColumns(), outcomes);
      },
      [&] {
        return experiments::benchDocument(
            "robustness_noise",
            ctx.meta({{"replications",
                       std::to_string(options.robustness.replications)},
                      {"comm", "task-eager"},
                      {"contention", "1"}}),
            experiments::robustnessJsonRows(outcomes));
      });
  if (!exported.ok()) return 1;
  if (outcomes.empty()) {
    std::cerr << "error: no schedule could be simulated\n";
    return 1;
  }
  for (const experiments::RobustnessOutcome& out : outcomes) {
    if (!out.summary.ok) {
      std::cerr << "error: simulation failed on " << out.instance << " ("
                << out.config << "/" << out.scheduler
                << "): " << out.summary.error << "\n";
      return 1;
    }
  }
  return 0;
}
