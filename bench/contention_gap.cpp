// Contention gap: how optimistic is the paper's uncontended Eq. (1)-(2)
// makespan under fair-share link contention, and how much of the gap does
// contention-aware scheduling (SchedulerOptions::contentionAware, the shared
// comm::CommCostModel threaded through Steps 3-4) win back? Not a paper
// figure — the paper's cost model and its evaluation both ignore contention;
// this bench sweeps a CCR ladder (bandwidth = 1/ccr) over the real +
// small-synthetic instance set, schedules each instance with the oblivious
// and the aware pipeline, and judges both against the deterministic
// fair-share block-synchronous simulation.
//
// Everything is deterministic and transcendental-free in the per-instance
// decisions, so the quick-scale aggregates are regression-gated against
// bench/baselines/BENCH_contention_gap.quick.json like fig03/table04.

#include <iostream>

#include "bench_common.hpp"
#include "experiments/contention.hpp"

int main() {
  using namespace dagpm;
  bench::BenchContext ctx;
  bench::printPreamble(
      ctx, "Contention gap: static optimism vs contention-aware recovery",
      "extension (no paper figure); expected shape: the optimism gap grows "
      "with the CCR, and contention-aware Step-3/4 search wins back part of "
      "it (aware gain > 1 where transfers overlap)");

  const platform::Cluster cluster = platform::makeCluster(
      platform::Heterogeneity::kDefault, platform::ClusterSize::kDefault);

  std::vector<experiments::Instance> instances =
      experiments::makeRealInstances(ctx.env().seeds);
  for (experiments::Instance& inst : experiments::makeSyntheticInstances(
           ctx.env().smallSizes(), bench::SizeBand::kSmall,
           ctx.env().seeds)) {
    instances.push_back(std::move(inst));
  }

  const std::vector<double> ccrLadder{0.5, 1.0, 2.0, 4.0};

  experiments::ContentionRunnerOptions options;
  options.part.sweep = ctx.sweep();

  const std::vector<experiments::ContentionOutcome> outcomes =
      experiments::runContention(instances, cluster, ccrLadder, options);

  support::Table table({"ccr", "band", "workflows", "optimism gap",
                        "aware gain", "recovered", "wins/losses"});
  for (const auto& [key, agg] : experiments::aggregateContention(outcomes)) {
    table.addRow({key.first, key.second, std::to_string(agg.comparable),
                  support::Table::num(agg.geomeanOptimismGap, 3) + "x",
                  support::Table::num(agg.geomeanAwareGain, 3) + "x",
                  support::Table::percent(agg.meanRecoveredFraction),
                  std::to_string(agg.awareWins) + "/" +
                      std::to_string(agg.awareLosses)});
  }
  table.print(std::cout);
  std::cout << "\noptimism gap = fair-share simulated / static Eq.(1)-(2) "
               "makespan of the oblivious schedule;\naware gain = oblivious "
               "/ contention-aware simulated makespan; recovered = share of "
               "the gap\nthe aware search closes\n";

  const experiments::ExportResult exported = experiments::maybeExport(
      "contention_gap",
      [&](const std::string& path) {
        return experiments::writeCsvColumns(
            path, experiments::contentionCsvColumns(), outcomes);
      },
      [&] {
        return experiments::benchDocument(
            "contention_gap",
            ctx.meta({{"comm", "block-synchronous"}, {"contention", "1"}}),
            experiments::contentionJsonRows(outcomes));
      });
  if (!exported.ok()) return 1;
  if (outcomes.empty()) {
    std::cerr << "error: the harness produced no outcomes\n";
    return 1;
  }
  bool anyComparable = false;
  for (const experiments::ContentionOutcome& out : outcomes) {
    anyComparable =
        anyComparable || (out.obliviousFeasible && out.awareFeasible);
  }
  if (!anyComparable) {
    std::cerr << "error: no instance was schedulable in both modes\n";
    return 1;
  }
  return 0;
}
