// Online rescheduling recovery: how much noise-induced degradation can
// runtime repair win back? Not a paper figure — the paper's schedules are
// static; this bench executes both schedulers' schedules through the online
// rescheduling driver (src/resched) under a straggler-noise ladder and
// compares trigger policies (no-resched baseline / fixed-interval /
// event-triggered lateness) by mean simulated makespan, recovered fraction
// of the degradation, and splices per run.
//
// The noise ladder is straggler-based (Bernoulli draws, no transcendental
// functions), so the whole execution — triggers, repair decisions, realized
// makespans — is bit-stable across compilers and libms; that is what lets
// bench/baselines/BENCH_resched_recovery.quick.json gate this bench in CI
// alongside the fig03/table04 baselines. Lognormal recovery is exercised by
// the integration tests instead.

#include <iostream>

#include "bench_common.hpp"
#include "experiments/resched.hpp"

int main() {
  using namespace dagpm;
  bench::BenchContext ctx;
  bench::printPreamble(
      ctx, "Online rescheduling: recovered makespan under straggler noise",
      "extension (no paper figure); expected shape: event-triggered repair "
      "recovers part of the degradation the no-resched baseline suffers, at "
      "a handful of splices per run");

  const platform::Cluster cluster = platform::makeCluster(
      platform::Heterogeneity::kDefault, platform::ClusterSize::kDefault);

  std::vector<experiments::Instance> instances =
      experiments::makeRealInstances(ctx.env().seeds);
  for (experiments::Instance& inst : experiments::makeSyntheticInstances(
           ctx.env().smallSizes(), bench::SizeBand::kSmall,
           ctx.env().seeds)) {
    instances.push_back(std::move(inst));
  }

  // Deterministic control rung, two straggler strengths, and a transient
  // processor slowdown (the scenario the adaptive speed estimates target).
  // All rungs draw noise without transcendental functions — see the file
  // comment.
  std::vector<experiments::NoiseLevel> levels =
      experiments::stragglerLadder({0.0, 0.1, 0.25}, 4.0);
  {
    experiments::NoiseLevel slow;
    slow.spec.kind = sim::PerturbationKind::kTransientSlowdown;
    slow.spec.slowdownFraction = 0.3;
    slow.spec.slowdownFactor = 3.0;
    slow.config = "slowdown0.3x3";
    levels.push_back(std::move(slow));
  }

  experiments::ReschedulingRunnerOptions options;
  options.part.sweep = ctx.sweep();
  options.seed = 42;
  switch (ctx.env().scale) {
    case support::BenchScale::kQuick: options.replications = 5; break;
    case support::BenchScale::kDefault: options.replications = 20; break;
    case support::BenchScale::kFull: options.replications = 60; break;
  }

  const std::vector<experiments::ReschedOutcome> outcomes =
      experiments::runRescheduling(instances, cluster, levels, options);

  support::Table table({"noise", "policy", "scheduler", "instances",
                        "mean slowdown", "p95 slowdown", "recovered",
                        "resched/run"});
  for (const auto& [key, agg] : experiments::aggregateRescheduling(outcomes)) {
    table.addRow({std::get<0>(key), std::get<1>(key), std::get<2>(key),
                  std::to_string(agg.instances),
                  support::Table::num(agg.geomeanMeanSlowdown, 3) + "x",
                  support::Table::num(agg.geomeanP95Slowdown, 3) + "x",
                  support::Table::percent(agg.recoveredFraction),
                  support::Table::num(agg.meanReschedules, 2)});
  }
  table.print(std::cout);
  std::cout << "\nslowdown = simulated / static Eq.(1)-(2) makespan; "
               "recovered = share of the no-resched\ndegradation won back "
               "(1 = repaired all the way to the static prediction)\n";

  const experiments::ExportResult exported = experiments::maybeExport(
      "resched_recovery",
      [&](const std::string& path) {
        return experiments::writeCsvColumns(
            path, experiments::reschedulingCsvColumns(), outcomes);
      },
      [&] {
        return experiments::benchDocument(
            "resched_recovery",
            ctx.meta({{"replications", std::to_string(options.replications)},
                      {"comm", "block-synchronous"}}),
            experiments::reschedulingJsonRows(outcomes));
      });
  if (!exported.ok()) return 1;
  if (outcomes.empty()) {
    std::cerr << "error: no schedule could be executed\n";
    return 1;
  }
  for (const experiments::ReschedOutcome& out : outcomes) {
    if (!out.ok) {
      std::cerr << "error: rescheduling failed on " << out.instance << " ("
                << out.config << "/" << out.policy << "/" << out.scheduler
                << "): " << out.error << "\n";
      return 1;
    }
  }
  return 0;
}
