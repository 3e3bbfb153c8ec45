#include "outputs.hpp"

#include <future>
#include <iostream>
#include <omp.h>

#include "checker.hpp"
#include "scheduler/daghetmem.hpp"
#include "service/fingerprint.hpp"
#include "service/service.hpp"

namespace perfbench {

namespace sched = dagpm::scheduler;
using sched::ScheduleResult;

ScheduleQuality checkAndExecute(const std::vector<Instance>& instances,
                                const std::vector<ScheduleResult>& schedules,
                                std::uint64_t seed, Report& report,
                                LayerMetrics* layers, bool execute) {
  std::vector<double> makespans;
  std::vector<double> ratios;
  std::vector<double> executed;
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const Instance& inst = instances[i];
    const ScheduleResult& part = schedules[i];
    const ScheduleResult mem = sched::dagHetMem(inst.dag, inst.cluster);
    const auto check = [&](const char* label, const ScheduleResult& s,
                           const std::vector<dagpm::graph::VertexId>* order) {
      const CheckResult r = checkSchedule(inst.dag, inst.cluster, s, order);
      if (layers) layers->traversalSeconds += r.traversalSeconds;
      if (!r.ok()) {
        report.fail(inst.name + ": " + label + " schedule rejected (" +
                    verdictName(r.verdict) + "): " + r.detail);
      }
    };
    if (part.feasible) check("DagHetPart", part, nullptr);
    if (mem.feasible) {
      const std::vector<dagpm::graph::VertexId> order = dagHetMemOrder(inst.dag);
      check("DagHetMem", mem, &order);
    }
    if (part.feasible) {
      makespans.push_back(part.makespan);
      if (mem.feasible) ratios.push_back(mem.makespan / part.makespan);
      if (const std::string e = checkStaticReplay(inst.dag, inst.cluster, part);
          !e.empty()) {
        report.fail(inst.name + ": " + e);
      }
    }
    if (execute && part.feasible) {
      const dagpm::platform::Cluster augmented = withSpares(inst.cluster);
      const std::uint64_t runSeed = mixSeed(seed, 7000 + i);
      const Stopwatch watch;
      const dagpm::resched::RescheduleResult run =
          executeSchedule(inst.dag, augmented, part, runSeed);
      if (layers) {
        layers->onlineSeconds += watch.seconds();
        if (simulateNoisy(inst.dag, augmented, part, runSeed,
                          &layers->simulateSeconds) < 0.0) {
          report.fail(inst.name + ": noise-only simulation failed");
        }
      }
      if (const std::string e = checkExecution(inst.dag, run); !e.empty()) {
        report.fail(inst.name + ": " + e);
      } else {
        executed.push_back(run.finalMakespan);
      }
    }
    report.operation();
  }
  return {geomean(makespans), geomean(ratios), geomean(executed)};
}

std::vector<ScheduleResult> replayAndSolve(
    const std::vector<Instance>& instances, const sched::DagHetPartConfig& config,
    int threads, LayerMetrics& layers, Report& report) {
  omp_set_num_threads(1);
  const Counters c0 = counterSnapshot();
  std::vector<ScheduleResult> replayed;
  const Stopwatch replayWatch;
  for (const Instance& inst : instances) {
    replayed.push_back(
        replayDagHetPart(inst.dag, inst.cluster, config, layers.replay));
  }
  const double replaySeconds = replayWatch.seconds();
  const Counters c1 = counterSnapshot();
  omp_set_num_threads(omp_get_num_procs());
  std::vector<ScheduleResult> schedules;
  for (const Instance& inst : instances) {
    schedules.push_back(sched::dagHetPart(inst.dag, inst.cluster, config));
  }
  const Counters c2 = counterSnapshot();
  omp_set_num_threads(threads);

  layers.solverCounters = counterDelta(c0, c1);
  for (std::size_t i = 0; i < instances.size(); ++i) {
    if (!sameSchedule(replayed[i], schedules[i])) ++layers.replayMismatches;
  }
  for (const std::string& name :
       counterMismatches(layers.solverCounters, counterDelta(c1, c2))) {
    report.fail("counter " + name + " differs between 1 and " +
                std::to_string(omp_get_num_procs()) + " threads");
  }
  if (layers.replayMismatches > 0) {
    std::cout << "warning: the step replay differs from dagHetPart on "
              << layers.replayMismatches
              << " workflows; its layer numbers are invalid\n";
  }
  std::cout << "traced replay of " << instances.size() << " workflows took "
            << replaySeconds << " s\n";
  report.set("trace.replay_s", replaySeconds, "s");
  return schedules;
}

void serveAll(const std::vector<Instance>& instances,
              const std::vector<ScheduleResult>& schedules,
              const sched::DagHetPartConfig& config, LayerMetrics& layers,
              Report& report) {
  {
    const Stopwatch watch;
    std::uint64_t sink = 0;
    for (const Instance& inst : instances) {
      sink ^= dagpm::service::fingerprintRequest(
          inst.dag, inst.cluster, config, dagpm::service::Algorithm::kDagHetPart);
    }
    layers.fingerprintSeconds = watch.seconds();
    if (sink == 0) std::cout << "";  // keep the fingerprints observable
  }
  dagpm::service::ServiceConfig scfg;
  scfg.numThreads = omp_get_num_procs();
  dagpm::service::SchedulerService service(scfg);
  std::vector<std::future<dagpm::service::Response>> futures;
  for (const Instance& inst : instances) {
    dagpm::service::Request request;
    request.dag = &inst.dag;
    request.cluster = &inst.cluster;
    request.config = config;
    futures.push_back(service.submit(std::move(request)));
  }
  std::vector<double> waits;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const dagpm::service::Response response = futures[i].get();
    waits.push_back(response.queueSeconds);
    if (!sameSchedule(response.schedule, schedules[i])) {
      report.fail(instances[i].name + ": service schedule differs from the "
                  "direct solve");
    }
  }
  const dagpm::service::ServiceMetrics metrics = service.metrics();
  layers.queueWaitP50 = median(waits);
  layers.serviceSolves = metrics.solves;
  layers.serviceCacheHits = metrics.cacheHits;
  layers.serviceCoalesced = metrics.coalesced;
}

void selfTest(const std::vector<Instance>& instances,
              const std::vector<ScheduleResult>& schedules, Report& report) {
  std::vector<SelfTestCase> cases;
  for (std::size_t i = 0; i < instances.size(); ++i) {
    cases.push_back({&instances[i].dag, &instances[i].cluster, &schedules[i]});
  }
  for (const std::string& failure : checkerSelfTest(cases)) report.fail(failure);
  for (int i = 0; i < 3; ++i) report.operation();
}

}  // namespace perfbench
