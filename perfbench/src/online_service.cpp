// online_service: a closed loop of clients against a SchedulerService. Each
// client sends a request, waits for the schedule, executes it under noise
// and faults (resched::runOnline on the cluster plus spares) and only then
// sends its next request. A round is every client's fixed, seeded request
// list against a freshly started service; a run repeats whole rounds until
// its length is reached.

#include <algorithm>
#include <future>
#include <iostream>
#include <memory>
#include <mutex>
#include <omp.h>
#include <thread>

#include "common.hpp"
#include "inputs.hpp"
#include "layers.hpp"
#include "obs/obs.hpp"
#include "outputs.hpp"
#include "service/fingerprint.hpp"
#include "service/service.hpp"
#include "workflows/families.hpp"
#include "workflows/json_io.hpp"
#include "workflows/real_world.hpp"

namespace perfbench {

namespace sched = dagpm::scheduler;
namespace wf = dagpm::workflows;
using sched::ScheduleResult;

namespace {

// Each client's request list has a fixed make-up, in a seeded order: six
// fresh 200-task workflows of every synthetic family, two fresh instances
// of every real-world workflow, and eight repeats of the client's earlier
// requests (13%).
constexpr int kSyntheticPerFamily = 6;
constexpr int kRealPerKind = 2;
constexpr int kRepeatsPerClient = 8;
constexpr int kRequestsPerClient =
    7 * kSyntheticPerFamily + 5 * kRealPerKind + kRepeatsPerClient;

/// Clients and service workers: nproc / 2, at least 1 and at most 2.
int clientCount() { return std::clamp(omp_get_num_procs() / 2, 1, 2); }

struct OnlinePlan {
  std::vector<Document> docs;                   // distinct workflows
  std::vector<std::vector<std::size_t>> lists;  // per client: doc indices
};

OnlinePlan makePlan(std::uint64_t seed, int clients) {
  enum Kind : int { kSynthetic, kReal, kRepeat };
  const std::vector<wf::Family> families = wf::allFamilies();
  OnlinePlan plan;
  for (int c = 0; c < clients; ++c) {
    std::uint64_t draws = 0;
    const auto next = [&] { return mixSeed(mixSeed(seed, 5000 + c), draws++); };
    // The first request is always fresh; the rest are shuffled.
    std::vector<int> kinds(5 * kRealPerKind, kReal);
    kinds.insert(kinds.end(), kRepeatsPerClient, kRepeat);
    kinds.insert(kinds.end(), 7 * kSyntheticPerFamily - 1, kSynthetic);
    for (std::size_t i = kinds.size(); i > 1; --i) {
      std::swap(kinds[i - 1], kinds[next() % i]);
    }
    kinds.insert(kinds.begin(), kSynthetic);
    // Families and real-world workflows are taken in rotation.
    std::size_t synthetic = next() % families.size();
    std::size_t real = next();
    std::vector<std::size_t> fresh;
    std::vector<std::size_t>& list = plan.lists.emplace_back();
    for (const int kind : kinds) {
      if (kind == kRepeat) {
        list.push_back(fresh[next() % fresh.size()]);
        continue;
      }
      Document doc;
      if (kind == kReal) {
        wf::RealWorldConfig cfg;
        cfg.seed = next();
        std::vector<wf::RealWorkflow> suite = wf::realWorldSuite(cfg);
        const wf::RealWorkflow& pick = suite[real++ % suite.size()];
        doc.name = "real-" + pick.name + "-g" + std::to_string(cfg.seed);
        doc.json = wf::workflowToJson(pick.dag, doc.name);
      } else {
        const wf::Family family = families[synthetic++ % families.size()];
        wf::GenConfig cfg;
        cfg.numTasks = 200;
        cfg.seed = next();
        doc.name = wf::familyName(family) + "-n200-g" + std::to_string(cfg.seed);
        doc.json = wf::workflowToJson(wf::generate(family, cfg), doc.name);
      }
      fresh.push_back(plan.docs.size());
      list.push_back(plan.docs.size());
      plan.docs.push_back(std::move(doc));
    }
  }
  return plan;
}

/// One request-then-execute cycle.
struct Cycle {
  std::size_t doc = 0;
  double latency = 0.0;  // submit -> response ready, timed by the client
  double queueSeconds = 0.0;
  ScheduleResult schedule;
  bool executed = false;
  dagpm::resched::RescheduleResult run;
};

struct RoundResult {
  std::vector<std::vector<Cycle>> cycles;  // per client
  double seconds = 0.0;
  dagpm::service::ServiceMetrics metrics;
  std::vector<std::string> errors;
};

RoundResult runRound(const std::vector<Instance>& instances,
                     const std::vector<dagpm::platform::Cluster>& augmented,
                     const OnlinePlan& plan, std::uint64_t seed,
                     LayerMetrics* layers) {
  RoundResult out;
  out.cycles.resize(plan.lists.size());
  std::mutex mu;  // guards out.errors and the layer timings
  const Stopwatch watch;
  {
    dagpm::service::ServiceConfig scfg;
    scfg.numThreads = static_cast<int>(plan.lists.size());
    dagpm::service::SchedulerService service(scfg);
    const auto client = [&](std::size_t c) {
      try {
        for (std::size_t i = 0; i < plan.lists[c].size(); ++i) {
          Cycle cycle;
          cycle.doc = plan.lists[c][i];
          const Instance& inst = instances[cycle.doc];
          dagpm::service::Request request;
          request.dag = &inst.dag;
          request.cluster = &inst.cluster;
          const Stopwatch latency;
          dagpm::service::Response response =
              service.submit(std::move(request)).get();
          cycle.latency = latency.seconds();
          cycle.queueSeconds = response.queueSeconds;
          cycle.schedule = std::move(response.schedule);
          if (cycle.schedule.feasible) {
            const std::uint64_t runSeed =
                mixSeed(seed, 9000 + c * kRequestsPerClient + i);
            const Stopwatch online;
            cycle.run = executeSchedule(inst.dag, augmented[cycle.doc],
                                        cycle.schedule, runSeed);
            cycle.executed = true;
            if (layers) {
              const double onlineSeconds = online.seconds();
              double simSeconds = 0.0;
              const bool simOk = simulateNoisy(inst.dag, augmented[cycle.doc],
                                               cycle.schedule, runSeed,
                                               &simSeconds) >= 0.0;
              const std::lock_guard<std::mutex> lock(mu);
              layers->onlineSeconds += onlineSeconds;
              layers->simulateSeconds += simSeconds;
              if (!simOk) out.errors.push_back(inst.name + ": noise-only simulation failed");
            }
          }
          out.cycles[c].push_back(std::move(cycle));
        }
      } catch (const std::exception& e) {
        const std::lock_guard<std::mutex> lock(mu);
        out.errors.push_back(std::string("client failed: ") + e.what());
      }
    };
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < plan.lists.size(); ++c) {
      threads.emplace_back(client, c);
    }
    for (std::thread& t : threads) t.join();
    out.metrics = service.metrics();
  }
  out.seconds = watch.seconds();
  return out;
}

struct Setup {
  std::vector<Instance> instances;
  std::vector<dagpm::platform::Cluster> augmented;
};

Setup setUp(const OnlinePlan& plan) {
  Setup s;
  s.instances = parseInstances(plan.docs, ClusterKind::kPaper);
  for (const Instance& inst : s.instances) s.augmented.push_back(withSpares(inst.cluster));
  return s;
}

/// Cold direct passes over every distinct workflow, moved round the cores
/// as in the solver workloads: at least two, and more while another fits in
/// `budget` seconds. Returns the schedules and sets *seconds to the sum over
/// workflows of each workflow's fastest solve.
std::vector<ScheduleResult> coldSolves(const Setup& setup, double budget,
                                       Report& report, double* seconds) {
  std::vector<ScheduleResult> cold(setup.instances.size());
  std::vector<double> best(cold.size());
  const CoreRotation rotation;
  const Stopwatch watch;
  for (std::size_t pass = 0;
       pass < 2 || watch.seconds() * static_cast<double>(pass + 1) /
                           static_cast<double>(pass) <= budget;
       ++pass) {
    for (std::size_t d = 0; d < cold.size(); ++d) {
      rotation.pin(d + pass);
      const Stopwatch solve;
      ScheduleResult r = sched::dagHetPart(setup.instances[d].dag,
                                           setup.instances[d].cluster);
      const double t = solve.seconds();
      if (pass == 0) {
        best[d] = t;
        cold[d] = std::move(r);
      } else {
        best[d] = std::min(best[d], t);
        if (!sameSchedule(r, cold[d])) {
          report.fail(setup.instances[d].name + ": repeated solve differs");
        }
      }
    }
  }
  *seconds = 0.0;
  for (const double t : best) *seconds += t;
  return cold;
}

/// Checks shared by traced and untraced runs, on the first round: every
/// served schedule (cache hits included) equals the cold direct solve of its
/// workflow, every schedule passes the checker and the zero-noise replay,
/// and every execution passes its checks. The executed makespan geomean is
/// taken over the first execution of each distinct workflow.
ScheduleQuality checkRound(const Setup& setup, const RoundResult& round,
                           const std::vector<ScheduleResult>& cold,
                           std::uint64_t seed, Report& report,
                           LayerMetrics* layers) {
  for (const std::string& e : round.errors) report.fail(e);
  std::vector<char> seen(setup.instances.size(), 0);
  std::vector<double> executed;
  for (const std::vector<Cycle>& list : round.cycles) {
    for (const Cycle& cycle : list) {
      const Instance& inst = setup.instances[cycle.doc];
      const bool fresh = !seen[cycle.doc];
      seen[cycle.doc] = 1;
      if (!sameSchedule(cycle.schedule, cold[cycle.doc])) {
        report.fail(inst.name + ": served schedule differs from a cold solve");
      }
      if (!cycle.executed) continue;
      if (const std::string e = checkExecution(inst.dag, cycle.run); !e.empty()) {
        report.fail(inst.name + ": " + e);
      } else if (fresh) {
        executed.push_back(cycle.run.finalMakespan);
      }
    }
  }
  ScheduleQuality quality =
      checkAndExecute(setup.instances, cold, seed, report, layers, false);
  quality.executedGeomean = geomean(executed);
  selfTest(setup.instances, cold, report);
  return quality;
}

void setQuality(const ScheduleQuality& q, Report& report) {
  report.set("makespan_geomean", q.makespanGeomean, "time_units");
  report.set("speedup_vs_daghetmem", q.speedupVsDagHetMem, "x");
  report.set("executed_makespan_geomean", q.executedGeomean, "time_units");
}

void runUntraced(const RunArgs& args, Report& report) {
  const OnlinePlan plan = makePlan(args.seed, clientCount());
  std::vector<double> setupTimes;
  Setup setup;
  for (int r = 0; r < 15; ++r) {
    const Stopwatch watch;
    Setup s = setUp(plan);
    auto service = std::make_unique<dagpm::service::SchedulerService>(
        dagpm::service::ServiceConfig{.numThreads = clientCount()});
    setupTimes.push_back(watch.seconds());
    setup = std::move(s);
  }

  // Whole rounds for half the run length; the cold passes after the loop
  // (solve_s) take the other half. As solve_s takes each workflow's fastest
  // solve, the latencies are each request's fastest over the rounds, and
  // requests_per_s is that of the fastest round.
  std::vector<RoundResult> rounds;
  double elapsed = 0.0;
  std::size_t cycles = 0;
  std::size_t fastest = 0;
  do {
    rounds.push_back(runRound(setup.instances, setup.augmented, plan, args.seed,
                              nullptr));
    elapsed += rounds.back().seconds;
    if (rounds.back().seconds < rounds[fastest].seconds) {
      fastest = rounds.size() - 1;
    }
    for (const std::vector<Cycle>& list : rounds.back().cycles) {
      cycles += list.size();
      for (std::size_t i = 0; i < list.size(); ++i) report.operation();
    }
  } while (elapsed < args.seconds / 2.0);
  // Every round repeats the same operations: same schedules, same outcomes.
  for (std::size_t r = 1; r < rounds.size(); ++r) {
    for (std::size_t c = 0; c < rounds[r].cycles.size(); ++c) {
      const std::vector<Cycle>& a = rounds[0].cycles[c];
      const std::vector<Cycle>& b = rounds[r].cycles[c];
      for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
        if (!sameSchedule(a[i].schedule, b[i].schedule) ||
            a[i].run.finalMakespan != b[i].run.finalMakespan) {
          report.fail("round " + std::to_string(r) + " differs from round 0");
        }
      }
    }
  }
  std::cout << "online_service: " << clientCount() << " clients, "
            << rounds.size() << " rounds, " << cycles << " cycles, "
            << plan.docs.size() << " distinct workflows\n";

  report.set("setup_s", median(setupTimes), "s");
  std::vector<double> latencies;
  std::size_t fastestCycles = 0;
  for (std::size_t c = 0; c < rounds[0].cycles.size(); ++c) {
    fastestCycles += rounds[fastest].cycles[c].size();
    for (std::size_t i = 0; i < rounds[0].cycles[c].size(); ++i) {
      double latency = rounds[0].cycles[c][i].latency;
      for (const RoundResult& round : rounds) {
        if (i < round.cycles[c].size()) {
          latency = std::min(latency, round.cycles[c][i].latency);
        }
      }
      latencies.push_back(latency);
    }
  }
  report.set("requests_per_s",
             static_cast<double>(fastestCycles) / rounds[fastest].seconds, "1/s");
  report.set("latency_p50_s", quantile(latencies, 0.5), "s");
  report.set("latency_tail_s", latencyTail(latencies), "s");
  double solveSeconds = 0.0;
  const std::vector<ScheduleResult> cold =
      coldSolves(setup, args.seconds / 2.0, report, &solveSeconds);
  setQuality(checkRound(setup, rounds[0], cold, args.seed, report, nullptr),
             report);
  report.set("solve_s", solveSeconds, "s");
  report.set("peak_rss_mb", peakRssMb(), "MiB");
}

void runTraced(const RunArgs& args, Report& report) {
  const OnlinePlan plan = makePlan(args.seed, clientCount());
  LayerMetrics layers;
  Setup setup;
  {
    const Stopwatch watch;
    std::vector<dagpm::graph::Dag> dags;
    for (const Document& doc : plan.docs) dags.push_back(parseDocument(doc));
    layers.parseSeconds = watch.seconds();
    setup = setUp(plan);
  }
  const sched::DagHetPartConfig config;
  {
    const Stopwatch watch;
    std::uint64_t sink = 0;
    for (const std::vector<std::size_t>& list : plan.lists) {
      for (const std::size_t d : list) {
        sink ^= dagpm::service::fingerprintRequest(
            setup.instances[d].dag, setup.instances[d].cluster, config,
            dagpm::service::Algorithm::kDagHetPart);
      }
    }
    layers.fingerprintSeconds = watch.seconds();
    if (sink == 0) std::cout << "";  // keep the fingerprints observable
  }

  dagpm::obs::resetForTest();
  dagpm::obs::enableCounters(true);
  const std::vector<ScheduleResult> cold =
      replayAndSolve(setup.instances, config, args.threads, layers, report);
  const Counters before = counterSnapshot();
  const RoundResult round =
      runRound(setup.instances, setup.augmented, plan, args.seed, &layers);
  layers.executionCounters = counterDelta(before, counterSnapshot());
  std::vector<double> waits;
  for (const std::vector<Cycle>& list : round.cycles) {
    for (const Cycle& cycle : list) {
      waits.push_back(cycle.queueSeconds);
      report.operation();
    }
  }
  layers.queueWaitP50 = median(waits);
  layers.serviceSolves = round.metrics.solves;
  layers.serviceCacheHits = round.metrics.cacheHits;
  layers.serviceCoalesced = round.metrics.coalesced;
  checkRound(setup, round, cold, args.seed, report, &layers);
  emitLayerMetrics(layers, report);
}

}  // namespace

void runOnlineService(const RunArgs& args, Report& report) {
  if (args.trace) {
    runTraced(args, report);
  } else {
    runUntraced(args, report);
  }
}

}  // namespace perfbench
