// perfbench: runs one workload for a given seed and run length and
// prints every metric, then the result as one JSON line (the last line of
// standard output).
//
//   perfbench --workload <paper_merge|ladder_swap|online_service>
//             --seed <n> --seconds <s> --trace <0|1>
//
// perfbench/run.py builds this binary and sets the OpenMP thread count of
// each workload; see perfbench/README.md.

#include <cstdlib>
#include <exception>
#include <iostream>
#include <omp.h>
#include <string>

#include "common.hpp"

namespace {

int usage() {
  std::cerr << "usage: perfbench --workload <paper_merge|ladder_swap|"
               "online_service> --seed <n> --seconds <s> --trace <0|1>\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        args.workload = value;
      } else if (key == "--seed") {
        args.seed = std::stoull(value);
      } else if (key == "--seconds") {
        args.seconds = std::stod(value);
      } else if (key == "--trace") {
        args.trace = value != "0";
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (argc % 2 == 0) return usage();
  args.threads = omp_get_max_threads();

  perfbench::Report report;
  try {
    if (args.workload == "paper_merge") {
      perfbench::runPaperMerge(args, report);
    } else if (args.workload == "ladder_swap") {
      perfbench::runLadderSwap(args, report);
    } else if (args.workload == "online_service") {
      perfbench::runOnlineService(args, report);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  std::cout << "workload " << args.workload << ", seed " << args.seed << ", "
            << args.threads << " OpenMP threads, trace " << args.trace << "\n";
  for (const auto& [name, metric] : report.metrics()) {
    std::cout << "  " << name << " = " << metric.value << " " << metric.unit
              << "\n";
  }
  std::cout << report.json() << std::endl;
  return report.correct() ? 0 : 1;
}
