#pragma once
// Shared plumbing of the perfbench program: run arguments, the metric sink
// that becomes the final JSON line, operation accounting, and small
// statistics helpers. Everything here is benchmark-side code; the library is
// only reached through its public headers.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int threads = 1;  // OpenMP threads of the process (set by run.py)
};

/// One named metric with its unit, printed in the result JSON.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Result of one benchmark run. `correct` turns false on the first failed
/// output check; the counted unit-rescale operations are the only failures
/// that leave it true.
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = {value, unit};
  }
  /// Records a failed output check (correct = false) with its reason.
  void fail(const std::string& what);
  /// Counts one attempted operation, failed or not (`failed` operations are
  /// the known-fault ones, which do not make the run incorrect).
  void operation(bool failed = false) {
    ++attempted_;
    if (failed) ++failed_;
  }

  [[nodiscard]] bool correct() const noexcept { return errors_.empty(); }
  [[nodiscard]] const std::map<std::string, Metric>& metrics() const {
    return metrics_;
  }
  /// The final JSON line (keys: correct, attempted, failed, metrics).
  [[nodiscard]] std::string json() const;

 private:
  std::map<std::string, Metric> metrics_;
  std::vector<std::string> errors_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Steady-clock stopwatch.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Moves the calling thread round the cores it may run on, one core per
/// call to pin(k), and restores its affinity on destruction. The host's
/// cores run at different and changing speeds, and a lone busy thread stays
/// on one of them for a long time; spreading the repeats of a solve over
/// every core keeps a best-of-k time from depending on where it landed.
class CoreRotation {
 public:
  CoreRotation();
  ~CoreRotation();
  CoreRotation(const CoreRotation&) = delete;
  CoreRotation& operator=(const CoreRotation&) = delete;
  /// Pins the thread to core k modulo the number of allowed cores.
  void pin(std::size_t k) const;

 private:
  std::vector<int> cores_;
};

/// Linear-interpolated quantile q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
/// Geometric mean of positive values; 0 for an empty sample.
double geomean(const std::vector<double>& values);
/// Process peak resident set size in MiB (getrusage).
double peakRssMb();

/// SplitMix64-style mix of a run seed and a stream id (benchmark-side, so
/// the generated inputs do not depend on library internals).
std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t stream);

/// latency_tail_s: the 90th percentile, which has at least ten samples
/// beyond it once a run holds 100 samples. A run with fewer samples has no
/// tail to report and gives its median instead (ladder_swap; see README).
double latencyTail(const std::vector<double>& samples);

void runPaperMerge(const RunArgs& args, Report& report);
void runLadderSwap(const RunArgs& args, Report& report);
void runOnlineService(const RunArgs& args, Report& report);

}  // namespace perfbench
