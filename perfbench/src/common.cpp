#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <sstream>

#include <sched.h>
#include <sys/resource.h>

namespace perfbench {

void Report::fail(const std::string& what) {
  std::cout << "CHECK FAILED: " << what << "\n";
  errors_.push_back(what);
}

std::string Report::json() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct() ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics_) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metric.value);
    out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << value
        << ", \"unit\": \"" << metric.unit << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

CoreRotation::CoreRotation() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cores_.push_back(c);
  }
}

CoreRotation::~CoreRotation() {
  if (cores_.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cores_) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof set, &set);
}

void CoreRotation::pin(std::size_t k) const {
  if (cores_.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cores_[k % cores_.size()], &set);
  sched_setaffinity(0, sizeof set, &set);  // on failure the thread stays put
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double latencyTail(const std::vector<double>& samples) {
  return quantile(samples, samples.size() >= 100 ? 0.90 : 0.5);
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double logSum = 0.0;
  for (const double v : values) logSum += std::log(v);
  return std::exp(logSum / static_cast<double>(values.size()));
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace perfbench
