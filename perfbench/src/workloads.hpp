// The three workloads. Each runs its set-up, then whole rounds of the same
// operations until the run's time is used up (at least one round), checks
// every output against the benchmark's own oracle, and records what it
// measured in a RunResult.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "calls.hpp"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string out_dir;  ///< scratch stores and the trace file go here
};

struct RunResult {
  std::vector<std::string> errors;     ///< correctness violations (empty = correct)
  std::size_t attempted = 0;
  std::vector<std::string> failed;     ///< names of failed operations, per attempt
  std::vector<std::string> operations; ///< names of one round's operations
  std::size_t rounds = 0;
  std::vector<double> setup_s;         ///< one per set-up repetition
  std::vector<double> round_s;         ///< timed wall of each round
  /// Latencies of each completed operation, by operation name.
  std::map<std::string, std::vector<double>> op_ms;
  /// Work items (problems, nodes) completed per second, one per round.
  std::vector<double> items_per_s;
  double batch_speedup = 0;            ///< serial classify time / cold batch time

  void check(bool ok, const std::string& what) {
    if (!ok && errors.size() < 20) errors.push_back(what);
  }
};

void run_lifted_decide(const RunConfig& config, Calls& calls, RunResult& result);
void run_catalog_sweep(const RunConfig& config, Calls& calls, RunResult& result);
void run_simulate_large(const RunConfig& config, Calls& calls, RunResult& result);

}  // namespace perfbench
