// lclpath repository benchmark: one process runs one workload and prints
// its metrics. See perfbench/README.md.
//
//   lclpath_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                     --out-dir DIR
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The line before it reports the
// host, the operations of one round and the names of failed operations.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "checker.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct Metric {
  const char* name;
  const char* unit;
};

const Metric kLayerMetrics[] = {
    {"lcl.parse_s", "s"},
    {"lcl.parse_problems", "count"},
    {"lcl.verify_s", "s"},
    {"lcl.self_s", "s"},
    {"automata.transition_s", "s"},
    {"automata.monoid_s", "s"},
    {"automata.monoid_elements", "count"},
    {"automata.solvability_s", "s"},
    {"automata.self_s", "s"},
    {"decide.classify_s", "s"},
    {"decide.linear_gap_s", "s"},
    {"decide.linear_gap_points", "count"},
    {"decide.const_gap_s", "s"},
    {"decide.batch_s", "s"},
    {"decide.batch_speedup", "x"},
    {"decide.batch_dedup", "count"},
    {"decide.cache_hits", "count"},
    {"decide.cache_misses", "count"},
    {"decide.monoid_cache_hits", "count"},
    {"decide.monoid_cache_misses", "count"},
    {"decide.synthesize_s", "s"},
    {"decide.radius_max", "count"},
    {"decide.self_s", "s"},
    {"local.simulate_s", "s"},
    {"local.nodes", "count"},
    {"local.chunks", "count"},
    {"local.self_s", "s"},
    {"store.put_s", "s"},
    {"store.commit_s", "s"},
    {"store.shards_written", "count"},
    {"store.bytes_written", "bytes"},
    {"store.load_s", "s"},
    {"store.records_loaded", "count"},
    {"store.warm_start_s", "s"},
    {"store.preloaded", "count"},
    {"store.serve_poll_s", "s"},
    {"store.serve_lookup_s", "s"},
    {"store.lookups", "count"},
    {"store.self_s", "s"},
    {"trace.wall_s", "s"},
    {"trace.spans", "count"},
};

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

/// Geometric mean, over operations, of each operation's median latency.
double geomean_of_medians(const std::map<std::string, std::vector<double>>& latencies) {
  double log_sum = 0;
  for (const auto& [name, samples] : latencies) log_sum += std::log(median(samples));
  return latencies.empty() ? 0 : std::exp(log_sum / static_cast<double>(latencies.size()));
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

/// A JSON list of at most `limit` names, then a "... (N in all)" entry.
std::string json_list(const std::vector<std::string>& items, std::size_t limit = 64) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size() && i < limit; ++i) {
    out += (i == 0 ? "" : ", ") + json_string(items[i]);
  }
  if (items.size() > limit) {
    out += ", " + json_string("... (" + std::to_string(items.size()) + " in all)");
  }
  return out + "]";
}

int usage(const char* message) {
  std::cerr << "lclpath_perfbench: " << message
            << "\nusage: lclpath_perfbench --workload lifted-decide|catalog-sweep|"
               "simulate-large --seed N --seconds S --trace 0|1 --out-dir DIR\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        config.workload = value;
      } else if (flag == "--seed") {
        config.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        config.seconds = std::stod(value);
      } else if (flag == "--trace") {
        config.trace = value == "1";
      } else if (flag == "--out-dir") {
        config.out_dir = value;
      } else {
        return usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + flag).c_str());
    }
  }
  if (argc % 2 != 1 || !have_seed || config.out_dir.empty()) return usage("missing arguments");
  void (*run)(const RunConfig&, Calls&, RunResult&) = nullptr;
  if (config.workload == "lifted-decide") run = run_lifted_decide;
  if (config.workload == "catalog-sweep") run = run_catalog_sweep;
  if (config.workload == "simulate-large") run = run_simulate_large;
  if (run == nullptr) return usage("unknown workload");
  std::filesystem::create_directories(config.out_dir);

  RunResult result;
  const std::string self_test = checker_self_test();
  result.check(self_test.empty(), "oracle self-test: " + self_test);
  Tracer tracer(config.trace);
  Calls calls(tracer);
  try {
    run(config, calls, result);
  } catch (const std::exception& e) {
    std::cerr << "lclpath_perfbench: " << config.workload << " aborted: " << e.what() << "\n";
    return 1;
  }
  if (result.attempted == 0) {
    std::cerr << "lclpath_perfbench: no operation attempted\n";
    return 1;
  }

  std::map<std::string, std::pair<double, std::string>> metrics;
  std::string trace_path;
  if (!config.trace) {
    metrics["setup_s"] = {median(result.setup_s), "s"};
    metrics["wall_s"] = {median(result.round_s), "s"};
    metrics["op_geomean_ms"] = {geomean_of_medians(result.op_ms), "ms"};
    metrics["items_per_s"] = {median(result.items_per_s), "1/s"};
    metrics["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  } else {
    std::map<std::string, double> totals = tracer.layer_totals(result.rounds);
    totals["decide.batch_speedup"] = result.batch_speedup;
    totals["trace.wall_s"] = median(result.round_s);
    totals["trace.spans"] = static_cast<double>(tracer.span_count());
    for (const Metric& m : kLayerMetrics) metrics[m.name] = {totals[m.name], m.unit};
    trace_path = (std::filesystem::path(config.out_dir) /
                  ("trace-" + config.workload + "-seed" + std::to_string(config.seed) +
                   ".json"))
                     .string();
    tracer.write_chrome_trace(trace_path);
  }

  for (const std::string& e : result.errors) std::cerr << "CHECK FAILED: " << e << "\n";
  std::ostringstream report;
  report << "{\"workload\": " << json_string(config.workload) << ", \"seed\": " << config.seed
         << ", \"host\": {\"nproc\": " << std::thread::hardware_concurrency()
         << ", \"compiler\": " << json_string(PERFBENCH_COMPILER)
         << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE) << "}"
         << ", \"rounds\": " << result.rounds << ", \"round_s\": [";
  for (std::size_t i = 0; i < result.round_s.size(); ++i) {
    report << (i == 0 ? "" : ", ") << json_number(result.round_s[i]);
  }
  report << "]"
         << ", \"round_operations\": " << json_list(result.operations)
         << ", \"failed_operations\": " << json_list(result.failed)
         << ", \"check_failures\": " << json_list(result.errors);
  if (!trace_path.empty()) report << ", \"trace\": " << json_string(trace_path);
  report << "}";
  std::cout << report.str() << "\n";

  std::ostringstream line;
  line << "{\"correct\": " << (result.errors.empty() ? "true" : "false")
       << ", \"attempted\": " << result.attempted << ", \"failed\": " << result.failed.size()
       << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : metrics) {
    line << (first ? "" : ", ") << json_string(name) << ": {\"value\": "
         << json_number(value.first) << ", \"unit\": " << json_string(value.second) << "}";
    first = false;
  }
  line << "}}";
  std::cout << line.str() << std::endl;
  return result.errors.empty() ? 0 : 1;
}
