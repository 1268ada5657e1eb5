#include "workloads.hpp"

#include <filesystem>
#include <optional>
#include <set>
#include <stdexcept>

#include "checker.hpp"
#include "hardness/undirected.hpp"
#include "inputs.hpp"
#include "lcl/serialize.hpp"

namespace perfbench {

using namespace lclpath;

namespace {

/// splitmix-style mix so every (seed, stream) pair gets its own generator.
std::uint64_t mix(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Rounds continue while the run has time left; the first always runs.
bool more_rounds(const RunConfig& config, Clock::time_point start, std::size_t rounds) {
  return rounds == 0 || seconds_since(start) < config.seconds;
}

/// Untraced runs time their set-up `reps` times before the rounds and again
/// after every round, so the reported median spans the whole run the way
/// the rounds do (a set-up timed only at the start would sample whatever
/// speed the host happened to run at in that instant).
template <typename SetUp>
void repeat_setup(const RunConfig& config, int reps, SetUp&& set_up) {
  if (config.trace) return;
  for (int r = 0; r < reps; ++r) set_up();
}

/// A stopwatch that can be paused around the benchmark's own checks, so a
/// round's wall time counts only calls into the program.
class Stopwatch {
 public:
  void resume() { start_ = Clock::now(); }
  void pause() { total_ += seconds_since(start_); }
  double seconds() const { return total_; }

 private:
  Clock::time_point start_ = Clock::now();
  double total_ = 0;
};

std::string scratch_dir(const RunConfig& config, const std::string& tag) {
  return (std::filesystem::path(config.out_dir) /
          ("store-" + config.workload + "-" + tag))
      .string();
}

/// Runs a synthesized algorithm on a small seeded instance and checks the
/// labeling with the oracle, the stand-alone verifier and the engine.
void sample_run(Calls& calls, const LocalAlgorithm& algorithm, const PairwiseProblem& problem,
                std::uint64_t seed, std::size_t n, RunResult& result, Stopwatch& watch) {
  Rng rng(seed);
  const Instance instance =
      random_instance(problem.topology(), n, problem.num_inputs(), rng);
  SimulationOptions options;
  options.threads = 1;
  const SimulationResult run = calls.simulate(algorithm, problem, instance, options);
  const VerifyResult verified = calls.verify(problem, instance.inputs, run.outputs);
  watch.pause();
  const std::string own = check_labeling(Tables::of(problem), instance.inputs, run.outputs);
  result.check(own.empty() && run.verdict.ok && verified.ok,
               "sample run of " + problem.name() + ": oracle '" + own + "', engine " +
                   (run.verdict.ok ? "ok" : run.verdict.reason));
  watch.resume();
}

/// Persists the verdicts into a fresh store, reloads it cold, warm-starts a
/// batch cache from it, re-runs the batch against that cache, and serves
/// every key through a CatalogServer. Check (e): every key comes back with
/// its class from both readers, and the cached batch runs no decider.
void publish(Calls& calls, const std::string& dir, const std::vector<PairwiseProblem>& problems,
             const std::vector<ComplexityClass>& classes, RunResult& result,
             Stopwatch& watch) {
  namespace fs = std::filesystem;
  fs::remove_all(dir);
  fs::create_directories(dir);
  std::vector<std::string> keys(problems.size());
  std::set<std::string> distinct;
  {
    std::vector<store::StoreRecord> records;
    for (std::size_t i = 0; i < problems.size(); ++i) {
      store::StoreRecord record = record_for(problems[i], classes[i]);
      keys[i] = record.cache_key();
      if (distinct.insert(keys[i]).second) records.push_back(std::move(record));
    }
    store::ResultStore writer(dir);
    calls.put_all(writer, std::move(records));
    calls.commit(writer);
  }
  store::ResultStore reader(dir);
  const store::LoadReport report = calls.load(reader);
  BatchCache cache;
  calls.warm_start(reader, cache);
  MonoidCache fresh_monoids;
  const std::vector<BatchEntry> warm = calls.classify_batch(problems, cache, fresh_monoids);
  store::CatalogServer server(dir);
  calls.poll(server);
  const std::shared_ptr<const store::StoreSnapshot> snapshot = server.snapshot();
  const std::vector<const store::StoreRecord*> served = calls.find_all(*snapshot, keys);
  watch.pause();
  result.check(report.dirty.empty() && report.records == distinct.size(),
               "reload: " + std::to_string(report.records) + " records, " +
                   std::to_string(report.dirty.size()) + " dirty shards");
  result.check(cache.hits() == distinct.size() && cache.misses() == 0,
               "warm batch: " + std::to_string(cache.hits()) + " cache hits for " +
                   std::to_string(distinct.size()) + " keys");
  result.check(fresh_monoids.misses() == 0, "warm batch built a monoid");
  for (std::size_t i = 0; i < problems.size(); ++i) {
    const store::StoreRecord* stored = reader.find(keys[i]);
    const bool ok = warm[i].ok() && warm[i].classified().complexity() == classes[i] &&
                    stored != nullptr && stored->classified == classes[i] &&
                    served[i] != nullptr && served[i]->classified == classes[i];
    result.check(ok, "reload lost or changed " + problems[i].name());
  }
  fs::remove_all(dir);
  watch.resume();
}

}  // namespace

// ------------------------------------------------------------ lifted-decide

void run_lifted_decide(const RunConfig& config, Calls& calls, RunResult& result) {
  Tracer& tracer = calls.tracer();
  std::vector<LiftedCase> cases;
  std::vector<std::string> texts;
  auto set_up = [&] {
    const Clock::time_point start = Clock::now();
    cases = lifted_cases();
    // The run's seed fixes the order the problems are decided in.
    Rng rng(mix(config.seed, 1));
    const std::vector<std::size_t> order = rng.permutation(cases.size());
    std::vector<LiftedCase> ordered;
    for (const std::size_t i : order) ordered.push_back(cases[i]);
    cases = std::move(ordered);
    texts.clear();
    for (const LiftedCase& c : cases) texts.push_back(serialize(c.problem));
    result.setup_s.push_back(seconds_since(start));
  };
  constexpr int kSetups = 25;
  set_up();
  repeat_setup(config, kSetups - 1, set_up);
  for (const LiftedCase& c : cases) result.operations.push_back(c.problem.name());

  tracer.set_phase(Phase::kRound);
  const Clock::time_point run_start = Clock::now();
  std::uint64_t op = 0;
  while (more_rounds(config, run_start, result.rounds)) {
    Stopwatch watch;
    std::vector<PairwiseProblem> problems;
    std::vector<ComplexityClass> classes;
    double verdicts_s = 0;
    for (std::size_t i = 0; i < cases.size(); ++i) {
      tracer.set_op(++op);
      ++result.attempted;
      const Clock::time_point start = Clock::now();
      PairwiseProblem problem = calls.parse(texts[i]).at(0);
      const Verdict verdict = calls.classify(problem);
      const double verdict_s = seconds_since(start);
      result.op_ms[cases[i].problem.name()].push_back(verdict_s * 1e3);
      verdicts_s += verdict_s;
      watch.pause();
      result.check(verdict.complexity == cases[i].expected,
                   problem.name() + ": " + to_string(verdict.complexity) + ", lift rules say " +
                       to_string(cases[i].expected));
      result.check(problem == cases[i].problem, problem.name() + ": parse changed the problem");
      watch.resume();
      if (verdict.complexity != ComplexityClass::kUnsolvable) {
        const std::unique_ptr<LocalAlgorithm> algorithm = calls.synthesize(verdict);
        sample_run(calls, *algorithm, problem, mix(config.seed, 100 + i), 48, result, watch);
      }
      problems.push_back(std::move(problem));
      classes.push_back(verdict.complexity);
    }
    tracer.set_op(++op);
    publish(calls, scratch_dir(config, std::to_string(result.rounds)), problems, classes,
            result, watch);
    watch.pause();
    result.round_s.push_back(watch.seconds());
    result.items_per_s.push_back(static_cast<double>(cases.size()) / verdicts_s);
    ++result.rounds;
    repeat_setup(config, kSetups, set_up);
  }
}

// ------------------------------------------------------------ catalog-sweep

namespace {

constexpr std::size_t kCatalogBase = 6400;
constexpr std::size_t kCatalogRenamed = 800;
constexpr std::size_t kCatalogPermuted = 800;
constexpr std::size_t kSampleRuns = 24;

/// The oracle's checks (a)-(d) on one round's verdicts.
void check_catalog(const std::vector<CatalogProblem>& catalog,
                   const std::vector<PairwiseProblem>& parsed,
                   const std::vector<BatchEntry>& entries, std::uint64_t seed,
                   std::vector<std::optional<Solvability>>& solvability, RunResult& result) {
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    const PairwiseProblem& problem = catalog[i].problem;
    result.check(parsed[i] == problem, problem.name() + ": parse changed the problem");
    if (!entries[i].ok()) continue;
    const ComplexityClass c = entries[i].classified().complexity();
    // (a) copies get their original's class.
    const BatchEntry& original = entries[catalog[i].original];
    result.check(!original.ok() || original.classified().complexity() == c,
                 problem.name() + ": " + to_string(c) + " but its original is " +
                     (original.ok() ? to_string(original.classified().complexity()) : "?"));
    // (b) input-free directed cycles: O(1) iff a node-allowed self-loop.
    if (problem.topology() == Topology::kDirectedCycle && problem.num_inputs() == 1) {
      result.check((c == ComplexityClass::kConstant) == has_node_self_loop(problem),
                   problem.name() + ": " + to_string(c) + " contradicts the self-loop test");
    }
    const Tables tables = Tables::of(problem);
    if (!solvability[i]) solvability[i] = decide_solvable(tables);
    const Solvability& own = *solvability[i];
    result.check(!own.decided || own.solvable == (c != ComplexityClass::kUnsolvable),
                 problem.name() + ": " + to_string(c) + " but the oracle finds it " +
                     (own.solvable ? "solvable" : "unsolvable"));
    if (c == ComplexityClass::kUnsolvable) {
      // (c) the counterexample is an admissible, unlabelable instance.
      const auto& witness = entries[i].classified().solvability().counterexample;
      result.check(witness.has_value() && witness->size() >= tables.min_length() &&
                       !labelable(tables, *witness),
                   problem.name() + ": counterexample is labelable or inadmissible");
      continue;
    }
    // (d) seeded random admissible instances are labelable.
    Rng rng(mix(seed, 1000 + i));
    for (int k = 0; k < 4; ++k) {
      const std::size_t n = tables.min_length() + rng.next_below(10);
      Word word(n);
      for (Label& x : word) x = static_cast<Label>(rng.next_below(tables.alpha));
      result.check(labelable(tables, word), problem.name() + ": solvable verdict but an "
                                                             "instance is unlabelable");
    }
  }
}

}  // namespace

void run_catalog_sweep(const RunConfig& config, Calls& calls, RunResult& result) {
  Tracer& tracer = calls.tracer();
  std::vector<CatalogProblem> catalog;
  std::string text;
  auto set_up = [&] {
    const Clock::time_point start = Clock::now();
    catalog = random_catalog(mix(config.seed, 2), kCatalogBase, kCatalogRenamed,
                             kCatalogPermuted);
    std::vector<PairwiseProblem> problems;
    for (const CatalogProblem& c : catalog) problems.push_back(c.problem);
    text = catalog_text(problems);
    result.setup_s.push_back(seconds_since(start));
  };
  set_up();
  repeat_setup(config, 4, set_up);
  for (const CatalogProblem& c : catalog) result.operations.push_back(c.problem.name());
  std::vector<std::optional<Solvability>> solvability(catalog.size());

  tracer.set_phase(Phase::kRound);
  const Clock::time_point run_start = Clock::now();
  std::vector<ComplexityClass> first_round;
  std::vector<PairwiseProblem> cold_problems;  // what the cold batch classified
  std::uint64_t op = 0;
  while (more_rounds(config, run_start, result.rounds)) {
    Stopwatch watch;
    tracer.set_op(++op);
    const Clock::time_point start = Clock::now();
    const std::vector<PairwiseProblem> problems = calls.parse(text);
    BatchCache cache;
    MonoidCache monoids;
    const std::vector<BatchEntry> entries = calls.classify_batch(problems, cache, monoids);
    const double cold_s = seconds_since(start);
    result.op_ms["cold-classification"].push_back(cold_s * 1e3);
    result.items_per_s.push_back(static_cast<double>(problems.size()) / cold_s);
    result.attempted += problems.size();
    std::vector<ComplexityClass> classes(problems.size(), ComplexityClass::kUnsolvable);
    std::vector<PairwiseProblem> solved;
    std::vector<ComplexityClass> solved_classes;
    std::size_t samples = 0;
    watch.pause();
    for (std::size_t i = 0; i < entries.size(); ++i) {
      if (!entries[i].ok()) {
        result.failed.push_back(problems[i].name() + ": " + entries[i].error());
        continue;
      }
      classes[i] = entries[i].classified().complexity();
      solved.push_back(problems[i]);
      solved_classes.push_back(classes[i]);
      if (result.rounds == 0 && !entries[i].deduplicated) cold_problems.push_back(problems[i]);
    }
    check_catalog(catalog, problems, entries, config.seed, solvability, result);
    if (result.rounds == 0) first_round = classes;
    result.check(classes == first_round, "verdicts changed between rounds");
    watch.resume();
    // Sample runs: the synthesized algorithms of the first log* and
    // Theta(n) problems on small seeded instances.
    for (std::size_t i = 0; i < entries.size() && samples < kSampleRuns; ++i) {
      if (!entries[i].ok() || entries[i].deduplicated) continue;
      if (classes[i] != ComplexityClass::kLogStar && classes[i] != ComplexityClass::kLinear) {
        continue;
      }
      ++samples;
      const std::unique_ptr<LocalAlgorithm> algorithm =
          calls.synthesize(entries[i].classified());
      sample_run(calls, *algorithm, problems[i], mix(config.seed, 5000 + i), 24, result,
                 watch);
    }
    tracer.set_op(++op);
    publish(calls, scratch_dir(config, std::to_string(result.rounds)), solved,
            solved_classes, result, watch);
    watch.pause();
    result.round_s.push_back(watch.seconds());
    ++result.rounds;
    repeat_setup(config, 1, set_up);
  }

  if (config.trace) {
    // Serial reference: the cold batch's problems, stage by stage, once.
    tracer.set_phase(Phase::kReference);
    const Clock::time_point start = Clock::now();
    for (const PairwiseProblem& p : cold_problems) {
      tracer.set_op(++op);
      calls.classify_stages(p);
    }
    const double serial_s = seconds_since(start);
    const double batch_s = calls.cold_batch_s() / static_cast<double>(result.rounds);
    result.batch_speedup = batch_s > 0 ? serial_s / batch_s : 0;
  }
}

// ----------------------------------------------------------- simulate-large

namespace {

constexpr std::size_t kNodes = 1000000;
constexpr std::size_t kSimThreads = 4;
constexpr std::size_t kChunkSize = 65536;
/// Message of the known SynthesizedConstant anchor fault (see README).
constexpr const char* kNamedFault = "virtual gap not enclosed by anchors";

struct Prepared {
  std::vector<SimulationCase> cases;
  std::vector<PairwiseProblem> problems;
  std::vector<BatchEntry> entries;
  std::vector<std::unique_ptr<LocalAlgorithm>> algorithms;
  std::vector<Instance> instances;
};

Instance make_instance_for(const SimulationCase& c, std::uint64_t seed, std::size_t index) {
  Rng rng(c.seeded ? mix(seed, 200 + index) : c.fixed_seed);
  if (!c.oriented_lift) {
    return random_instance(c.problem.topology(), kNodes, c.problem.num_inputs(), rng);
  }
  Instance instance = random_instance(c.problem.topology(), kNodes, 1, rng);
  instance.inputs =
      hardness::orient_inputs(c.source, Word(kNodes, 0), rng.next_below(3));
  return instance;
}

}  // namespace

void run_simulate_large(const RunConfig& config, Calls& calls, RunResult& result) {
  Tracer& tracer = calls.tracer();
  Prepared prepared;
  auto set_up = [&] {
    prepared = Prepared{};  // rebuilt from scratch, never two copies at once
    Stopwatch watch;
    prepared.cases = simulation_cases();
    std::vector<PairwiseProblem> sources;
    for (const SimulationCase& c : prepared.cases) sources.push_back(c.problem);
    prepared.problems = calls.parse(catalog_text(sources));
    BatchCache cache;
    MonoidCache monoids;
    const Clock::time_point batch_start = Clock::now();
    prepared.entries = calls.classify_batch(prepared.problems, cache, monoids);
    const double batch_s = seconds_since(batch_start);
    std::vector<ComplexityClass> classes;
    for (std::size_t i = 0; i < prepared.entries.size(); ++i) {
      const BatchEntry& e = prepared.entries[i];
      if (!e.ok()) {
        throw std::runtime_error(prepared.cases[i].name + ": classification failed: " +
                                 e.error());
      }
      classes.push_back(e.classified().complexity());
      prepared.algorithms.push_back(calls.synthesize(e.classified()));
      prepared.instances.push_back(make_instance_for(prepared.cases[i], config.seed, i));
    }
    publish(calls, scratch_dir(config, "setup"), prepared.problems, classes, result, watch);
    if (config.trace) {
      const Clock::time_point start = Clock::now();
      for (const PairwiseProblem& p : prepared.problems) calls.classify_stages(p);
      result.batch_speedup = seconds_since(start) / batch_s;
    }
    watch.pause();
    result.setup_s.push_back(watch.seconds());
  };
  set_up();
  repeat_setup(config, 2, set_up);
  for (const SimulationCase& c : prepared.cases) result.operations.push_back(c.name);

  tracer.set_phase(Phase::kRound);
  SimulationOptions options;
  options.threads = kSimThreads;
  options.chunk_size = kChunkSize;
  const Clock::time_point run_start = Clock::now();
  std::uint64_t op = 0;
  while (more_rounds(config, run_start, result.rounds)) {
    Stopwatch watch;
    double nodes = 0, nodes_s = 0;
    for (std::size_t i = 0; i < prepared.cases.size(); ++i) {
      const SimulationCase& c = prepared.cases[i];
      const PairwiseProblem& problem = prepared.problems[i];
      const Instance& instance = prepared.instances[i];
      tracer.set_op(++op);
      ++result.attempted;
      const Clock::time_point start = Clock::now();
      SimulationResult run;
      try {
        run = calls.simulate(*prepared.algorithms[i], problem, instance, options);
      } catch (const std::exception& e) {
        watch.pause();
        const std::string what = e.what();
        result.failed.push_back(c.name + ": " + what);
        result.check(!c.seeded && what.find(kNamedFault) != std::string::npos,
                     c.name + " failed outside the named fault: " + what);
        watch.resume();
        continue;
      }
      const VerifyResult verified = calls.verify(problem, instance.inputs, run.outputs);
      const double op_s = seconds_since(start);
      result.op_ms[c.name].push_back(op_s * 1e3);
      nodes += static_cast<double>(instance.size());
      nodes_s += op_s;
      watch.pause();
      const std::string own = check_labeling(Tables::of(problem), instance.inputs, run.outputs);
      result.check(own.empty(), c.name + ": oracle rejects the output: " + own);
      result.check(run.verdict.ok == own.empty() && verified.ok == own.empty(),
                   c.name + ": engine verdict disagrees with the oracle");
      watch.resume();
    }
    watch.pause();
    result.round_s.push_back(watch.seconds());
    result.items_per_s.push_back(nodes / nodes_s);
    ++result.rounds;
    repeat_setup(config, 1, set_up);
  }
}

}  // namespace perfbench
