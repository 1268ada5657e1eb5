#include "calls.hpp"

#include <filesystem>
#include <stdexcept>

#include "lcl/serialize.hpp"

namespace perfbench {

using namespace lclpath;

std::vector<PairwiseProblem> Calls::parse(const std::string& text) {
  auto span = tracer_.span("lcl.parse");
  std::vector<PairwiseProblem> problems = parse_problems(text);
  tracer_.count("lcl.parse_problems", static_cast<double>(problems.size()));
  return problems;
}

VerifyResult Calls::verify(const PairwiseProblem& problem, const Word& inputs,
                           const Word& outputs) {
  auto span = tracer_.span("lcl.verify");
  return verify_pairwise(problem, inputs, outputs);
}

Verdict Calls::classify(const PairwiseProblem& problem) {
  if (tracer_.enabled()) return classify_stages(problem);
  ClassifiedProblem result = lclpath::classify(problem);
  Verdict verdict;
  verdict.complexity = result.complexity();
  verdict.counterexample = result.solvability().counterexample;
  verdict.classified = std::make_shared<const ClassifiedProblem>(std::move(result));
  return verdict;
}

Verdict Calls::classify_stages(const PairwiseProblem& problem) {
  auto stages = std::make_shared<Verdict::Stages>();
  Verdict verdict;
  {
    auto span = tracer_.span("decide.classify");
    stages->problem = problem;
    std::optional<TransitionSystem> transitions;
    {
      auto s = tracer_.span("automata.transition");
      transitions.emplace(TransitionSystem::build(stages->problem));
    }
    {
      auto s = tracer_.span("automata.monoid");
      stages->monoid = std::make_shared<const Monoid>(Monoid::enumerate(*transitions));
    }
    SolvabilityReport solvability;
    {
      auto s = tracer_.span("automata.solvability");
      solvability = check_solvability(*stages->monoid, problem.topology());
    }
    verdict.counterexample = solvability.counterexample;
    if (!solvability.solvable) {
      verdict.complexity = ComplexityClass::kUnsolvable;
    } else {
      {
        auto s = tracer_.span("decide.linear_gap");
        stages->linear = decide_linear_gap(*stages->monoid);
      }
      if (!stages->linear.feasible) {
        verdict.complexity = ComplexityClass::kLinear;
      } else {
        auto s = tracer_.span("decide.const_gap");
        stages->constant = decide_const_gap(*stages->monoid);
        verdict.complexity = stages->constant.feasible ? ComplexityClass::kConstant
                                                       : ComplexityClass::kLogStar;
      }
    }
  }
  tracer_.count("automata.monoid_elements", static_cast<double>(stages->monoid->size()));
  if (verdict.complexity != ComplexityClass::kUnsolvable) {
    tracer_.count("decide.linear_gap_points",
                  static_cast<double>(linear_gap_domain_size(*stages->monoid)));
  }
  verdict.stages = std::move(stages);
  return verdict;
}

std::vector<BatchEntry> Calls::classify_batch(std::span<const PairwiseProblem> problems,
                                              BatchCache& cache, MonoidCache& monoid_cache) {
  BatchOptions options;
  options.num_threads = 4;
  options.cache = &cache;
  options.classify.monoid_cache = &monoid_cache;
  const std::uint64_t hits = cache.hits(), misses = cache.misses();
  const std::uint64_t monoid_hits = monoid_cache.hits(),
                      monoid_misses = monoid_cache.misses();
  const Clock::time_point start = Clock::now();
  std::vector<BatchEntry> entries;
  {
    auto span = tracer_.span("decide.batch");
    entries = lclpath::classify_batch(problems, options);
  }
  if (cache.misses() > misses) cold_batch_s_ += seconds_since(start);
  const BatchSummary summary = summarize_batch(entries);
  tracer_.count("decide.batch_dedup", static_cast<double>(summary.deduplicated));
  tracer_.count("decide.cache_hits", static_cast<double>(cache.hits() - hits));
  tracer_.count("decide.cache_misses", static_cast<double>(cache.misses() - misses));
  tracer_.count("decide.monoid_cache_hits",
                static_cast<double>(monoid_cache.hits() - monoid_hits));
  tracer_.count("decide.monoid_cache_misses",
                static_cast<double>(monoid_cache.misses() - monoid_misses));
  return entries;
}

std::unique_ptr<LocalAlgorithm> Calls::synthesize(const ClassifiedProblem& classified) {
  auto span = tracer_.span("decide.synthesize");
  return classified.synthesize();
}

std::unique_ptr<LocalAlgorithm> Calls::synthesize(const Verdict& verdict) {
  if (verdict.classified != nullptr) return synthesize(*verdict.classified);
  auto span = tracer_.span("decide.synthesize");
  const Verdict::Stages& s = *verdict.stages;
  switch (verdict.complexity) {
    case ComplexityClass::kConstant:
      return std::make_unique<SynthesizedConstant>(*s.monoid, s.constant);
    case ComplexityClass::kLogStar:
      return std::make_unique<SynthesizedLogStar>(*s.monoid, s.linear);
    case ComplexityClass::kLinear:
      return std::make_unique<GatherAllAlgorithm>(s.problem);
    case ComplexityClass::kUnsolvable:
      break;
  }
  throw std::logic_error("synthesize: problem is unsolvable");
}

SimulationResult Calls::simulate(const LocalAlgorithm& algorithm, const PairwiseProblem& problem,
                                 const Instance& instance, const SimulationOptions& options) {
  tracer_.count_max("decide.radius_max",
                    static_cast<double>(algorithm.radius(instance.size())));
  SimulationResult result;
  {
    auto span = tracer_.span("local.simulate");
    result = lclpath::simulate(algorithm, problem, instance, options);
  }
  tracer_.count("local.nodes", static_cast<double>(instance.size()));
  tracer_.count("local.chunks", static_cast<double>(result.chunks));
  return result;
}

void Calls::put_all(store::ResultStore& store, std::vector<store::StoreRecord> records) {
  auto span = tracer_.span("store.put");
  for (store::StoreRecord& record : records) store.put(std::move(record));
}

std::size_t Calls::commit(store::ResultStore& store) {
  std::size_t written = 0;
  {
    auto span = tracer_.span("store.commit");
    written = store.commit();
  }
  if (tracer_.enabled()) {
    std::uintmax_t bytes = 0;
    for (const std::string& file : store::list_shard_files(store.directory())) {
      bytes += std::filesystem::file_size(file);
    }
    tracer_.count("store.shards_written", static_cast<double>(written));
    tracer_.count("store.bytes_written", static_cast<double>(bytes));
  }
  return written;
}

store::LoadReport Calls::load(store::ResultStore& store) {
  store::LoadReport report;
  {
    auto span = tracer_.span("store.load");
    report = store.load();
  }
  tracer_.count("store.records_loaded", static_cast<double>(report.records));
  return report;
}

std::size_t Calls::warm_start(store::ResultStore& store, BatchCache& cache) {
  std::size_t preloaded = 0;
  {
    auto span = tracer_.span("store.warm_start");
    preloaded = store.warm_start(cache);
  }
  tracer_.count("store.preloaded", static_cast<double>(preloaded));
  return preloaded;
}

store::ReloadReport Calls::poll(store::CatalogServer& server) {
  auto span = tracer_.span("store.serve_poll");
  return server.poll();
}

std::vector<const store::StoreRecord*> Calls::find_all(const store::StoreSnapshot& snapshot,
                                                      const std::vector<std::string>& keys) {
  std::vector<const store::StoreRecord*> found(keys.size());
  {
    auto span = tracer_.span("store.serve_lookup");
    for (std::size_t i = 0; i < keys.size(); ++i) found[i] = snapshot.find(keys[i]);
  }
  tracer_.count("store.lookups", static_cast<double>(keys.size()));
  return found;
}

store::StoreRecord record_for(const PairwiseProblem& problem, ComplexityClass complexity) {
  BatchEntry entry;
  auto outcome = std::make_shared<BatchOutcome>();
  outcome->classified = ClassifiedProblem::restore(problem, complexity);
  entry.outcome = std::move(outcome);
  return store::record_of(problem, entry, ClassifyOptions{});
}

}  // namespace perfbench
