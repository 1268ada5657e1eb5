// The benchmark's calls into the library's public functions, one wrapper
// per call, each inside a span named "<module>.<stage>" (recorded only in
// traced runs) and feeding the layer's work counters.
//
// classify() is the one place traced and untraced runs differ: untraced
// runs call lclpath::classify(); traced runs call the pipeline stages one
// by one (transition system, monoid, solvability, linear-gap and
// const-gap search) so each stage gets its own span, and synthesize from
// the stage products with the same constructors ClassifiedProblem uses.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "decide/batch.hpp"
#include "decide/classifier.hpp"
#include "local/simulator.hpp"
#include "store/serve.hpp"
#include "store/store.hpp"
#include "trace.hpp"

namespace perfbench {

/// A classification, from classify() or from the stages.
struct Verdict {
  lclpath::ComplexityClass complexity = lclpath::ComplexityClass::kUnsolvable;
  std::optional<lclpath::Word> counterexample;
  std::shared_ptr<const lclpath::ClassifiedProblem> classified;  ///< untraced runs
  struct Stages {
    lclpath::PairwiseProblem problem;
    std::shared_ptr<const lclpath::Monoid> monoid;
    lclpath::LinearGapCertificate linear;
    lclpath::ConstGapCertificate constant;
  };
  std::shared_ptr<const Stages> stages;  ///< traced runs
};

class Calls {
 public:
  explicit Calls(Tracer& tracer) : tracer_(tracer) {}

  Tracer& tracer() { return tracer_; }

  // lcl
  std::vector<lclpath::PairwiseProblem> parse(const std::string& text);
  lclpath::VerifyResult verify(const lclpath::PairwiseProblem& problem,
                               const lclpath::Word& inputs, const lclpath::Word& outputs);

  // automata + decide
  Verdict classify(const lclpath::PairwiseProblem& problem);
  /// Always the stage-by-stage path (the traced serial reference pass).
  Verdict classify_stages(const lclpath::PairwiseProblem& problem);
  std::vector<lclpath::BatchEntry> classify_batch(
      std::span<const lclpath::PairwiseProblem> problems, lclpath::BatchCache& cache,
      lclpath::MonoidCache& monoid_cache);
  std::unique_ptr<lclpath::LocalAlgorithm> synthesize(const Verdict& verdict);
  std::unique_ptr<lclpath::LocalAlgorithm> synthesize(
      const lclpath::ClassifiedProblem& classified);

  // local
  lclpath::SimulationResult simulate(const lclpath::LocalAlgorithm& algorithm,
                                     const lclpath::PairwiseProblem& problem,
                                     const lclpath::Instance& instance,
                                     const lclpath::SimulationOptions& options);

  // store
  /// Stages every record (one span around the whole loop of put() calls).
  void put_all(lclpath::store::ResultStore& store,
               std::vector<lclpath::store::StoreRecord> records);
  std::size_t commit(lclpath::store::ResultStore& store);
  lclpath::store::LoadReport load(lclpath::store::ResultStore& store);
  std::size_t warm_start(lclpath::store::ResultStore& store, lclpath::BatchCache& cache);
  lclpath::store::ReloadReport poll(lclpath::store::CatalogServer& server);
  /// One find() per key (one span around the whole loop).
  std::vector<const lclpath::store::StoreRecord*> find_all(
      const lclpath::store::StoreSnapshot& snapshot, const std::vector<std::string>& keys);

  /// Total serial classify time of the batches' cold problems is compared
  /// against cold batch time for decide.batch_speedup.
  double cold_batch_s() const { return cold_batch_s_; }

 private:
  Tracer& tracer_;
  double cold_batch_s_ = 0;
};

/// The store record of one classified problem (the identity the store and
/// the batch cache key it under is record.cache_key()).
lclpath::store::StoreRecord record_for(const lclpath::PairwiseProblem& problem,
                                       lclpath::ComplexityClass complexity);

}  // namespace perfbench
