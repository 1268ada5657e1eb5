// Bit-identity pin for the synthesized algorithms' outputs. For the
// Theta(log* n) algorithm (Lemma 17) on all four topologies, the non-unary
// O(1) algorithm (Lemma 27) on copy-input and shift-input, and the O(1)
// algorithm of the lifted 3-coloring on consistently oriented counters
// (above its structured-regime threshold, so its anchors are periodic
// claims), a digest over simulate()'s outputs, verdict and any exception
// at two or three chunk sizes must equal the constant recorded before the gap
// completion DP and the anchor labeling were rewritten: those rewrites may
// change how fast the algorithms run, never what they output.
//
// The engine-vs-simulate_reference sweeps cannot catch such a change on
// their own, because both sides of them call the same completion DP.
#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "decide/classifier.hpp"
#include "hardness/undirected.hpp"
#include "local/simulator.hpp"
#include "test_util.hpp"

namespace lclpath {
namespace {

std::size_t hash_string(std::size_t h, const std::string& s) {
  h = hash_mix(h, s.size());
  for (char c : s) h = hash_mix(h, static_cast<unsigned char>(c));
  return h;
}

/// Digest of one synthesized run per chunk size: outputs, verdict (down to
/// failed_at and reason) or the exception message.
std::uint64_t run_digest(const LocalAlgorithm& algorithm, const PairwiseProblem& problem,
                         const Instance& instance,
                         const std::vector<std::size_t>& chunk_sizes) {
  std::size_t h = hash_mix(0x51D16E, instance.size());
  for (const std::size_t chunk : chunk_sizes) {
    SimulationOptions options;
    options.threads = 2;
    options.chunk_size = chunk;
    h = hash_mix(h, chunk);
    try {
      const SimulationResult run = simulate(algorithm, problem, instance, options);
      h = hash_mix(h, run.radius);
      for (Label l : run.outputs) h = hash_mix(h, l);
      h = hash_mix(h, run.verdict.ok ? 1 : 0);
      h = hash_mix(h, run.verdict.failed_at);
      h = hash_string(h, run.verdict.reason);
    } catch (const std::exception& e) {
      h = hash_string(hash_mix(h, 0xE4C), e.what());
    }
  }
  return h;
}

/// A classified problem and its synthesized algorithm, which borrows the
/// result's monoid and certificates.
struct Synthesized {
  ClassifiedProblem result;
  std::unique_ptr<LocalAlgorithm> algorithm;

  Synthesized(const PairwiseProblem& problem, ComplexityClass expected)
      : result(classify(problem)) {
    EXPECT_EQ(result.complexity(), expected) << result.summary();
    algorithm = result.synthesize();
  }
};

struct Row {
  PairwiseProblem problem;
  std::uint64_t expected;
};

std::string row_name(const PairwiseProblem& problem) {
  return problem.name() + "@" + to_string(problem.topology());
}

TEST(SimulationDigest, LogStarRows) {
  const std::vector<Row> rows = {
      {catalog::coloring(3, Topology::kDirectedPath), 0x798f30ad52057be0ull},
      {catalog::coloring(3, Topology::kDirectedCycle), 0x0be68ebc1cd38795ull},
      {catalog::coloring(3, Topology::kUndirectedPath), 0x3aa91c7ed01c30a1ull},
      {catalog::coloring(3, Topology::kUndirectedCycle), 0x7fa186700a6600f3ull},
      {catalog::input_gated_coloring(Topology::kDirectedPath), 0xf76e82de0a29ac8bull},
      {catalog::input_gated_coloring(Topology::kDirectedCycle), 0x209fe4f001b6e971ull},
  };
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const PairwiseProblem& problem = rows[i].problem;
    const Synthesized s(problem, ComplexityClass::kLogStar);
    const std::size_t r = s.algorithm->radius(std::size_t{1} << 20);
    Rng rng(700 + i);
    const std::size_t n = 20 * r + 1001;
    const Instance instance =
        random_instance(problem.topology(), n, problem.num_inputs(), rng);
    const std::uint64_t digest = run_digest(*s.algorithm, problem, instance, {n, 4099});
    EXPECT_EQ(digest, rows[i].expected)
        << row_name(problem) << ": digest 0x" << std::hex << digest;
  }
}

/// Random inputs with a periodic middle third (period 2), so the O(1)
/// algorithm meets irregular zones and anchored periodic claims.
Instance mixed_instance(const PairwiseProblem& problem, std::size_t n, Rng& rng) {
  Instance instance = random_instance(problem.topology(), n, problem.num_inputs(), rng);
  for (std::size_t v = n / 3; v < (2 * n) / 3; ++v) instance.inputs[v] = v % 2;
  return instance;
}

TEST(SimulationDigest, NonUnaryConstantRows) {
  const std::vector<Row> rows = {
      {catalog::copy_input(Topology::kDirectedPath), 0x470182e56f777a8dull},
      {catalog::copy_input(Topology::kDirectedCycle), 0xd6c61ab2c3f94c5dull},
      {catalog::copy_input(Topology::kUndirectedPath), 0xce498626bf4c0c3full},
      {catalog::copy_input(Topology::kUndirectedCycle), 0x53c5c2ff167f8c52ull},
      {catalog::shift_input(Topology::kDirectedPath), 0xdf4c2fc55671cb30ull},
      {catalog::shift_input(Topology::kDirectedCycle), 0xc2f80cb07567c156ull},
  };
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const PairwiseProblem& problem = rows[i].problem;
    const Synthesized s(problem, ComplexityClass::kConstant);
    const std::size_t r = s.algorithm->radius(std::size_t{1} << 40);
    Rng rng(800 + i);
    const std::size_t n = 2 * r + 20011;
    const Instance instance = mixed_instance(problem, n, rng);
    const std::uint64_t digest = run_digest(*s.algorithm, problem, instance, {n, 8191});
    EXPECT_EQ(digest, rows[i].expected)
        << row_name(problem) << ": digest 0x" << std::hex << digest;
  }
}

TEST(SimulationDigest, LiftedColoringOnOrientedCounters) {
  const PairwiseProblem source = catalog::coloring(3, Topology::kDirectedPath);
  const PairwiseProblem lifted = hardness::lift_to_undirected(source);
  const Synthesized s(lifted, ComplexityClass::kConstant);
  const std::size_t r = s.algorithm->radius(std::size_t{1} << 40);
  const std::size_t n = 2 * r + 40961;
  Rng rng(901);
  Instance instance = random_instance(lifted.topology(), n, 1, rng);
  instance.inputs = hardness::orient_inputs(source, Word(n, 0), 1);
  const std::uint64_t digest = run_digest(*s.algorithm, lifted, instance, {n, 65536, 30011});
  EXPECT_EQ(digest, 0x5c3b2ff33733fdbdull) << "digest 0x" << std::hex << digest;
}

}  // namespace
}  // namespace lclpath
